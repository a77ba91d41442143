// Folded-stack rendering and analysis for sampling profiles
// (DESIGN.md §16). The on-disk format is Brendan Gregg's collapsed
// form, one aggregated stack per line, root-first, count after the
// last space:
//
//   span:matching_build;phase:matching_build.pairs;main;Determine;... 42
//
// Two synthetic root frames carry the sample's attribution: the
// innermost trace span and the worker-pool phase active when SIGPROF
// fired ("-" when none), so grep / flamegraph.pl slice per span or
// phase with no extra tooling. Frames are demangled symbols (';'
// sanitized to ':'; spaces kept — parse with a last-space split) or
// "0x<hex>" when unresolvable.

#ifndef DD_OBS_PROF_FOLDED_H_
#define DD_OBS_PROF_FOLDED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/prof/profiler.h"

namespace dd::obs::prof {

// A set of folded stacks: line key -> sample count. std::map so
// rendering is deterministic.
struct FoldedProfile {
  std::map<std::string, std::uint64_t> stacks;

  std::uint64_t TotalSamples() const;
  bool empty() const { return stacks.empty(); }
};

// Symbolizes a raw in-process profile (dladdr against our own
// mappings; frames above the leaf are return addresses and resolve at
// pc-1) and folds it root-first with span:/phase: roots. The SIGPROF
// handler's own frames (CaptureOwnStack, SigprofHandler, the kernel
// sigreturn trampoline) are trimmed so the leaf is the interrupted PC.
FoldedProfile FoldProfile(const Profile& profile);

// One "stack count" line per aggregated stack, sorted by stack key.
std::string FoldedToString(const FoldedProfile& folded);

// Inverse of FoldedToString; merges duplicate keys, skips blank lines.
// Fails on a line with no parsable trailing count.
Status ParseFolded(const std::string& text, FoldedProfile* out);

// Sums sample counts across inputs, stack by stack (ddtool prof
// --merge).
FoldedProfile MergeFolded(const std::vector<FoldedProfile>& inputs);

// Per-function sample totals. `self` counts samples whose leaf is the
// function; `total` counts samples with the function anywhere on the
// stack (deduplicated per stack, so recursion does not double-count).
// Synthetic span:/phase: frames are excluded. Sorted by self
// descending, then total, then name.
struct HotFunction {
  std::string name;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};
std::vector<HotFunction> HotFunctions(const FoldedProfile& folded);

// Human-readable top-N hot-function table (ddtool prof <file>).
std::string TopTableToText(const FoldedProfile& folded, std::size_t top_n);

// Per-function self-sample deltas between two profiles, sorted by
// |delta| descending (ddtool prof --diff A B).
std::string DiffToText(const FoldedProfile& before, const FoldedProfile& after,
                       std::size_t top_n);

// Machine-readable summary of a folded profile (ddtool prof --json):
// total samples, per-span and per-phase counts, top-N functions.
std::string FoldedSummaryJson(const FoldedProfile& folded, std::size_t top_n);

// JSON summary of a raw profile: capture parameters (hz, duration,
// sample/drop/truncation counts), per-span and per-phase sample
// counts, and the top hot functions. Embedded in the ddtool run
// report's "profile" section and written as `<prefix>.json` by
// `ddtool <cmd> --profile`.
std::string ProfileSummaryJson(const Profile& profile);

}  // namespace dd::obs::prof

#endif  // DD_OBS_PROF_FOLDED_H_
