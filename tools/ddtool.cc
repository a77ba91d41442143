// ddtool — command-line front end for the ddthreshold library.
//
//   ddtool generate  --dataset cora --entities 200 --out clean.csv
//                    [--seed 42] [--dirty-out dirty.csv --truth-out t.csv
//                     --corrupt-fraction 0.08 --corrupt-attrs city]
//   ddtool determine --input clean.csv --lhs author,title --rhs venue,year
//                    [--dmax 10] [--max-pairs 100000] [--top 5]
//                    [--algo DAP+PAP|DA+PAP|DA+PA] [--order top|mid]
//                    [--metric attr=levenshtein ...] [--provider scan|grid]
//                    [--approx] [--sample_target 100000] [--epsilon 0.01]
//                    [--seed 7] [--no_blocking]
//                    (sampled + LSH-blocked determination, src/approx:
//                     counts become estimates with Wilson error bounds,
//                     refined until the top-l ranking is stable;
//                     incompatible with --max-pairs/--save-matching/
//                     --load-matching)
//                    [--collapse] [--json]
//                    [--trace_json report.json] [--print_stats]
//                    (trace_json writes the span-tree + metrics run
//                     report; print_stats summarizes search cost —
//                     pruning rate, candidates evaluated, rows scanned)
//                    [--save-matching m.ddmr | --load-matching m.ddmr]
//                    (persist / reuse the pairwise matching relation,
//                     the expensive step, across invocations)
//   ddtool explain   same matching/rule/search flags as determine
//                    (--approx, --save-matching and --load-matching
//                    included), but runs with the EXPLAIN decision
//                    recorder enabled and renders the audit: pruning
//                    waterfall, winner-vs-runner-up diff, per-candidate
//                    events
//                    [--explain_sample K] keep every K-th event
//                     (winner / bound-advancing / skyline events are
//                     always kept; waterfall totals stay exact)
//                    [--ring_capacity N] event ring size
//                     (1 .. 2^24)
//                    [--audit_json audit.json] write the JSON audit doc
//                    [--landscape surface.csv|.jsonl] utility landscape
//                     (ϕ coordinates -> D,C,Q,CQ,Ū) for plotting
//                    [--json] print the audit document on stdout
//   ddtool detect    --input dirty.csv --lhs a,b --rhs c --pattern "4,2->3"
//                    [--dmax 10] [--metric ...] [--out pairs.csv]
//                    [--trace_json report.json]
//
// DD_LOG_LEVEL=info|warn|error|off raises/lowers library logging on
// stderr (default warn). --threads N (any subcommand; DD_THREADS=N
// equivalently) sets the worker-pool concurrency for the matching
// build and DA's LHS sweep (DAP searches serially) — results are
// bit-identical at any thread count, N=1 forces the sequential paths.
// --simd auto|avx2|scalar (any subcommand; DD_SIMD equivalently)
// selects the counting-kernel dispatch — bit-identical either way.
//   ddtool discover  --input clean.csv [--max-lhs 2] [--top 10]
//                    [--dmax 10] [--max-pairs 50000]
//                    [--approx] [--sample_target 100000] [--seed 7]
//                    [--no_blocking]  (one shared stratified sample
//                     serves every candidate rule; utilities print
//                     with their error bounds)
//   ddtool append    --rows new.csv --lhs a,b --rhs c [--input base.csv]
//                    [--batch 16] [--retire 0] [--drift 0.5]
//                    [--dmax 10] [--metric ...] [--algo ...] [--json]
//                    [--trace_json report.json]
//                    (feeds base.csv, then new.csv in --batch-row
//                     batches, through the incremental maintenance
//                     engine; --retire k deletes the k oldest live rows
//                     per batch; --drift sets the re-determination
//                     drift bound as a fraction of the published
//                     pattern's utility lead, negative = re-determine
//                     every batch; prints the final threshold)
//   ddtool watch     same flags as append, but streams one change-feed
//                    line per batch (drift, bound, re-determined or
//                    kept, published pattern) instead of only the
//                    final state; feed JSON lines carry a per-run
//                    run_id and a monotonically increasing seq
//   ddtool serve     long-running daemon: loads --input for the base
//                    instance and schema, then reads headerless CSV
//                    rows from stdin, applying them in --batch-row
//                    chunks until EOF; same feed lines as watch
//   ddtool prof      offline consumer of .folded CPU profiles (from
//                    --profile):
//                    ddtool prof a.folded [b.folded ...] [--top N]
//                      [--json] [--merge out.folded]   hot-function
//                      table (or JSON summary) of the merged inputs
//                    ddtool prof --diff before.folded after.folded
//                      [--top N]   per-function self-sample deltas
//
// Run telemetry (every subcommand):
//   --run_id ID          correlation id stamped on feed lines and the
//                        --trace_json run report
//                        (default: derived from clock and pid)
//   --trace_json f.json  also turns on the worker-pool stats collector,
//                        which fills the report's "parallel" section
//                        (per-phase, per-worker chunks and busy/wait)
//   --profile            run the subcommand under the sampling CPU
//                        profiler (src/obs/prof): per-thread SIGPROF
//                        timers, stacks tagged with the active trace
//                        span and pool phase. Writes <out>.folded
//                        (flamegraph.pl-ready collapsed stacks) and
//                        <out>.json (summary); <out> defaults to
//                        ddtool.<command>.prof, override with
//                        --profile_out PREFIX. The run report gains a
//                        "profile" section.
//   --profile_hz N       samples per second of each thread's CPU time
//                        (default 99; implies --profile)
//
// Integer flags are range-checked, and a value outside the range (or
// past int64) is refused with exit status 1 and an error naming the
// flag and its range: --dmax 1..255; --max-pairs >= 0 (0 = all pairs);
// --top >= 1 (discover: >= 0, 0 = every rule; prof: >= 1);
// --max-lhs >= 0; --sample_target >= 1; --entities 0..2^32-1;
// --batch >= 1; --retire >= 0; --explain_sample >= 1;
// --ring_capacity 1..2^24; --threads >= 0; --profile_hz 1..10000;
// --seed any int64.
//
// A flag no subcommand reads (a typo, or a flag that was removed) is
// refused with exit status 1.
//
// Exit status 0 on success, 1 on bad usage or data errors.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "approx/refine.h"
#include "common/build_info.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/determiner.h"
#include "core/result_filter.h"
#include "core/result_io.h"
#include "core/simd_count.h"
#include "incr/maintenance.h"
#include "data/corruptor.h"
#include "data/csv.h"
#include "data/generators.h"
#include "detect/violation_detector.h"
#include "discover/rule_explorer.h"
#include "matching/builder.h"
#include "matching/serialization.h"
#include "obs/diag/crash_dump.h"
#include "obs/diag/dump_reader.h"
#include "obs/diag/flight_recorder.h"
#include "obs/explain/audit.h"
#include "obs/explain/recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/pool_stats.h"
#include "obs/prof/folded.h"
#include "obs/prof/profiler.h"
#include "obs/report.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace {

// Every flag some subcommand reads. main() refuses any other.
const std::vector<std::string> kKnownFlags = {
    "algo", "approx", "audit_json", "batch", "collapse", "corrupt-attrs",
    "corrupt-fraction", "dataset", "diag_dir", "diff", "dirty-out", "dmax",
    "drift", "entities", "epsilon", "explain_sample", "input", "json",
    "landscape", "lhs", "load-matching", "max-lhs", "max-pairs", "merge",
    "metric", "no_blocking", "no_symbolize", "order", "out", "pattern",
    "print_stats", "profile", "profile_hz", "profile_out", "provider",
    "retire", "rhs", "ring_capacity", "rows", "run_id", "sample_target",
    "save-matching", "seed", "simd", "threads", "top", "trace_json",
    "truth-out",
};

// Rows as MaintenanceEngine::ApplyBatch takes them.
using Rows = std::vector<std::vector<std::string>>;

int Usage() {
  std::fprintf(
      stderr,
      "usage: ddtool "
      "<generate|determine|explain|detect|discover|append|watch|serve|diag|"
      "prof> [flags]\n"
      "       ddtool --version\n"
      "see the header of tools/ddtool.cc or README.md for flags\n");
  return 1;
}

int Fail(const dd::Status& status) {
  std::fprintf(stderr, "ddtool: %s\n", status.ToString().c_str());
  return 1;
}

// Applies repeated --metric attr=name flags onto matching options.
dd::Status ApplyMetricFlags(const dd::ArgParser& args,
                            dd::MatchingOptions* options) {
  for (const auto& spec : args.GetAll("metric")) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return dd::Status::InvalidArgument("--metric expects attr=name, got '" +
                                         spec + "'");
    }
    options->metric_overrides[spec.substr(0, eq)] = spec.substr(eq + 1);
  }
  return dd::Status::Ok();
}

dd::Result<dd::MatchingOptions> MatchingFromFlags(const dd::ArgParser& args) {
  dd::MatchingOptions options;
  // The matching relation packs levels into a byte.
  DD_ASSIGN_OR_RETURN(std::int64_t dmax, args.GetInt("dmax", 10, 1, 255));
  DD_ASSIGN_OR_RETURN(std::int64_t max_pairs,
                      args.GetInt("max-pairs", 0, 0, INT64_MAX));
  DD_ASSIGN_OR_RETURN(std::int64_t seed,
                      args.GetInt("seed", 1, INT64_MIN, INT64_MAX));
  options.dmax = static_cast<int>(dmax);
  options.max_pairs = static_cast<std::size_t>(max_pairs);
  options.seed = static_cast<std::uint64_t>(seed);
  DD_RETURN_IF_ERROR(ApplyMetricFlags(args, &options));
  return options;
}

// Shared by determine / append / watch: --top, --algo, --order,
// --provider.
dd::Result<dd::DetermineOptions> DetermineFromFlags(const dd::ArgParser& args) {
  dd::DetermineOptions options;
  DD_ASSIGN_OR_RETURN(std::int64_t top, args.GetInt("top", 5, 1, INT64_MAX));
  options.top_l = static_cast<std::size_t>(top);
  options.provider = args.GetString("provider", "scan");
  const std::string algo = args.GetString("algo", "DAP+PAP");
  if (algo == "DA+PA") {
    options.lhs_algorithm = dd::LhsAlgorithm::kDa;
    options.rhs_algorithm = dd::RhsAlgorithm::kPa;
  } else if (algo == "DA+PAP") {
    options.lhs_algorithm = dd::LhsAlgorithm::kDa;
    options.rhs_algorithm = dd::RhsAlgorithm::kPap;
    options.order = dd::ProcessingOrder::kMidFirst;
  } else if (algo == "DAP+PAP") {
    options.lhs_algorithm = dd::LhsAlgorithm::kDap;
    options.rhs_algorithm = dd::RhsAlgorithm::kPap;
  } else {
    return dd::Status::InvalidArgument("--algo must be DA+PA|DA+PAP|DAP+PAP");
  }
  if (args.GetString("order", "top") == "mid") {
    options.order = dd::ProcessingOrder::kMidFirst;
  }
  return options;
}

// --approx family shared by determine / discover. The sample seed rides
// on --seed (also the matching-build sampling seed; approx builds
// reject --max-pairs so the two uses never collide).
dd::Result<dd::approx::ApproxOptions> ApproxFromFlags(
    const dd::ArgParser& args) {
  dd::approx::ApproxOptions options;
  DD_ASSIGN_OR_RETURN(std::int64_t target,
                      args.GetInt("sample_target", 100000, 1, INT64_MAX));
  options.sample_target = static_cast<std::uint64_t>(target);
  DD_ASSIGN_OR_RETURN(options.epsilon, args.GetDouble("epsilon", 0.01));
  if (options.epsilon < 0) {
    return dd::Status::InvalidArgument("--epsilon must be >= 0");
  }
  DD_ASSIGN_OR_RETURN(std::int64_t seed,
                      args.GetInt("seed", 7, INT64_MIN, INT64_MAX));
  options.seed = static_cast<std::uint64_t>(seed);
  options.blocking = !args.Has("no_blocking");
  return options;
}

// The rule X -> Y named by --lhs and --rhs.
dd::Result<dd::RuleSpec> RuleFromFlags(const dd::ArgParser& args) {
  dd::RuleSpec rule{dd::SplitFlagList(args.GetString("lhs")),
                    dd::SplitFlagList(args.GetString("rhs"))};
  if (rule.lhs.empty() || rule.rhs.empty()) {
    return dd::Status::InvalidArgument("--lhs and --rhs required");
  }
  return rule;
}

// Writes the global span-tree + metrics run report when --trace_json
// was given, stamped with the run's correlation id. Returns non-OK on
// I/O failure.
dd::Status MaybeWriteTraceReport(const dd::ArgParser& args,
                                 const std::string& run_name,
                                 const std::string& run_id) {
  const std::string path = args.GetString("trace_json");
  if (path.empty()) return dd::Status::Ok();
  dd::obs::RunReport report = dd::obs::CaptureRunReport(run_name);
  report.run_id = run_id;
  DD_RETURN_IF_ERROR(dd::obs::WriteRunReportJson(report, path));
  std::fprintf(stderr, "wrote trace report to %s\n", path.c_str());
  return dd::Status::Ok();
}

// Correlation id for feed lines and the run report: --run_id, or else
// wall clock microseconds + pid, hex.
std::string RunId(const dd::ArgParser& args) {
  const std::string given = args.GetString("run_id");
  if (!given.empty()) return given;
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  return dd::StrFormat("%011llx-%04x",
                       static_cast<unsigned long long>(us) & 0xfffffffffffULL,
                       static_cast<unsigned>(::getpid()) & 0xffff);
}

// The --print_stats summary: search cost in the units of the paper's
// evaluation (pruning rate of Figure 4, candidates evaluated, rows
// scanned by the provider).
void PrintSearchStats(const dd::DetermineResult& result) {
  const dd::DaStats& s = result.stats;
  const dd::ProviderStats& p = result.provider_stats;
  std::fprintf(stderr, "search stats:\n");
  std::fprintf(stderr, "  lhs candidates evaluated   %zu of %zu\n", s.lhs_evaluated,
              s.lhs_total);
  std::fprintf(stderr, "  lhs candidates skipped     %zu\n", s.lhs_bounded);
  std::fprintf(stderr, "  rhs lattice size           %zu\n", s.rhs.lattice_size);
  std::fprintf(stderr, "  rhs candidates evaluated   %zu\n", s.rhs.evaluated);
  std::fprintf(stderr, "  rhs candidates pruned      %zu\n", s.rhs.pruned);
  std::fprintf(stderr, "  pruning rate               %.4f\n", s.PruningRate());
  std::fprintf(stderr, "  provider lhs evaluations   %llu\n",
              static_cast<unsigned long long>(p.lhs_evaluations));
  std::fprintf(stderr, "  provider xy evaluations    %llu\n",
              static_cast<unsigned long long>(p.xy_evaluations));
  std::fprintf(stderr, "  provider rows scanned      %llu\n",
              static_cast<unsigned long long>(p.rows_scanned));
}

// The exact result table shared by determine and explain.
void PrintPatternTable(const std::vector<dd::DeterminedPattern>& patterns) {
  std::printf("%-30s %8s %8s %8s %6s %9s\n", "pattern", "D", "C", "S", "Q",
              "utility");
  for (const auto& p : patterns) {
    std::printf("%-30s %8.4f %8.4f %8.4f %6.2f %9.4f\n",
                dd::PatternToString(p.pattern).c_str(), p.measures.d,
                p.measures.confidence, p.measures.support, p.measures.quality,
                p.utility);
  }
}

// Parses "4,2->3,1" into a Pattern with the given arities.
dd::Result<dd::Pattern> ParsePattern(const std::string& text,
                                     std::size_t lhs_size,
                                     std::size_t rhs_size) {
  const std::size_t arrow = text.find("->");
  if (arrow == std::string::npos) {
    return dd::Status::InvalidArgument(
        "--pattern expects 'x1,x2->y1,y2', got '" + text + "'");
  }
  auto parse_side = [](const std::string& side,
                       std::size_t expected) -> dd::Result<dd::Levels> {
    dd::Levels levels;
    for (const auto& token : dd::SplitFlagList(side)) {
      double value = 0.0;
      if (!dd::ParseDouble(token, &value) || value < 0) {
        return dd::Status::InvalidArgument("bad threshold '" + token + "'");
      }
      levels.push_back(static_cast<int>(value));
    }
    if (levels.size() != expected) {
      return dd::Status::InvalidArgument(dd::StrFormat(
          "pattern side has %zu thresholds, rule needs %zu", levels.size(),
          expected));
    }
    return levels;
  };
  dd::Pattern pattern;
  DD_ASSIGN_OR_RETURN(pattern.lhs, parse_side(text.substr(0, arrow), lhs_size));
  DD_ASSIGN_OR_RETURN(pattern.rhs, parse_side(text.substr(arrow + 2), rhs_size));
  return pattern;
}

// Writes (row_i, row_j) tuple pairs as a two-column CSV: generate's
// --truth-out and detect's --out.
dd::Status WritePairsCsv(const dd::PairList& pairs, const std::string& path) {
  dd::Relation table(dd::Schema({{"row_i", dd::AttributeType::kNumeric},
                                 {"row_j", dd::AttributeType::kNumeric}}));
  for (const auto& [i, j] : pairs) {
    DD_RETURN_IF_ERROR(
        table.AddRow({dd::StrFormat("%u", i), dd::StrFormat("%u", j)}));
  }
  return dd::WriteCsvFile(table, path);
}

dd::Status RunGenerate(const dd::ArgParser& args) {
  const std::string dataset = args.GetString("dataset", "restaurant");
  const std::string out = args.GetString("out");
  if (out.empty()) return dd::Status::InvalidArgument("--out required");
  // Each entity yields at least one row, and row ids are 32-bit.
  DD_ASSIGN_OR_RETURN(const std::int64_t entities,
                      args.GetInt("entities", 200, 0, UINT32_MAX));
  DD_ASSIGN_OR_RETURN(const std::int64_t seed,
                      args.GetInt("seed", 42, INT64_MIN, INT64_MAX));

  dd::GeneratedData data;
  if (dataset == "hotel") {
    data = dd::HotelExample();
  } else if (dataset == "cora") {
    dd::CoraOptions options;
    options.num_entities = static_cast<std::size_t>(entities);
    options.seed = static_cast<std::uint64_t>(seed);
    data = dd::GenerateCora(options);
  } else if (dataset == "restaurant") {
    dd::RestaurantOptions options;
    options.num_entities = static_cast<std::size_t>(entities);
    options.seed = static_cast<std::uint64_t>(seed);
    data = dd::GenerateRestaurant(options);
  } else if (dataset == "citeseer") {
    dd::CiteseerOptions options;
    options.num_entities = static_cast<std::size_t>(entities);
    options.seed = static_cast<std::uint64_t>(seed);
    data = dd::GenerateCiteseer(options);
  } else {
    return dd::Status::InvalidArgument(
        "--dataset must be hotel|cora|restaurant|citeseer");
  }

  DD_RETURN_IF_ERROR(dd::WriteCsvFile(data.relation, out));
  std::printf("wrote %zu rows to %s\n", data.relation.num_rows(), out.c_str());

  const std::string dirty_out = args.GetString("dirty-out");
  if (dirty_out.empty()) return dd::Status::Ok();
  dd::CorruptorOptions coptions;
  DD_ASSIGN_OR_RETURN(coptions.corrupt_fraction,
                      args.GetDouble("corrupt-fraction", 0.05));
  coptions.seed = static_cast<std::uint64_t>(seed) + 1;
  std::vector<std::string> attrs =
      dd::SplitFlagList(args.GetString("corrupt-attrs"));
  if (attrs.empty()) {
    return dd::Status::InvalidArgument(
        "--dirty-out requires --corrupt-attrs a,b");
  }
  DD_ASSIGN_OR_RETURN(const dd::CorruptionResult corrupted,
                      dd::InjectViolations(data, attrs, coptions));
  DD_RETURN_IF_ERROR(dd::WriteCsvFile(corrupted.dirty, dirty_out));
  std::printf("wrote dirty copy (%zu corrupted rows) to %s\n",
              corrupted.corrupted_rows.size(), dirty_out.c_str());

  const std::string truth_out = args.GetString("truth-out");
  if (truth_out.empty()) return dd::Status::Ok();
  DD_RETURN_IF_ERROR(WritePairsCsv(corrupted.truth_pairs, truth_out));
  std::printf("wrote %zu truth pairs to %s\n", corrupted.truth_pairs.size(),
              truth_out.c_str());
  return dd::Status::Ok();
}

// The matching relation, either deserialized from --load-matching or
// built from --input.
dd::Result<dd::MatchingRelation> LoadMatching(const dd::ArgParser& args,
                                              const dd::RuleSpec& rule) {
  dd::obs::TraceSpan span("load_input");
  const std::string load_matching = args.GetString("load-matching");
  if (!load_matching.empty()) return dd::ReadMatchingFile(load_matching);
  const std::string input = args.GetString("input");
  if (input.empty()) {
    return dd::Status::InvalidArgument(
        "--input (CSV) or --load-matching (.ddmr) required");
  }
  DD_ASSIGN_OR_RETURN(dd::Relation relation, dd::ReadCsvFile(input));
  DD_ASSIGN_OR_RETURN(dd::MatchingOptions moptions, MatchingFromFlags(args));
  return dd::BuildMatchingRelation(relation, rule.AllAttributes(), moptions);
}

// One determine / explain run and the facts their headers print.
struct Determination {
  dd::RuleSpec rule;
  dd::DetermineOptions options;
  bool approx = false;
  // Exact runs: the matching relation's size and level cap.
  std::size_t tuples = 0;
  int dmax = 0;
  // --approx runs: the CSV's row count.
  std::size_t rows = 0;
  // The result is `outcome.determine`. The sampling fields (rounds,
  // fraction, intervals, exhaustive) are filled by --approx runs only.
  dd::approx::ApproxDetermineResult outcome;
};

// The determination step shared by determine and explain. Exact runs
// search the matching relation (built from --input or read from
// --load-matching, and written to --save-matching when given). --approx
// runs refine over a stratified sample of the --input CSV and never
// materialize the relation. With --diag_dir, the crash dump's metrics
// are re-rendered once the determination is done.
dd::Result<Determination> Determine(const dd::ArgParser& args) {
  Determination run;
  DD_ASSIGN_OR_RETURN(run.rule, RuleFromFlags(args));
  DD_ASSIGN_OR_RETURN(run.options, DetermineFromFlags(args));
  run.approx = args.Has("approx");
  if (!run.approx) {
    DD_ASSIGN_OR_RETURN(dd::MatchingRelation matching,
                        LoadMatching(args, run.rule));
    run.tuples = matching.num_tuples();
    run.dmax = matching.dmax();
    const std::string save_matching = args.GetString("save-matching");
    if (!save_matching.empty()) {
      DD_RETURN_IF_ERROR(dd::WriteMatchingFile(matching, save_matching));
    }
    DD_ASSIGN_OR_RETURN(run.outcome.determine,
                        dd::DetermineThresholds(matching, run.rule,
                                                run.options));
    dd::obs::diag::RefreshPreamble();
    return run;
  }
  if (args.Has("save-matching") || args.Has("load-matching")) {
    return dd::Status::InvalidArgument(
        "--approx never materializes the matching relation; "
        "--save-matching/--load-matching require an exact run");
  }
  const std::string input = args.GetString("input");
  if (input.empty()) return dd::Status::InvalidArgument("--input (CSV) required");
  DD_ASSIGN_OR_RETURN(dd::Relation relation, dd::ReadCsvFile(input));
  run.rows = relation.num_rows();
  DD_ASSIGN_OR_RETURN(dd::MatchingOptions moptions, MatchingFromFlags(args));
  dd::approx::ApproxDetermineOptions options;
  options.determine = run.options;
  DD_ASSIGN_OR_RETURN(options.approx, ApproxFromFlags(args));
  DD_ASSIGN_OR_RETURN(run.outcome, dd::approx::ApproxDetermineThresholds(
                                       relation, run.rule, moptions, options));
  dd::obs::diag::RefreshPreamble();
  return run;
}

dd::Status RunDetermine(const dd::ArgParser& args) {
  DD_ASSIGN_OR_RETURN(Determination run, Determine(args));
  const dd::approx::ApproxDetermineResult& outcome = run.outcome;
  dd::DetermineResult& result = run.outcome.determine;
  if (!run.approx && args.Has("collapse")) {
    result.patterns = dd::CollapseEquivalent(std::move(result.patterns));
  }
  std::string run_name =
      run.approx ? "ddtool determine --approx " : "ddtool determine ";
  run_name += args.GetString("algo", "DAP+PAP");
  DD_RETURN_IF_ERROR(MaybeWriteTraceReport(args, run_name, RunId(args)));

  const bool json = args.Has("json");
  const std::string save_matching = args.GetString("save-matching");
  // Keep stdout pure JSON under --json (pipe-friendly).
  if (!run.approx && !json) {
    std::printf("matching relation: %zu tuples (dmax=%d)\n", run.tuples,
                run.dmax);
  }
  if (!save_matching.empty()) {
    std::fprintf(json ? stderr : stdout, "saved matching relation to %s\n",
                 save_matching.c_str());
  }
  if (json) {
    const std::string doc =
        run.approx ? dd::approx::ApproxResultToJson(outcome, run.rule)
                   : dd::DetermineResultToJson(result, run.rule);
    std::printf("%s\n", doc.c_str());
  } else if (run.approx) {
    std::printf(
        "approx determination: %zu round(s), %s, sample fraction %.4f "
        "(%llu near + %llu sampled of %llu pairs)%s\n",
        outcome.rounds, outcome.converged ? "converged" : "round cap hit",
        outcome.sample_fraction,
        static_cast<unsigned long long>(outcome.near_pairs),
        static_cast<unsigned long long>(outcome.sampled_pairs),
        static_cast<unsigned long long>(outcome.total_pairs),
        outcome.exhaustive ? " [exhaustive = exact]" : " [estimated]");
    std::printf("determined %zu pattern(s) in %.3fs (prior CQ %.3f)\n",
                result.patterns.size(), result.elapsed_seconds,
                result.prior_mean_cq);
    std::printf("%-30s %8s %8s %6s %9s %21s\n", "pattern", "D", "C", "Q",
                "utility", "utility 95% bounds");
    for (std::size_t i = 0; i < result.patterns.size(); ++i) {
      const auto& p = result.patterns[i];
      const auto& iv = outcome.intervals[i];
      std::printf("%-30s %8.4f %8.4f %6.2f %9.4f   [%8.4f, %8.4f]\n",
                  dd::PatternToString(p.pattern).c_str(), p.measures.d,
                  p.measures.confidence, p.measures.quality, p.utility,
                  iv.utility.lo, iv.utility.hi);
    }
  } else {
    std::printf("determined %zu pattern(s) in %.3fs (pruning rate %.3f, prior "
                "CQ %.3f)\n",
                result.patterns.size(), result.elapsed_seconds,
                result.stats.PruningRate(), result.prior_mean_cq);
    PrintPatternTable(result.patterns);
  }
  if (args.Has("print_stats")) PrintSearchStats(result);
  return dd::Status::Ok();
}

// Writes `content` to `path` (overwriting), fopen-based like the obs
// report writers.
dd::Status WriteTextFile(const std::string& content, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return dd::Status::Internal("cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int closed = std::fclose(f);
  if (written != content.size() || closed != 0) {
    return dd::Status::Internal("short write to " + path);
  }
  return dd::Status::Ok();
}

// Reads a whole file (`ddtool diag` and `ddtool prof` inputs).
dd::Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return dd::Status::IoError("cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) text.append(buf, n);
  std::fclose(file);
  return text;
}

// `ddtool explain`: a determination run with the EXPLAIN recorder on,
// followed by the audit consumers — JSON audit document, pruning
// waterfall, winner-vs-runner-up diff, utility-landscape export. Under
// --approx the snapshot carries the "estimated" marker and the
// waterfall totals come from estimated counts.
dd::Status RunExplain(const dd::ArgParser& args) {
  dd::obs::ExplainConfig config;
  DD_ASSIGN_OR_RETURN(config.sample_every,
                      args.GetInt("explain_sample", 1, 1, INT64_MAX));
  DD_ASSIGN_OR_RETURN(
      config.ring_capacity,
      args.GetInt("ring_capacity", 1 << 16, 1,
                  static_cast<std::int64_t>(dd::obs::kMaxRingCapacity)));

  dd::obs::ExplainRecorder& recorder = dd::obs::ExplainRecorder::Global();
  recorder.Enable(config);
  dd::Result<Determination> determined = Determine(args);
  const dd::obs::ExplainSnapshot snapshot = recorder.Snapshot();
  recorder.Disable();
  DD_ASSIGN_OR_RETURN(const Determination run, std::move(determined));
  const dd::DetermineResult& result = run.outcome.determine;
  const dd::UtilityOptions& utility = run.options.utility;

  const std::string audit =
      dd::ExplainAuditToJson(snapshot, result, run.rule, utility);
  const std::string audit_path = args.GetString("audit_json");
  if (!audit_path.empty()) {
    DD_RETURN_IF_ERROR(WriteTextFile(audit, audit_path));
    std::fprintf(stderr, "wrote audit document to %s\n", audit_path.c_str());
  }
  const std::string landscape_path = args.GetString("landscape");
  if (!landscape_path.empty()) {
    const bool jsonl = landscape_path.size() >= 6 &&
                       landscape_path.rfind(".jsonl") ==
                           landscape_path.size() - 6;
    const std::string landscape =
        jsonl ? dd::LandscapeToJsonl(snapshot, run.rule, utility,
                                     result.prior_mean_cq)
              : dd::LandscapeToCsv(snapshot, run.rule, utility,
                                   result.prior_mean_cq);
    DD_RETURN_IF_ERROR(WriteTextFile(landscape, landscape_path));
    std::fprintf(stderr, "wrote utility landscape to %s\n",
                 landscape_path.c_str());
  }

  DD_RETURN_IF_ERROR(MaybeWriteTraceReport(
      args, "ddtool explain " + args.GetString("algo", "DAP+PAP"),
      RunId(args)));

  if (args.Has("json")) {
    std::printf("%s", audit.c_str());
    return dd::Status::Ok();
  }
  if (run.approx) {
    std::printf("approx run over %zu rows%s\n", run.rows,
                snapshot.estimated ? " [estimated counts]" : "");
  } else {
    std::printf("matching relation: %zu tuples (dmax=%d)\n", run.tuples,
                run.dmax);
  }
  std::printf("%s: %" PRIu64 " event(s) recorded, %" PRIu64
              " sampled out, %" PRIu64 " dropped (sample_every=%zu)\n",
              snapshot.run_label.c_str(), snapshot.recorded,
              snapshot.sampled_out, snapshot.dropped,
              snapshot.config.sample_every);
  std::printf("\n%s", dd::PruningWaterfallToText(snapshot, result).c_str());
  std::printf("\n%s", dd::WhyChosenToText(result).c_str());
  std::printf("\n");
  PrintPatternTable(result.patterns);
  if (args.Has("print_stats")) PrintSearchStats(result);
  return dd::Status::Ok();
}

dd::Status RunDetect(const dd::ArgParser& args) {
  const std::string input = args.GetString("input");
  if (input.empty()) return dd::Status::InvalidArgument("--input required");
  DD_ASSIGN_OR_RETURN(const dd::RuleSpec rule, RuleFromFlags(args));
  DD_ASSIGN_OR_RETURN(const dd::Relation relation, dd::ReadCsvFile(input));
  DD_ASSIGN_OR_RETURN(const dd::MatchingOptions moptions,
                      MatchingFromFlags(args));
  DD_ASSIGN_OR_RETURN(const dd::Pattern pattern,
                      ParsePattern(args.GetString("pattern"), rule.lhs.size(),
                                   rule.rhs.size()));

  DD_ASSIGN_OR_RETURN(const dd::PairList found,
                      dd::DetectViolations(relation, rule, pattern, moptions));
  DD_RETURN_IF_ERROR(MaybeWriteTraceReport(args, "ddtool detect", RunId(args)));
  std::printf("%zu violating pair(s)\n", found.size());

  const std::string out = args.GetString("out");
  if (!out.empty()) {
    DD_RETURN_IF_ERROR(WritePairsCsv(found, out));
    std::printf("wrote pairs to %s\n", out.c_str());
  } else {
    for (std::size_t k = 0; k < found.size() && k < 20; ++k) {
      std::printf("  (%u, %u)\n", found[k].first, found[k].second);
    }
    if (found.size() > 20) std::printf("  ... (%zu more)\n", found.size() - 20);
  }
  return dd::Status::Ok();
}

dd::Status RunDiscover(const dd::ArgParser& args) {
  const std::string input = args.GetString("input");
  if (input.empty()) return dd::Status::InvalidArgument("--input required");
  DD_ASSIGN_OR_RETURN(const dd::Relation relation, dd::ReadCsvFile(input));

  dd::ExploreOptions options;
  DD_ASSIGN_OR_RETURN(options.matching, MatchingFromFlags(args));
  if (args.Has("approx")) {
    // The stratified sample owns the pair budget (--sample_target);
    // --max-pairs would make the build reject below.
    options.approx = true;
    DD_ASSIGN_OR_RETURN(options.approx_options, ApproxFromFlags(args));
  } else if (options.matching.max_pairs == 0) {
    options.matching.max_pairs = 50000;
  }
  DD_ASSIGN_OR_RETURN(options.max_lhs_size,
                      args.GetInt("max-lhs", 2, 0, INT64_MAX));
  // 0 keeps every rule.
  DD_ASSIGN_OR_RETURN(options.top_rules, args.GetInt("top", 10, 0, INT64_MAX));

  DD_ASSIGN_OR_RETURN(const std::vector<dd::DiscoveredRule> rules,
                      dd::DiscoverRules(relation, options));
  DD_RETURN_IF_ERROR(
      MaybeWriteTraceReport(args, "ddtool discover", RunId(args)));
  std::printf("%zu rule(s):\n", rules.size());
  for (const auto& r : rules) {
    if (r.estimated) {
      std::printf(
          "  [%s] -> [%s]  pattern %s  C=%.3f Q=%.2f utility~%.4f "
          "[%.4f, %.4f]\n",
          dd::Join(r.rule.lhs, ", ").c_str(),
          dd::Join(r.rule.rhs, ", ").c_str(),
          dd::PatternToString(r.best.pattern).c_str(),
          r.best.measures.confidence, r.best.measures.quality, r.best.utility,
          r.utility.lo, r.utility.hi);
    } else {
      std::printf("  [%s] -> [%s]  pattern %s  C=%.3f Q=%.2f utility=%.4f\n",
                  dd::Join(r.rule.lhs, ", ").c_str(),
                  dd::Join(r.rule.rhs, ", ").c_str(),
                  dd::PatternToString(r.best.pattern).c_str(),
                  r.best.measures.confidence, r.best.measures.quality,
                  r.best.utility);
    }
  }
  return dd::Status::Ok();
}
// Streams one change-feed line per applied batch (watch / serve).
// JSON lines are stamped with the run_id and a monotonically
// increasing seq so they join against the --trace_json run report.
class FeedPrinter {
 public:
  FeedPrinter(bool json, const std::string& run_id)
      : json_(json), run_id_json_(dd::JsonEscape(run_id)) {}

  void Print(const dd::MaintenanceEngine& engine, const dd::BatchOutcome& o,
             std::size_t inserts, std::size_t deletes) {
    ++seq_;
    const dd::DeterminedPattern* pub = engine.published();
    const std::string pattern =
        pub ? dd::PatternToString(pub->pattern) : std::string("none");
    if (json_) {
      std::printf(
          "{\"run_id\":\"%s\",\"seq\":%llu,\"batch\":%llu,\"inserts\":%zu,"
          "\"deletes\":%zu,\"pairs_computed\":%zu,\"rows_removed\":%zu,"
          "\"drift\":%.6g,\"bound\":%.6g,\"redetermined\":%s,"
          "\"published\":\"%s\",\"utility\":%.6g}\n",
          run_id_json_.c_str(), static_cast<unsigned long long>(seq_),
          static_cast<unsigned long long>(o.batch_seq), inserts, deletes,
          o.pairs_computed, o.matching_removed, o.drift, o.bound,
          o.redetermined ? "true" : "false", pattern.c_str(),
          pub ? pub->utility : 0.0);
    } else {
      std::printf(
          "batch %llu: +%zu/-%zu rows, %zu pairs computed, drift %.4g "
          "(bound %.4g) -> %s, published %s (utility %.4f)\n",
          static_cast<unsigned long long>(o.batch_seq), inserts, deletes,
          o.pairs_computed, o.drift, o.bound,
          o.redetermined ? "re-determined" : "kept", pattern.c_str(),
          pub ? pub->utility : 0.0);
    }
    std::fflush(stdout);
  }

 private:
  bool json_;
  std::string run_id_json_;  // JSON-escaped
  std::uint64_t seq_ = 0;
};

// Engine construction shared by append / watch / serve.
dd::Result<dd::MaintenanceEngine> EngineFromFlags(const dd::ArgParser& args,
                                                  const dd::Schema& schema) {
  DD_ASSIGN_OR_RETURN(dd::RuleSpec rule, RuleFromFlags(args));
  dd::MaintenanceOptions options;
  DD_ASSIGN_OR_RETURN(options.incremental.matching, MatchingFromFlags(args));
  DD_ASSIGN_OR_RETURN(options.determine, DetermineFromFlags(args));
  DD_ASSIGN_OR_RETURN(options.drift_fraction, args.GetDouble("drift", 0.5));
  return dd::MaintenanceEngine::Create(schema, std::move(rule), options);
}

// Prints the end-of-run summary shared by append / watch / serve.
void PrintFinalState(const dd::MaintenanceEngine& engine, bool watch,
                     bool json) {
  const dd::DeterminedPattern* pub = engine.published();
  const std::string pattern =
      pub ? dd::PatternToString(pub->pattern) : std::string("none");
  if (json) {
    if (!watch) {
      std::printf(
          "{\"live\":%zu,\"matching\":%zu,\"redeterminations\":%llu,"
          "\"skipped\":%llu,\"updates\":%zu,\"published\":\"%s\","
          "\"utility\":%.6g}\n",
          engine.builder().store().num_live(),
          engine.builder().matching().num_tuples(),
          static_cast<unsigned long long>(engine.redeterminations()),
          static_cast<unsigned long long>(engine.skipped()),
          engine.updates().size(), pattern.c_str(), pub ? pub->utility : 0.0);
    }
    return;  // Watch keeps stdout to feed lines only under --json.
  }
  std::printf(
      "final: %zu live tuples, %zu matching tuples, %llu re-determinations "
      "(%llu skipped), %zu threshold update(s)\n",
      engine.builder().store().num_live(),
      engine.builder().matching().num_tuples(),
      static_cast<unsigned long long>(engine.redeterminations()),
      static_cast<unsigned long long>(engine.skipped()),
      engine.updates().size());
  if (pub != nullptr) {
    std::printf("published %s  D=%.4f C=%.4f S=%.4f Q=%.2f utility=%.4f\n",
                pattern.c_str(), pub->measures.d, pub->measures.confidence,
                pub->measures.support, pub->measures.quality, pub->utility);
  } else {
    std::printf("no threshold published (empty instance)\n");
  }
}

// Rows [begin, end) of `relation`.
Rows RowsOf(const dd::Relation& relation, std::size_t begin, std::size_t end) {
  Rows rows;
  rows.reserve(end - begin);
  for (std::size_t r = begin; r < end; ++r) rows.push_back(relation.row(r));
  return rows;
}

// serve's batch source: headerless CSV rows from stdin, handed to
// `apply` in `batch_rows` chunks until EOF. A malformed row
// (unparseable CSV, wrong column count) must not kill a long-running
// daemon, and must not vanish silently either: log a structured
// warning naming the line, count it, and keep serving.
dd::Status FeedStdin(std::size_t columns, std::size_t batch_rows,
                     const std::function<dd::Status(const Rows&)>& apply) {
  dd::CsvOptions line_options;
  line_options.has_header = false;
  Rows pending;
  std::string line;
  std::uint64_t line_number = 0;
  static dd::obs::Counter& rejected_counter =
      dd::obs::MetricsRegistry::Global().GetCounter("serve.rows_rejected");
  auto reject = [&](const std::string& why) {
    rejected_counter.Increment();
    DD_LOG(WARN) << "serve: rejected stdin line " << line_number << ": "
                 << why;
  };
  // std::getline keeps embedded NUL bytes and also returns a last line
  // that has no trailing newline.
  while (std::getline(std::cin, line)) {
    ++line_number;
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find('\0') != std::string::npos) {
      reject("line contains a NUL byte");
    } else if (!line.empty()) {
      auto row = dd::ParseCsv(line, line_options);
      if (!row.ok()) {
        reject(row.status().ToString());
      } else {
        for (std::size_t r = 0; r < row->num_rows(); ++r) {
          if (row->schema().num_attributes() != columns) {
            reject(dd::StrFormat("row has %zu fields, schema has %zu",
                                 row->schema().num_attributes(), columns));
            continue;
          }
          pending.push_back(row->row(r));
        }
      }
    }
    if (pending.size() >= batch_rows) {
      DD_RETURN_IF_ERROR(apply(pending));
      pending.clear();
    }
  }
  if (!pending.empty()) return apply(pending);
  return dd::Status::Ok();
}

// The feed driver of append (prints the final state), watch (streams
// one change-feed line per batch) and serve (the same feed lines).
// Feeds the base instance (--input) as the first batch, then either
// --rows in --batch-row chunks, where --retire k deletes the k oldest
// live tuples with every chunk to exercise the delete path (append /
// watch), or the rows read from stdin (serve).
dd::Status RunFeed(const dd::ArgParser& args, const std::string& command) {
  const bool serve = command == "serve";
  const bool watch = command != "append";
  if (args.Has("approx")) {
    return dd::Status::InvalidArgument(
        std::string("--approx is not supported for ") +
        (serve ? "serve" : "append/watch") +
        ": incremental maintenance needs the exact matching relation it "
        "maintains (run determine or discover with --approx instead)");
  }
  dd::Relation rows;
  std::size_t retire_rows = 0;
  if (!serve) {
    const std::string rows_path = args.GetString("rows");
    if (rows_path.empty()) {
      return dd::Status::InvalidArgument(
          "--rows (CSV of rows to append) required");
    }
    DD_ASSIGN_OR_RETURN(rows, dd::ReadCsvFile(rows_path));
    DD_ASSIGN_OR_RETURN(retire_rows, args.GetInt("retire", 0, 0, INT64_MAX));
  }
  const std::string input = args.GetString("input");
  if (serve && input.empty()) {
    return dd::Status::InvalidArgument(
        "--input (base CSV; also fixes the schema for stdin rows) required");
  }
  dd::Relation base;
  if (!input.empty()) {
    DD_ASSIGN_OR_RETURN(base, dd::ReadCsvFile(input));
    if (!serve && !(base.schema() == rows.schema())) {
      return dd::Status::InvalidArgument(
          "--input and --rows disagree on schema: " + base.schema().ToString() +
          " vs " + rows.schema().ToString());
    }
  }
  const dd::Schema& schema = serve ? base.schema() : rows.schema();
  DD_ASSIGN_OR_RETURN(const std::size_t batch_rows,
                      args.GetInt("batch", 16, 1, INT64_MAX));
  DD_ASSIGN_OR_RETURN(dd::MaintenanceEngine engine,
                      EngineFromFlags(args, schema));
  const std::string run_id = RunId(args);

  const bool json = args.Has("json");
  FeedPrinter printer(json, run_id);
  auto apply = [&](const Rows& inserts,
                   const std::vector<std::uint32_t>& deletes) -> dd::Status {
    DD_ASSIGN_OR_RETURN(const dd::BatchOutcome outcome,
                        engine.ApplyBatch(inserts, deletes));
    dd::obs::diag::FlightRecord(dd::obs::diag::EventType::kServe,
                                serve ? "serve_batch" : "feed_batch",
                                outcome.batch_seq, inserts.size());
    if (watch) printer.Print(engine, outcome, inserts.size(), deletes.size());
    return dd::Status::Ok();
  };

  if (base.num_rows() > 0) {
    DD_RETURN_IF_ERROR(apply(RowsOf(base, 0, base.num_rows()), {}));
  }
  if (serve) {
    DD_RETURN_IF_ERROR(
        FeedStdin(schema.num_attributes(), batch_rows,
                  [&](const Rows& inserts) { return apply(inserts, {}); }));
  }
  for (std::size_t begin = 0; begin < rows.num_rows(); begin += batch_rows) {
    std::vector<std::uint32_t> deletes;
    if (retire_rows > 0) {
      deletes = engine.builder().store().LiveIds();
      deletes.resize(std::min(retire_rows, deletes.size()));
    }
    const std::size_t end = std::min(begin + batch_rows, rows.num_rows());
    DD_RETURN_IF_ERROR(apply(RowsOf(rows, begin, end), deletes));
  }

  DD_RETURN_IF_ERROR(MaybeWriteTraceReport(args, "ddtool " + command, run_id));
  PrintFinalState(engine, watch, json);
  return dd::Status::Ok();
}

// Offline reader for .dddump crash dumps (an older dump's
// `--- heartbeats` section is skipped). Parses, symbolizes against the
// modules loaded in this process, and pretty-prints. Succeeds only when
// the dump is complete and carries at least one backtrace frame — the
// contract the crash-injection smoke test asserts.
dd::Status RunDiag(const dd::ArgParser& args) {
  std::string path = args.GetString("input");
  if (path.empty() && !args.positional().empty()) {
    path = args.positional().front();
  }
  if (path.empty()) {
    return dd::Status::InvalidArgument(
        "usage: ddtool diag <dump.dddump> [--json] [--no_symbolize]");
  }
  DD_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));

  dd::obs::diag::DiagDump dump;
  std::string error;
  if (!dd::obs::diag::ParseDiagDump(text, &dump, &error)) {
    return dd::Status::InvalidArgument(path + ": " + error);
  }
  if (!args.Has("no_symbolize")) dd::obs::diag::SymbolizeDump(&dump);

  if (args.Has("json")) {
    std::printf("%s\n", dd::obs::diag::DiagDumpToJson(dump).c_str());
  } else {
    std::fputs(dd::obs::diag::DiagDumpToText(dump).c_str(), stdout);
  }
  // Machine-greppable summary on stderr in both modes, so scripts can
  // assert on it without parsing the full report.
  std::fprintf(stderr, "backtrace frames: %zu\n", dump.TotalFrames());
  std::fprintf(stderr, "flight recorder events: %zu\n",
               dump.flight_events.size());
  if (!dump.complete) {
    return dd::Status::InvalidArgument(path +
                                       ": dump is truncated (no --- end)");
  }
  if (dump.TotalFrames() == 0) {
    return dd::Status::InvalidArgument(path + ": dump has no backtrace frames");
  }
  return dd::Status::Ok();
}

dd::Result<dd::obs::prof::FoldedProfile> LoadFolded(const std::string& path) {
  DD_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  dd::obs::prof::FoldedProfile folded;
  dd::Status parsed = dd::obs::prof::ParseFolded(text, &folded);
  if (!parsed.ok()) {
    return dd::Status(parsed.code(), path + ": " + parsed.message());
  }
  return folded;
}

// `ddtool prof`: offline consumer of folded profiles — render the
// hot-function table (or JSON summary) of one or more merged inputs,
// persist the merge, or diff two captures.
dd::Status RunProf(const dd::ArgParser& args) {
  DD_ASSIGN_OR_RETURN(const std::size_t top_n,
                      args.GetInt("top", 20, 1, INT64_MAX));

  if (args.Has("diff")) {
    // --diff swallows the "before" file as its value; "after" is the
    // one remaining positional.
    const std::string before_path = args.GetString("diff");
    if (before_path.empty() || args.positional().size() != 1) {
      return dd::Status::InvalidArgument(
          "usage: ddtool prof --diff before.folded after.folded [--top N]");
    }
    DD_ASSIGN_OR_RETURN(const dd::obs::prof::FoldedProfile before,
                        LoadFolded(before_path));
    DD_ASSIGN_OR_RETURN(const dd::obs::prof::FoldedProfile after,
                        LoadFolded(args.positional().front()));
    std::fputs(dd::obs::prof::DiffToText(before, after, top_n).c_str(),
               stdout);
    return dd::Status::Ok();
  }

  if (args.positional().empty()) {
    return dd::Status::InvalidArgument(
        "usage: ddtool prof <a.folded> [b.folded ...] [--top N] [--json] "
        "[--merge out.folded]  |  ddtool prof --diff A B");
  }
  std::vector<dd::obs::prof::FoldedProfile> inputs;
  for (const std::string& path : args.positional()) {
    DD_ASSIGN_OR_RETURN(dd::obs::prof::FoldedProfile folded, LoadFolded(path));
    inputs.push_back(std::move(folded));
  }
  const dd::obs::prof::FoldedProfile merged =
      dd::obs::prof::MergeFolded(inputs);
  const std::string merge_out = args.GetString("merge");
  if (!merge_out.empty()) {
    DD_RETURN_IF_ERROR(
        WriteTextFile(dd::obs::prof::FoldedToString(merged), merge_out));
    std::fprintf(stderr, "ddtool prof: merged %zu profiles -> %s\n",
                 inputs.size(), merge_out.c_str());
  }
  if (args.Has("json")) {
    std::printf("%s\n",
                dd::obs::prof::FoldedSummaryJson(merged, top_n).c_str());
  } else {
    std::fputs(dd::obs::prof::TopTableToText(merged, top_n).c_str(), stdout);
  }
  return dd::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::fputs(dd::BuildInfoSummary().c_str(), stdout);
    return 0;
  }
  dd::ArgParser args(argc, argv, 2);
  // ArgParser accepts any flag; a flag no subcommand reads (a typo, or
  // one that was removed) fails the run instead of being ignored.
  const std::vector<std::string> unknown = args.UnknownFlags(kKnownFlags);
  if (!unknown.empty()) {
    std::string names;
    for (const std::string& name : unknown) {
      if (!names.empty()) names += ", ";
      names += "--" + name;
    }
    return Fail(dd::Status::InvalidArgument("unknown flag " + names));
  }
  // --threads applies to every subcommand: it sets the process-wide
  // DefaultThreads() that the matching build and DA's LHS sweep
  // inherit (0 restores the DD_THREADS/hardware default). Results are
  // bit-identical at any value.
  if (args.Has("threads")) {
    auto threads = args.GetInt("threads", 0, 0, INT64_MAX);
    if (!threads.ok()) return Fail(threads.status());
    dd::SetDefaultThreads(static_cast<std::size_t>(*threads));
  }
  // --simd applies to every subcommand: it picks the counting-kernel
  // dispatch (core/simd_count.h), overriding the DD_SIMD environment
  // variable. Both kernel sets count identically, so results are
  // bit-identical at any value; the resolved choice appears as the
  // simd.dispatch info metric in the JSON run report.
  if (args.Has("simd")) {
    const std::string simd = args.GetString("simd");
    dd::simd::SimdMode mode;
    if (!dd::simd::ParseSimdMode(simd, &mode)) {
      return Fail(dd::Status::InvalidArgument(
          "--simd must be auto, avx2 or scalar (got \"" + simd + "\")"));
    }
    dd::simd::SetSimdMode(mode);
  }
  // Pool-stats recording turns on exactly when the run writes the
  // --trace_json report, whose "parallel" section surfaces it.
  // Recording never perturbs chunking, so results stay bit-identical
  // with the collector on or off.
  if (args.Has("trace_json")) {
    dd::obs::PoolStatsCollector::Global().Enable();
  }
  // --diag_dir arms crash diagnostics for any subcommand: fatal signal
  // handlers and the flight recorder, writing a .dddump crash dump into
  // the directory.
  if (args.Has("diag_dir")) {
    dd::obs::diag::DiagOptions diag_options;
    diag_options.dir = args.GetString("diag_dir");
    if (diag_options.dir.empty()) {
      return Fail(dd::Status::InvalidArgument("--diag_dir needs a directory"));
    }
    if (!dd::obs::diag::EnableDiagnostics(diag_options)) {
      return Fail(dd::Status::IoError("cannot enable diagnostics in " +
                                      diag_options.dir));
    }
  }
  // --profile wraps the whole subcommand in a sampling-profiler
  // capture (--profile_hz alone implies it). Sampling reads state; it
  // never perturbs chunking or results — outputs stay bit-identical
  // with profiling on or off.
  const bool profile = args.Has("profile") || args.Has("profile_hz");
  if (profile) {
    auto hz = args.GetInt("profile_hz", 99, 1, 10000);
    if (!hz.ok()) return Fail(hz.status());
    dd::obs::prof::ProfilerOptions options;
    options.hz = static_cast<int>(*hz);
    dd::Status started = dd::obs::prof::Profiler::Global().Start(options);
    if (!started.ok()) return Fail(started);
  }
  dd::Status status;
  if (command == "generate") status = RunGenerate(args);
  else if (command == "determine") status = RunDetermine(args);
  else if (command == "explain") status = RunExplain(args);
  else if (command == "detect") status = RunDetect(args);
  else if (command == "discover") status = RunDiscover(args);
  else if (command == "append" || command == "watch" || command == "serve")
    status = RunFeed(args, command);
  else if (command == "diag") status = RunDiag(args);
  else if (command == "prof") status = RunProf(args);
  else {
    if (profile) dd::obs::prof::Profiler::Global().Stop();
    return Usage();
  }
  const int rc = status.ok() ? 0 : Fail(status);
  if (profile) {
    const dd::obs::prof::Profile captured =
        dd::obs::prof::Profiler::Global().Stop();
    const std::string prefix =
        args.GetString("profile_out", "ddtool." + command + ".prof");
    const dd::obs::prof::FoldedProfile folded =
        dd::obs::prof::FoldProfile(captured);
    dd::Status written = WriteTextFile(
        dd::obs::prof::FoldedToString(folded), prefix + ".folded");
    if (written.ok()) {
      written = WriteTextFile(
          dd::obs::prof::ProfileSummaryJson(captured) + "\n",
          prefix + ".json");
    }
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr,
                 "profile: %llu samples (%llu dropped) at %d Hz -> "
                 "%s.folded, %s.json\n",
                 static_cast<unsigned long long>(captured.samples),
                 static_cast<unsigned long long>(captured.dropped),
                 captured.hz, prefix.c_str(), prefix.c_str());
  }
  return rc;
}
