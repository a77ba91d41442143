// Determination EXPLAIN recorder (DESIGN.md §11): when enabled, the
// determination algorithms (core/pa.cc, core/da.cc,
// core/determiner.cc) emit one decision event per lattice candidate
// — which candidate, its processing-order rank, whether it was
// evaluated or bounded out, which bound fired, the measured C/Q
// decomposition and the running best bound at the moment of the
// decision — so that "why was ϕ chosen over ϕ′?" and "which bound
// killed this candidate?" are answerable from a recorded run instead of
// a debugger session.
//
// Threading: one recording belongs to the thread that called Enable.
// Enable, every recording call (BeginLhs, Record*, Note*, Set*,
// AddCandidates), Snapshot and Disable run on that thread; BeginLhs
// checks it. Only Active() may be called from any thread. Recorder-
// active determinations are sequential by design (DESIGN.md §12), so
// the recording needs no locks or atomics of its own.
//
// Cost contract:
//  * Disabled (the default): ExplainRecorder::Active() returns nullptr
//    — one acquire load and a branch per call site, no events
//    allocated.
//  * Enabled: exact waterfall totals are plain counters, while full
//    per-event records go through a sampling gate (keep every
//    `sample_every`-th event) into one obs::Ring (DESIGN.md §8.1).
//    Events that explain the outcome are always kept regardless of the
//    sampling rate: candidates that entered the top-l heap (they
//    advanced the pruning bound — the winner is among them) and
//    candidates on the running Pareto skyline of (support, confidence,
//    quality).
//
// This header deliberately depends on nothing from core/ (obs sits
// below core in the dependency order); candidates are identified by
// their lattice cell index plus the (dims, dmax) geometry captured in
// the snapshot, and threshold levels are plain std::vector<int>.

#ifndef DD_OBS_EXPLAIN_RECORDER_H_
#define DD_OBS_EXPLAIN_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/ring.h"

namespace dd::obs {

// Threshold levels, structurally identical to core's dd::Levels.
using ExplainLevels = std::vector<int>;

// What happened to a lattice candidate. Every cell of every searched
// lattice gets exactly one outcome, so the outcome counts partition the
// lattice: evaluated + pruned_s0 + pruned_s1 + pruned_zero_conf ==
// candidates (the waterfall identity asserted by tests).
enum class ExplainOutcome : std::uint8_t {
  kEvaluated = 0,      // confidence was computed (Algorithm 1/2 body)
  kPrunedS0 = 1,       // killed by the S0 prune (Proposition 1)
  kPrunedS1 = 2,       // killed by the S1 prune (Proposition 2)
  kPrunedZeroConf = 3, // killed by the zero-confidence dominated box
};

// Which bound governed the decision at the moment it was made.
enum class ExplainBound : std::uint8_t {
  kInitial = 0,   // the caller's initial bound (0 under DA)
  kAdvanced = 1,  // DAP's Theorem-3 advanced bound seeded the search
  kTopL = 2,      // the running top-l cutoff (l-th best C·Q so far)
  kUtility = 3,   // DAP's closed-form Ū threshold τ seeded the search
};

const char* ExplainOutcomeName(ExplainOutcome outcome);
const char* ExplainBoundName(ExplainBound bound);

struct ExplainConfig {
  // Keep every K-th event in the ring (1 = full fidelity). Outcome-
  // explaining events (offered / skyline) are kept regardless.
  std::size_t sample_every = 1;
  // The newest `ring_capacity` kept events are reported; older ones
  // are counted as dropped. Waterfall totals stay exact regardless.
  // Enable() clamps it to [1, kMaxRingCapacity].
  std::size_t ring_capacity = std::size_t{1} << 16;
};

// One recorded decision. Plain data, fixed size: ϕ[Y] is identified by
// its lattice cell index (decode with the snapshot's rhs_dims / dmax),
// ϕ[X] by lhs_seq into ExplainSnapshot::lhs.
struct ExplainEvent {
  std::uint64_t seq = 0;        // decision order within the recording
  std::uint32_t lhs_seq = 0;    // index into ExplainSnapshot::lhs
  std::uint32_t rhs_index = 0;  // lattice cell index of ϕ[Y]
  // Processing-order rank: for evaluated candidates, the number of
  // evaluations before this one under the current LHS; for pruned
  // candidates, the rank of the evaluation whose prune killed them.
  std::uint32_t rank = 0;
  ExplainOutcome outcome = ExplainOutcome::kEvaluated;
  ExplainBound bound_kind = ExplainBound::kInitial;
  bool offered = false;  // entered the top-l heap (bound-advancing)
  bool forced = false;   // kept regardless of sampling (offered/skyline)
  std::uint64_t xy_count = 0;   // evaluated only
  double confidence = 0.0;      // evaluated only
  double quality = 0.0;
  double cq = 0.0;              // C(ϕ)·Q(ϕ), the Theorem-2 objective
  double bound = 0.0;           // running best bound at the decision
  double eval_ns = 0.0;         // eval latency (sampled subset; 0 = untimed)
};

// One entry per SetLhs the search performed; recorded unconditionally
// (|C_X| entries, far fewer than events).
struct ExplainLhsInfo {
  std::uint32_t seq = 0;
  ExplainLevels levels;
  std::uint64_t lhs_count = 0;
  std::uint64_t total = 0;
  double initial_bound = 0.0;
  // Where initial_bound came from: kInitial (0, or the caller's bound),
  // kAdvanced (DAP's Theorem 3) or kUtility (DAP's Ū threshold τ).
  ExplainBound initial_kind = ExplainBound::kInitial;
};

// Exact per-run totals, independent of sampling and ring capacity.
struct ExplainWaterfall {
  std::uint64_t lhs_seen = 0;
  std::uint64_t lhs_bounded_out = 0;  // LHS whose RHS search returned empty
  // LHS that DAP skipped without a search (no ϕ[Y] could lift their Ū
  // above the l-th best); their C_Y cells are not among `candidates`.
  std::uint64_t lhs_skipped = 0;
  std::uint64_t candidates = 0;       // Σ lattice sizes over all searches
  std::uint64_t evaluated = 0;
  std::uint64_t pruned_s0 = 0;
  std::uint64_t pruned_s1 = 0;
  std::uint64_t pruned_zero_conf = 0;
  std::uint64_t offered = 0;          // evaluated events entering the heap

  std::uint64_t Pruned() const {
    return pruned_s0 + pruned_s1 + pruned_zero_conf;
  }
  // The waterfall identity: every candidate accounted for exactly once.
  bool Accounted() const { return evaluated + Pruned() == candidates; }
};

struct ExplainSnapshot {
  ExplainConfig config;
  std::string run_label;
  // True when the recorded run counted against ESTIMATED measures (the
  // approx provider's weighted sample counts, approx/refine.h) rather
  // than exact ones — surfaced in the audit document so a decision
  // trail is never mistaken for exact-count evidence.
  bool estimated = false;
  std::size_t rhs_dims = 0;  // geometry for decoding ExplainEvent::rhs_index
  int dmax = 0;
  ExplainWaterfall waterfall;
  std::uint64_t recorded = 0;     // events kept in the ring
  std::uint64_t sampled_out = 0;  // events skipped by the sampling gate
  std::uint64_t dropped = 0;      // ring overwrites (oldest evicted)
  std::vector<ExplainLhsInfo> lhs;     // indexed by ExplainEvent::lhs_seq
  std::vector<ExplainEvent> events;    // in seq order
};

class ExplainRecorder {
 public:
  static ExplainRecorder& Global();

  // The hot-path check: nullptr unless recording is enabled. Call sites
  // hold the pointer for the duration of one search.
  static ExplainRecorder* Active();

  // Starts a fresh recording (clears any previous run's state).
  void Enable(const ExplainConfig& config);
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  // Free-form run description shown in the audit document (set by the
  // determination facades: algorithm combination, provider, order, l).
  void SetRunLabel(const std::string& label);

  // Marks the recording as driven by estimated (sampled) counts; see
  // ExplainSnapshot::estimated. Reset to false by Enable.
  void SetEstimated(bool estimated);

  // Geometry used to decode ExplainEvent::rhs_index; one per run.
  void SetRhsGeometry(std::size_t dims, int dmax);

  // Adds `n` cells to the candidate total (one call per searched
  // lattice, before its events).
  void AddCandidates(std::uint64_t n);

  // Registers the ϕ[X] whose RHS search is about to run; returns the
  // lhs_seq to stamp on its events. Also fixes the D(ϕ[X]) used for
  // skyline tracking. Aborts unless called on the thread that called
  // Enable.
  std::uint32_t BeginLhs(const ExplainLevels& levels, std::uint64_t lhs_count,
                         std::uint64_t total, double initial_bound,
                         ExplainBound initial_kind);

  // True when the next event passes the sampling gate — callers use it
  // to decide whether to time the evaluation (so latency measurement
  // and event retention cover the same candidates).
  bool WillSampleNextEvent();

  void RecordEvaluated(std::uint32_t lhs_seq, std::uint32_t rhs_index,
                       std::uint32_t rank, std::uint64_t xy_count,
                       double confidence, double quality, double cq,
                       double bound, ExplainBound bound_kind, bool offered,
                       double eval_ns);

  void RecordPruned(std::uint32_t lhs_seq, std::uint32_t rhs_index,
                    std::uint32_t rank, ExplainOutcome outcome, double bound,
                    ExplainBound bound_kind);

  // Marks the current LHS as bounded out (its RHS search returned no
  // candidate above the bound — DAP Algorithm 4, line 6).
  void NoteLhsBoundedOut();

  // Counts a ϕ[X] that DAP skipped before any RHS search (its best
  // possible Ū cannot beat the l-th best answer).
  void NoteLhsSkipped();

  // The current recording: its newest `ring_capacity` kept events, in
  // seq order. The audit consumers call it after the run completes.
  ExplainSnapshot Snapshot() const;

 private:
  ExplainRecorder() = default;

  // Advances the sampling countdown; true when the event goes to the
  // ring (sampled, or `forced` past the gate). Events are built only
  // once kept: building every sampled-out one cost more than the rest
  // of the recording (EXPERIMENTS.md "Sequential EXPLAIN recorder").
  bool Keep(bool forced);
  // The seq of the decision just counted: the decisions before it.
  std::uint64_t Seq() const;
  // True when (D·C, C, Q) is on the running Pareto front, which it
  // then joins.
  bool JoinsSkyline(double confidence, double quality);

  // Read by Active() on any thread; everything else belongs to the
  // thread that called Enable (`owner_`).
  std::atomic<bool> enabled_{false};
  std::thread::id owner_;

  // The recording so far, all but what Snapshot() reads off the ring:
  // events, recorded and dropped.
  ExplainSnapshot run_;
  // Events until the next sampled one (0 = the next event is kept); a
  // countdown instead of seq % sample_every keeps the per-event path
  // free of integer division.
  std::uint64_t until_sample_ = 0;
  // D(ϕ[X]) of the last BeginLhs and the Pareto front over (support,
  // confidence, quality) of the evaluated events so far.
  double current_d_ = 0.0;
  std::vector<std::array<double, 3>> front_;
  // Replaced only when a recording asks for more capacity than it has;
  // cleared (base = head) otherwise. Snapshot() reports the newest
  // ring_capacity events, so a larger ring gives the same answers.
  std::unique_ptr<Ring<ExplainEvent>> ring_;
};

}  // namespace dd::obs

#endif  // DD_OBS_EXPLAIN_RECORDER_H_
