#include "core/pa.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "core/top_l.h"
#include "obs/explain/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd {

namespace {

// Which bound governs decisions right now: once the heap is full the
// running top-l cutoff took over from the caller's initial bound.
obs::ExplainBound BoundKindNow(bool heap_full, obs::ExplainBound initial) {
  return heap_full ? obs::ExplainBound::kTopL : initial;
}

}  // namespace

RhsSearch::RhsSearch(std::size_t rhs_dims, int dmax, const PaOptions& options)
    : options_(options),
      order_(CandidateLattice::MakeOrder(rhs_dims, dmax, options.order)),
      lattice_(rhs_dims, dmax),
      all_dmax_(rhs_dims, dmax),
      cell_(rhs_dims, 0) {
  DD_CHECK_GE(options.top_l, 1u);
}

std::vector<RhsCandidate> RhsSearch::Run(MeasureProvider* provider,
                                         double initial_bound,
                                         obs::ExplainBound initial_bound_kind,
                                         PaStats* stats) {
  obs::TraceSpan span("rhs_search");
  const int dmax = lattice_.dmax();
  lattice_.Reset();
  TopL<RhsCandidate, &RhsCandidate::cq> top(options_.top_l);
  // The current pruning bound Vmax: the l-th largest C·Q once l
  // candidates are held, otherwise the caller's initial bound.
  auto bound = [&] { return top.Full() ? top.Min().cq : initial_bound; };
  // Vmax at the last S0. Vmax never falls: before the heap is full it
  // is the initial bound, after that the l-th best C·Q, and every offer
  // strictly beats it; so an S0 at a Vmax no higher kills nothing.
  double s0_vmax = 0.0;
  const std::uint64_t n = provider->lhs_count();
  std::size_t evaluated = 0;

  // EXPLAIN recorder (obs/explain/recorder.h): nullptr unless a
  // recording is active, in which case every candidate decision below
  // emits exactly one event. Never changes the search.
  obs::ExplainRecorder* rec = obs::ExplainRecorder::Active();
  std::uint32_t lhs_seq = 0;
  if (rec != nullptr) {
    rec->SetRhsGeometry(lattice_.dims(), dmax);
    rec->AddCandidates(lattice_.size());
    lhs_seq = rec->BeginLhs(provider->current_lhs(), n, provider->total(),
                            initial_bound, initial_bound_kind);
  }

  // One loop for both algorithms: Algorithm 1 (PA) evaluates every
  // candidate; Algorithm 2 (PAP) also skips the cells pruned so far and
  // applies the S0/S1 prunes after each evaluation.
  for (std::uint32_t idx : order_) {
    if (options_.prune) {
      if (!lattice_.IsAlive(idx)) continue;  // Pruned by S0/S1 earlier.
      lattice_.Kill(idx);  // Processed; Prune below must not double-count.
    }
    const bool timed = rec != nullptr && rec->WillSampleNextEvent();
    std::chrono::steady_clock::time_point t0;
    if (timed) t0 = std::chrono::steady_clock::now();
    lattice_.DecodeInto(idx, &cell_);
    const std::uint64_t xy_count = provider->CountXY(cell_);
    const double confidence =
        n > 0 ? static_cast<double>(xy_count) / static_cast<double>(n) : 0.0;
    const double quality = DependentQuality(cell_, dmax);
    const double cq = confidence * quality;
    ++evaluated;
    const double vmax_before = bound();
    const bool offered = cq > vmax_before;
    const std::uint32_t rank = static_cast<std::uint32_t>(evaluated - 1);
    if (rec != nullptr) {
      const double eval_ns =
          timed ? std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count()
                : 0.0;
      rec->RecordEvaluated(lhs_seq, idx, rank, xy_count, confidence, quality,
                           cq, vmax_before,
                           BoundKindNow(top.Full(), initial_bound_kind),
                           offered, eval_ns);
    }
    if (offered) top.Offer({cell_, xy_count, confidence, quality, cq});
    if (!options_.prune) continue;
    const double vmax = bound();
    const obs::ExplainBound bound_kind =
        BoundKindNow(top.Full(), initial_bound_kind);
    // prune(dominator, q), attributing every cell it kills to `outcome`
    // and to this candidate when a recording is active.
    auto prune = [&](const Levels& dominator, double q,
                     obs::ExplainOutcome outcome, double v) {
      if (rec == nullptr) {
        lattice_.Prune(dominator, q);
        return;
      }
      lattice_.Prune(dominator, q, [&](std::size_t killed) {
        rec->RecordPruned(lhs_seq, static_cast<std::uint32_t>(killed), rank,
                          outcome, v, bound_kind);
      });
    };
    if (vmax > 0.0) {
      // S0 (Proposition 1): every candidate is dominated by the
      // all-dmax pattern, so prune(ϕ0, Vmax) kills all with Q <= Vmax.
      if (vmax > s0_vmax) {
        prune(all_dmax_, vmax, obs::ExplainOutcome::kPrunedS0, vmax);
        s0_vmax = vmax;
      }
      // S1 (Proposition 2): candidates dominated by the current ϕi
      // with Q <= Vmax / C(ϕi) cannot beat Vmax. C(ϕi) == 0 prunes the
      // whole dominated sub-box (their confidence is 0 too).
      const double s1_quality = confidence > 0.0 ? vmax / confidence : 1.0;
      prune(cell_, s1_quality, obs::ExplainOutcome::kPrunedS1, vmax);
    } else if (confidence == 0.0) {
      // Everything dominated by a zero-confidence candidate has C = 0,
      // hence C·Q = 0, and can never strictly exceed a bound >= 0.
      prune(cell_, 1.0, obs::ExplainOutcome::kPrunedZeroConf, 0.0);
    }
  }

  // Stats contract: accumulate into *stats, never reset (see pa.h). The
  // registry flush below is one relaxed add per Run (one per evaluated
  // LHS), far off the per-candidate hot path.
  if (stats != nullptr) {
    stats->Add({lattice_.size(), evaluated, lattice_.size() - evaluated});
  }
  static obs::Histogram& evaluated_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "pa.evaluated_per_lhs", {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0});
  evaluated_hist.Observe(static_cast<double>(evaluated));
  return std::move(top).Sorted();
}

std::vector<RhsCandidate> FindBestRhs(MeasureProvider* provider,
                                      std::size_t rhs_dims, int dmax,
                                      double initial_bound,
                                      const PaOptions& options,
                                      PaStats* stats) {
  return RhsSearch(rhs_dims, dmax, options)
      .Run(provider, initial_bound, obs::ExplainBound::kInitial, stats);
}

}  // namespace dd
