#include "core/pa.h"

#include <chrono>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "core/top_l.h"
#include "obs/explain/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd {

namespace {

RhsCandidate Evaluate(MeasureProvider* provider, Levels rhs, int dmax) {
  RhsCandidate c;
  c.xy_count = provider->CountXY(rhs);
  const std::uint64_t n = provider->lhs_count();
  c.confidence = n > 0 ? static_cast<double>(c.xy_count) /
                             static_cast<double>(n)
                       : 0.0;
  c.quality = DependentQuality(rhs, dmax);
  c.cq = c.confidence * c.quality;
  c.rhs = std::move(rhs);
  return c;
}

// Which bound governs decisions right now: once the heap is full the
// running top-l cutoff took over from the caller's initial bound.
obs::ExplainBound BoundKindNow(bool heap_full, obs::ExplainBound initial) {
  return heap_full ? obs::ExplainBound::kTopL : initial;
}

}  // namespace

std::vector<RhsCandidate> FindBestRhs(MeasureProvider* provider,
                                      std::size_t rhs_dims, int dmax,
                                      double initial_bound,
                                      const PaOptions& options,
                                      PaStats* stats) {
  DD_CHECK_GE(options.top_l, 1u);
  obs::TraceSpan span("rhs_search");
  CandidateLattice lattice(rhs_dims, dmax);
  const std::vector<std::uint32_t> order =
      CandidateLattice::MakeOrder(rhs_dims, dmax, options.order);
  TopL<RhsCandidate, &RhsCandidate::cq> top(options.top_l);
  // The current pruning bound Vmax: the l-th largest C·Q once l
  // candidates are held, otherwise the caller's initial bound.
  auto bound = [&] { return top.Full() ? top.Min().cq : initial_bound; };
  const Levels all_dmax(rhs_dims, dmax);
  std::size_t evaluated = 0;

  // EXPLAIN recorder (obs/explain/recorder.h): nullptr unless a
  // recording is active, in which case every candidate decision below
  // emits exactly one event. Never changes the search.
  obs::ExplainRecorder* rec = obs::ExplainRecorder::Active();
  std::uint32_t lhs_seq = 0;
  if (rec != nullptr) {
    rec->SetRhsGeometry(rhs_dims, dmax);
    rec->AddCandidates(lattice.size());
    lhs_seq = rec->BeginLhs(provider->current_lhs(), provider->lhs_count(),
                            provider->total(), initial_bound,
                            options.initial_bound_kind);
  }

  // One loop for both algorithms: Algorithm 1 (PA) evaluates every
  // candidate; Algorithm 2 (PAP) also skips the cells pruned so far and
  // applies the S0/S1 prunes after each evaluation.
  for (std::uint32_t idx : order) {
    if (options.prune) {
      if (!lattice.IsAlive(idx)) continue;  // Pruned by S0/S1 earlier.
      lattice.Kill(idx);  // Processed; Prune below must not double-count.
    }
    const bool timed = rec != nullptr && rec->WillSampleNextEvent();
    std::chrono::steady_clock::time_point t0;
    if (timed) t0 = std::chrono::steady_clock::now();
    RhsCandidate c = Evaluate(provider, lattice.LevelsOf(idx), dmax);
    ++evaluated;
    const double vmax_before = bound();
    const bool offered = c.cq > vmax_before;
    const std::uint32_t rank = static_cast<std::uint32_t>(evaluated - 1);
    if (rec != nullptr) {
      const double eval_ns =
          timed ? std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count()
                : 0.0;
      rec->RecordEvaluated(
          lhs_seq, idx, rank, c.xy_count, c.confidence, c.quality, c.cq,
          vmax_before,
          BoundKindNow(top.Full(), options.initial_bound_kind), offered,
          eval_ns);
    }
    if (offered) top.Offer(c);
    if (!options.prune) continue;
    const double vmax = bound();
    const obs::ExplainBound bound_kind =
        BoundKindNow(top.Full(), options.initial_bound_kind);
    // Attributes every cell a prune kills to that prune and to this
    // candidate. Empty, so Prune does no per-cell work for it, unless a
    // recording is active.
    auto on_kill = [&](obs::ExplainOutcome outcome,
                       double v) -> std::function<void(std::size_t)> {
      if (rec == nullptr) return nullptr;
      return [=](std::size_t killed) {
        rec->RecordPruned(lhs_seq, static_cast<std::uint32_t>(killed), rank,
                          outcome, v, bound_kind);
      };
    };
    if (vmax > 0.0) {
      // S0 (Proposition 1): every candidate is dominated by the
      // all-dmax pattern, so prune(ϕ0, Vmax) kills all with Q <= Vmax.
      lattice.Prune(all_dmax, vmax,
                    on_kill(obs::ExplainOutcome::kPrunedS0, vmax));
      // S1 (Proposition 2): candidates dominated by the current ϕi
      // with Q <= Vmax / C(ϕi) cannot beat Vmax. C(ϕi) == 0 prunes the
      // whole dominated sub-box (their confidence is 0 too).
      const double s1_quality =
          c.confidence > 0.0 ? vmax / c.confidence : 1.0;
      lattice.Prune(c.rhs, s1_quality,
                    on_kill(obs::ExplainOutcome::kPrunedS1, vmax));
    } else if (c.confidence == 0.0) {
      // Everything dominated by a zero-confidence candidate has C = 0,
      // hence C·Q = 0, and can never strictly exceed a bound >= 0.
      lattice.Prune(c.rhs, 1.0,
                    on_kill(obs::ExplainOutcome::kPrunedZeroConf, 0.0));
    }
  }

  // Stats contract: accumulate into *stats, never reset (see pa.h). The
  // registry flush below is one relaxed add per FindBestRhs call (one
  // per evaluated LHS), far off the per-candidate hot path.
  if (stats != nullptr) {
    stats->Add({lattice.size(), evaluated, lattice.size() - evaluated});
  }
  static obs::Histogram& evaluated_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "pa.evaluated_per_lhs", {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0});
  evaluated_hist.Observe(static_cast<double>(evaluated));
  return std::move(top).Sorted();
}

}  // namespace dd
