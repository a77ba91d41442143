#include "core/da.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/candidate_lattice.h"
#include "core/top_l.h"
#include "obs/explain/recorder.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace dd {

namespace {

// DAP's treatment of one ϕ[X] with n = lhs_count of `total` tuples,
// given the current l-th best answer `ref`.
struct DapSeed {
  bool skip = false;  // no ϕ[Y] can lift this ϕ[X] into the top-l
  double bound = 0.0;
  obs::ExplainBound kind = obs::ExplainBound::kInitial;
};

// Algorithm 4 seeds PAP with formula 6 (Theorem 3):
//   Vmax = 1 − (D(ϕmax)/D(ϕi)) · (1 − C(ϕmax)Q(ϕmax)).
// Under the closed-form utility the exact threshold is known as well:
// the skip drops ϕ[X] when even C·Q = 1 gives Ū <= Ū_l (rounding is
// monotone in each step of the closed form, and TopL rejects ties), and
// otherwise the search starts from max(formula 6, τ) with τ the least
// C·Q whose Ū can beat Ū_l (ClosedFormCqThreshold). Numeric integration
// keeps the paper's formula 6 alone.
DapSeed SeedDap(const DeterminedPattern& ref, std::uint64_t total,
                std::uint64_t n, const UtilityOptions& utility) {
  DapSeed seed;
  const bool closed_form = utility.method == UtilityMethod::kClosedForm;
  if (closed_form &&
      ExpectedUtility(total, n, 1.0, 1.0, utility) <= ref.utility) {
    seed.skip = true;
    return seed;
  }
  if (n == 0) return seed;
  // Descending-D processing guarantees ref.lhs_count >= n.
  const double ratio = static_cast<double>(ref.measures.lhs_count) /
                       static_cast<double>(n);
  const double ref_cq = ref.measures.confidence * ref.measures.quality;
  // Paper: negative bounds become 0.
  seed.bound = std::max(1.0 - ratio * (1.0 - ref_cq), 0.0);
  if (seed.bound > 0.0) seed.kind = obs::ExplainBound::kAdvanced;
  if (closed_form) {
    const double tau = ClosedFormCqThreshold(total, n, ref.utility, utility);
    if (tau > seed.bound) {
      seed.bound = tau;
      seed.kind = obs::ExplainBound::kUtility;
    }
  }
  return seed;
}

}  // namespace

DeterminedPattern MakeDeterminedPattern(Levels lhs, Levels rhs,
                                        std::uint64_t total,
                                        std::uint64_t lhs_count,
                                        std::uint64_t xy_count, int dmax,
                                        const UtilityOptions& utility) {
  DeterminedPattern p;
  p.pattern.lhs = std::move(lhs);
  p.pattern.rhs = std::move(rhs);
  p.measures =
      MeasuresFromCounts(total, lhs_count, xy_count, p.pattern.rhs, dmax);
  p.utility = ExpectedUtility(total, lhs_count, p.measures.confidence,
                              p.measures.quality, utility);
  return p;
}

std::vector<DeterminedPattern> DetermineForLhs(MeasureProvider* provider,
                                               const Levels& lhs,
                                               RhsSearch* search, double bound,
                                               obs::ExplainBound bound_kind,
                                               const UtilityOptions& utility,
                                               PaStats* stats) {
  const std::uint64_t n = provider->lhs_count();
  std::vector<RhsCandidate> best =
      search->Run(provider, bound, bound_kind, stats);
  std::vector<DeterminedPattern> patterns;
  patterns.reserve(best.size());
  for (RhsCandidate& c : best) {
    patterns.push_back(MakeDeterminedPattern(lhs, std::move(c.rhs),
                                             provider->total(), n, c.xy_count,
                                             search->dmax(), utility));
  }
  return patterns;
}

std::vector<DeterminedPattern> DetermineBestPatterns(MeasureProvider* provider,
                                                     std::size_t lhs_dims,
                                                     std::size_t rhs_dims,
                                                     int dmax,
                                                     const DaOptions& options,
                                                     DaStats* stats) {
  DD_CHECK_GE(options.pa.top_l, 1u);
  CandidateLattice lhs_lattice(lhs_dims, dmax);
  std::vector<std::uint32_t> lhs_order = CandidateLattice::MakeOrder(
      lhs_dims, dmax, ProcessingOrder::kLexicographic);
  const std::size_t threads =
      options.threads == 0 ? DefaultThreads() : options.threads;
  obs::ExplainRecorder* rec = obs::ExplainRecorder::Active();

  std::vector<std::uint64_t> lhs_counts;
  if (options.advanced_bound) {
    obs::TraceSpan span("lhs_ordering");
    // Algorithm 4 processes C_X in descending D(ϕ) order so that every
    // earlier answer has D >= the current candidate's D, the Theorem 3
    // precondition. The counts from this ordering pass are reused below
    // (the paper amortizes the ordering; recomputing D per LHS would
    // double the LHS scans and could make DAP slower than DA on rules
    // with a large C_X). The pass runs serially: splitting it across
    // provider clones measured no faster (DESIGN.md §12).
    lhs_counts.resize(lhs_lattice.size());
    for (std::uint32_t idx : lhs_order) {
      provider->SetLhs(lhs_lattice.LevelsOf(idx));
      lhs_counts[idx] = provider->lhs_count();
    }
    std::stable_sort(lhs_order.begin(), lhs_order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return lhs_counts[a] > lhs_counts[b];
                     });
  }

  TopL<DeterminedPattern, &DeterminedPattern::utility> top(options.pa.top_l);
  // One C_Y search state for the whole sweep (each parallel chunk copies
  // it): the visit order is built here once, the lattice revived per ϕ[X].
  RhsSearch search(rhs_dims, dmax, options.pa);

  // Stats contract: accumulate into *stats, never reset (see da.h).
  DaStats unused;
  DaStats& acc = stats != nullptr ? *stats : unused;
  acc.lhs_total += lhs_lattice.size();

  // One LHS's answers and search stats, merged in LHS processing order:
  // the one place answers reach the utility heap and DaStats grows.
  struct LhsOutcome {
    std::vector<DeterminedPattern> patterns;
    PaStats pa;
  };
  auto merge = [&](LhsOutcome& out) {
    ++acc.lhs_evaluated;
    acc.rhs.Add(out.pa);
    for (DeterminedPattern& p : out.patterns) top.Offer(std::move(p));
  };

  // Parallel DA (DESIGN.md §12): with advanced_bound off, every per-LHS
  // search runs with initial bound 0 and a fresh per-call top-l heap —
  // the only cross-LHS state is the utility heap, which only consumes
  // (pattern, utility) offers. So the LHS sweep partitions across
  // provider clones and the offers replay in sequential LHS order:
  // results, DaStats, and provider stats are bit-identical to the
  // sequential run. EXPLAIN-recorded runs stay sequential so the audit
  // document's event order is reproducible.
  if (threads > 1 && !options.advanced_bound && rec == nullptr &&
      !InParallelChunk() && lhs_order.size() > 1) {
    // One clone and one search state per ParallelFor chunk.
    std::vector<std::unique_ptr<MeasureProvider>> clones(
        EffectiveChunks(lhs_order.size(), threads));
    for (auto& clone : clones) clone = provider->CloneForThread();
    std::vector<RhsSearch> searches(clones.size(), search);
    std::vector<LhsOutcome> outcomes(lhs_order.size());
    ParallelFor("da.lhs_search", lhs_order.size(), threads,
                [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                  MeasureProvider* p = clones[chunk].get();
                  for (std::size_t pos = begin; pos < end; ++pos) {
                    obs::TraceSpan lhs_span("lhs_search");
                    const Levels lhs = lhs_lattice.LevelsOf(lhs_order[pos]);
                    p->SetLhs(lhs);
                    outcomes[pos].patterns = DetermineForLhs(
                        p, lhs, &searches[chunk], /*bound=*/0.0,
                        obs::ExplainBound::kInitial, options.utility,
                        &outcomes[pos].pa);
                  }
                });
    for (LhsOutcome& out : outcomes) merge(out);
    for (const auto& clone : clones) provider->AddStats(clone->stats());
    return std::move(top).Sorted();
  }

  // The C_Y cells a skipped ϕ[X] adds to rhs.lattice_size and
  // rhs.pruned, so the pruning rate stays a fraction of C_X × C_Y.
  const std::size_t rhs_cells = search.lattice_size();
  for (std::uint32_t idx : lhs_order) {
    DapSeed seed;
    if (options.advanced_bound && top.Full()) {
      seed = SeedDap(top.Min(), provider->total(), lhs_counts[idx],
                     options.utility);
    }
    if (seed.skip) {
      ++acc.lhs_bounded;
      acc.rhs.Add({rhs_cells, 0, rhs_cells});
      if (rec != nullptr) rec->NoteLhsSkipped();
      continue;
    }
    // Aggregated per-LHS phase: one span node, one entry per search.
    obs::TraceSpan lhs_span("lhs_search");
    const Levels lhs = lhs_lattice.LevelsOf(idx);
    if (options.advanced_bound) {
      provider->SetLhsWithKnownCount(lhs, lhs_counts[idx]);
    } else {
      provider->SetLhs(lhs);
    }
    DD_VLOG(1) << "lhs candidate " << idx
               << ": count=" << provider->lhs_count()
               << " initial_bound=" << seed.bound;

    LhsOutcome out;
    out.patterns = DetermineForLhs(provider, lhs, &search, seed.bound,
                                   seed.kind, options.utility, &out.pa);
    if (rec != nullptr && out.patterns.empty()) rec->NoteLhsBoundedOut();
    merge(out);
  }
  return std::move(top).Sorted();
}

}  // namespace dd
