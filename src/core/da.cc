#include "core/da.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/candidate_lattice.h"
#include "obs/explain/recorder.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace dd {

namespace {

// Min-heap on utility keeping the l best determined patterns.
class TopPatterns {
 public:
  explicit TopPatterns(std::size_t l) : l_(l) {}

  bool Full() const { return heap_.size() == l_; }

  // The current l-th best (only meaningful when Full()).
  const DeterminedPattern& Min() const { return heap_.front(); }

  void Offer(DeterminedPattern p) {
    if (heap_.size() < l_) {
      heap_.push_back(std::move(p));
      std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp);
      return;
    }
    if (p.utility <= heap_.front().utility) return;
    std::pop_heap(heap_.begin(), heap_.end(), MinHeapCmp);
    heap_.back() = std::move(p);
    std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp);
  }

  std::vector<DeterminedPattern> Sorted() && {
    std::sort(heap_.begin(), heap_.end(),
              [](const DeterminedPattern& a, const DeterminedPattern& b) {
                return a.utility > b.utility;
              });
    return std::move(heap_);
  }

 private:
  static bool MinHeapCmp(const DeterminedPattern& a,
                         const DeterminedPattern& b) {
    return a.utility > b.utility;
  }
  std::size_t l_;
  std::vector<DeterminedPattern> heap_;
};

// One clone per ParallelFor chunk, or empty when the provider cannot
// clone (the caller then falls back to the sequential path).
std::vector<std::unique_ptr<MeasureProvider>> MakeClones(
    const MeasureProvider& provider, std::size_t count, std::size_t threads) {
  std::vector<std::unique_ptr<MeasureProvider>> clones;
  const std::size_t chunks = EffectiveChunks(count, threads);
  if (chunks <= 1) return clones;
  clones.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    auto clone = provider.CloneForThread();
    if (clone == nullptr) {
      clones.clear();
      return clones;
    }
    clones.push_back(std::move(clone));
  }
  return clones;
}

}  // namespace

std::vector<DeterminedPattern> DetermineBestPatterns(MeasureProvider* provider,
                                                     std::size_t lhs_dims,
                                                     std::size_t rhs_dims,
                                                     int dmax,
                                                     const DaOptions& options,
                                                     DaStats* stats) {
  DD_CHECK_GE(options.top_l, 1u);
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

  const std::uint64_t total = provider->total();
  TopPatterns top(options.top_l);
  PaOptions pa_options = options.pa;
  pa_options.top_l = options.top_l;

  std::size_t lhs_evaluated = 0;
  PaStats pa_stats;

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
    std::vector<std::unique_ptr<MeasureProvider>> clones =
        MakeClones(*provider, lhs_order.size(), threads);
    if (!clones.empty()) {
      pa_options.initial_bound_advanced = false;  // bound is always 0 here
      struct LhsOutcome {
        std::uint64_t n = 0;
        std::vector<RhsCandidate> best;
        PaStats pa;
      };
      std::vector<LhsOutcome> outcomes(lhs_order.size());
      ParallelFor("da.lhs_search", lhs_order.size(), threads,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                    MeasureProvider* p = clones[chunk].get();
                    for (std::size_t pos = begin; pos < end; ++pos) {
                      obs::TraceSpan lhs_span("lhs_search");
                      LhsOutcome& out = outcomes[pos];
                      p->SetLhs(lhs_lattice.LevelsOf(lhs_order[pos]));
                      out.n = p->lhs_count();
                      out.best = FindBestRhs(p, rhs_dims, dmax, /*bound=*/0.0,
                                             pa_options, &out.pa);
                    }
                  });
      // Deterministic merge in sequential LHS order.
      for (std::size_t pos = 0; pos < lhs_order.size(); ++pos) {
        LhsOutcome& out = outcomes[pos];
        ++lhs_evaluated;
        pa_stats.lattice_size += out.pa.lattice_size;
        pa_stats.evaluated += out.pa.evaluated;
        pa_stats.pruned += out.pa.pruned;
        const Levels lhs = lhs_lattice.LevelsOf(lhs_order[pos]);
        for (RhsCandidate& c : out.best) {
          DeterminedPattern p;
          p.pattern.lhs = lhs;
          p.pattern.rhs = std::move(c.rhs);
          p.measures = MeasuresFromCounts(total, out.n, c.xy_count,
                                          p.pattern.rhs, dmax);
          p.utility = ExpectedUtility(total, out.n, p.measures.confidence,
                                      p.measures.quality, options.utility);
          top.Offer(std::move(p));
        }
      }
      for (const auto& clone : clones) provider->AddStats(clone->stats());
      if (stats != nullptr) {
        stats->lhs_total += lhs_lattice.size();
        stats->lhs_evaluated += lhs_evaluated;
        stats->rhs.lattice_size += pa_stats.lattice_size;
        stats->rhs.evaluated += pa_stats.evaluated;
        stats->rhs.pruned += pa_stats.pruned;
      }
      return std::move(top).Sorted();
    }
  }

  for (std::uint32_t idx : lhs_order) {
    // Aggregated per-LHS phase: one span node, |C_X| entries.
    obs::TraceSpan lhs_span("lhs_search");
    const Levels lhs = lhs_lattice.LevelsOf(idx);
    if (options.advanced_bound) {
      provider->SetLhsWithKnownCount(lhs, lhs_counts[idx]);
    } else {
      provider->SetLhs(lhs);
    }
    const std::uint64_t n = provider->lhs_count();
    ++lhs_evaluated;

    double bound = 0.0;
    if (options.advanced_bound && top.Full() && n > 0) {
      const DeterminedPattern& ref = top.Min();
      // Descending-D processing guarantees ref.lhs_count >= n.
      const double ratio = static_cast<double>(ref.measures.lhs_count) /
                           static_cast<double>(n);
      const double ref_cq = ref.measures.confidence * ref.measures.quality;
      bound = 1.0 - ratio * (1.0 - ref_cq);
      if (bound < 0.0) bound = 0.0;  // Paper: negative bounds become 0.
    }
    DD_VLOG(1) << "lhs candidate " << idx << ": count=" << n
               << " advanced_bound=" << bound;

    pa_options.initial_bound_advanced = options.advanced_bound && bound > 0.0;
    std::vector<RhsCandidate> best =
        FindBestRhs(provider, rhs_dims, dmax, bound, pa_options, &pa_stats);
    if (rec != nullptr && best.empty()) rec->NoteLhsBoundedOut();
    for (RhsCandidate& c : best) {
      DeterminedPattern p;
      p.pattern.lhs = lhs;
      p.pattern.rhs = std::move(c.rhs);
      p.measures = MeasuresFromCounts(total, n, c.xy_count, p.pattern.rhs,
                                      dmax);
      p.utility = ExpectedUtility(total, n, p.measures.confidence,
                                  p.measures.quality, options.utility);
      top.Offer(std::move(p));
    }
  }

  // Stats contract: accumulate into *stats, never reset (see da.h).
  if (stats != nullptr) {
    stats->lhs_total += lhs_lattice.size();
    stats->lhs_evaluated += lhs_evaluated;
    stats->rhs.lattice_size += pa_stats.lattice_size;
    stats->rhs.evaluated += pa_stats.evaluated;
    stats->rhs.pruned += pa_stats.pruned;
  }
  return std::move(top).Sorted();
}

}  // namespace dd
