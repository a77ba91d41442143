// Determination for the determinant attributes X (paper §V-B): evaluate
// every ϕ[X] ∈ C_X, find its best ϕ[Y] via PA/PAP, and keep the pattern
// with the maximum expected utility Ū(ϕ).
//
// DetermineBestPatterns implements both Algorithm 3 (DA — every LHS is
// explored with an initial bound of 0) and Algorithm 4 (DAP — C_X is
// processed in descending D(ϕ) order and each PAP call is seeded with
// the advanced bound of Theorem 3 / formula 6:
//   Vmax = 1 - (D(ϕmax)/D(ϕi)) · (1 - C(ϕmax)Q(ϕmax))
// computed from the current l-th best answer ϕmax).
//
// Under the closed-form utility (UtilityMethod::kClosedForm, the
// default) DAP bounds each ϕ[X] with the exact Ū threshold as well,
// once the top-l heap is full: a ϕ[X] whose Ū at C·Q = 1 cannot beat
// the l-th best Ū_l is skipped with no mask built and no PAP call
// (DaStats::lhs_bounded), and every other search is seeded with
// max(formula 6, τ), τ = (Ū_l·(n + a + b) − a)/n lowered by a rounding
// margin (ClosedFormCqThreshold, expected_utility.h). Formula 6 is only
// the sufficient condition of Theorem 3; τ is the C·Q the pattern
// actually needs. Under kNumericIntegration DAP is the paper's
// formula-6 Algorithm 4 unchanged. DA never uses either bound.

#ifndef DD_CORE_DA_H_
#define DD_CORE_DA_H_

#include <cstdint>
#include <vector>

#include "core/expected_utility.h"
#include "core/measures.h"
#include "core/pa.h"
#include "core/pattern.h"

namespace dd {

// A fully determined pattern with all statistics and its utility.
struct DeterminedPattern {
  Pattern pattern;
  Measures measures;
  double utility = 0.0;
};

struct DaOptions {
  // false: Algorithm 3 (DA). true: Algorithm 4 (DAP).
  bool advanced_bound = false;
  // Configuration of the per-LHS search (PA vs PAP, the C_Y order and
  // pa.top_l, the number l of patterns with the largest expected
  // utilities to return).
  PaOptions pa;
  UtilityOptions utility;

  // Concurrency (0 = DefaultThreads()), the only level of determination
  // parallelism: it splits C_X, never the search inside one LHS (PA/PAP
  // and the provider counts are sequential). Under DA the per-LHS
  // searches are independent (every initial bound is 0), so C_X is
  // partitioned across provider clones and the per-LHS answers are
  // merged into the top-l heap in sequential LHS order — results and
  // all stats are bit-identical to the sequential run. DAP runs
  // sequentially: its main loop because the Theorem-3 bound feeds back
  // through the heap (a stale bound would change DaStats), and its
  // D(ϕ) ordering pass because splitting it measured no faster.
  // EXPLAIN-recorded runs stay sequential end-to-end.
  std::size_t threads = 0;
};

struct DaStats {
  std::size_t lhs_total = 0;      // |C_X|
  std::size_t lhs_evaluated = 0;  // LHS candidates searched
  // LHS candidates DAP skipped unsearched: no ϕ[Y] could lift their
  // closed-form Ū above the l-th best. lhs_evaluated + lhs_bounded ==
  // lhs_total, and each skipped LHS adds its |C_Y| cells to
  // rhs.lattice_size and rhs.pruned.
  std::size_t lhs_bounded = 0;
  PaStats rhs;                    // aggregated over all PA/PAP calls

  // Fraction of C_X × C_Y candidates that avoided confidence
  // computation (the paper's Figure 4 pruning rate).
  double PruningRate() const {
    if (rhs.lattice_size == 0) return 0.0;
    return static_cast<double>(rhs.pruned) /
           static_cast<double>(rhs.lattice_size);
  }
};

// Assembles the determined pattern (lhs, rhs) from its counts over a
// matching relation of `total` tuples: its measures and its expected
// utility. Every determination path (DA, DAP, MFD, MD) builds its
// answers here.
DeterminedPattern MakeDeterminedPattern(Levels lhs, Levels rhs,
                                        std::uint64_t total,
                                        std::uint64_t lhs_count,
                                        std::uint64_t xy_count, int dmax,
                                        const UtilityOptions& utility);

// The per-LHS step of DA, DAP and MFD: with the provider's ϕ[X] already
// set to `lhs`, runs FindBestRhs from `bound` and returns its answers
// as determined patterns, in FindBestRhs order (descending C·Q).
// `stats` accumulates as in FindBestRhs.
std::vector<DeterminedPattern> DetermineForLhs(MeasureProvider* provider,
                                               const Levels& lhs,
                                               std::size_t rhs_dims, int dmax,
                                               double bound,
                                               const PaOptions& options,
                                               const UtilityOptions& utility,
                                               PaStats* stats);

// Runs the full determination over C_X × C_Y. Results are sorted by
// descending utility; fewer than options.pa.top_l entries are
// returned when the remaining candidates cannot strictly improve on the
// bound (e.g. all-zero confidence rules).
//
// Stats contract: `stats`, when non-null, is ACCUMULATED into (never
// reset), matching FindBestRhs — callers that want per-run numbers pass
// a freshly zero-initialized DaStats. Provider stats follow the same
// convention (see core/measure_provider.h).
std::vector<DeterminedPattern> DetermineBestPatterns(MeasureProvider* provider,
                                                     std::size_t lhs_dims,
                                                     std::size_t rhs_dims,
                                                     int dmax,
                                                     const DaOptions& options,
                                                     DaStats* stats);

}  // namespace dd

#endif  // DD_CORE_DA_H_
