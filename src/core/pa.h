// Determination for the dependent attributes Y (paper §V-A): given a
// fixed ϕ[X], find the ϕ[Y] ∈ C_Y maximizing C(ϕ)·Q(ϕ) — by Theorem 2
// equivalent to maximizing the expected utility Ū(ϕ) at fixed D(ϕ).
//
// RhsSearch implements both the exhaustive Algorithm 1 (PA) and the
// pruning Algorithm 2 (PAP), which skips the candidate sets
//   S0 = { ϕk : Q(ϕk) <= Vmax }                      (Proposition 1)
//   S1 = { ϕk : ϕi ⪰ ϕk, Q(ϕk) <= Vmax / C(ϕi) }     (Proposition 2)
// without computing their confidence, and supports the paper's top-l
// extension (Vmax then tracks the l-th largest C·Q). Vmax never falls
// during one search, so PAP runs S0 only when Vmax has risen since the
// last S0.

#ifndef DD_CORE_PA_H_
#define DD_CORE_PA_H_

#include <cstdint>
#include <vector>

#include "core/candidate_lattice.h"
#include "core/measure_provider.h"
#include "core/pattern.h"
#include "obs/explain/recorder.h"

namespace dd {

// One evaluated ϕ[Y] candidate with its statistics under the provider's
// current ϕ[X].
struct RhsCandidate {
  Levels rhs;
  std::uint64_t xy_count = 0;
  double confidence = 0.0;
  double quality = 0.0;
  double cq = 0.0;  // C(ϕ)·Q(ϕ), the Theorem 2 objective
};

struct PaOptions {
  // false: Algorithm 1 (PA, exhaustive). true: Algorithm 2 (PAP).
  bool prune = false;
  // Processing order of C_Y. The paper prefers mid-first when the
  // initial bound is 0 (DA) and top-first under an advanced bound (DAP).
  ProcessingOrder order = ProcessingOrder::kMidFirst;
  // Return the l best candidates (paper §V "Algorithm Extensions").
  std::size_t top_l = 1;
};

struct PaStats {
  std::size_t lattice_size = 0;  // |C_Y|
  std::size_t evaluated = 0;     // candidates whose C(ϕ) was computed
  std::size_t pruned = 0;        // candidates skipped (lattice_size - evaluated)

  // Field-wise sum, the accumulation the stats contract below asks for.
  void Add(const PaStats& other) {
    lattice_size += other.lattice_size;
    evaluated += other.evaluated;
    pruned += other.pruned;
  }
};

// The per-LHS C_Y search state of one determination: the visit order
// (built once), the lattice (revived per ϕ[X]) and a scratch buffer the
// evaluated cell is decoded into, so searching another ϕ[X] allocates
// only for the candidates it offers to the top-l. A DA sweep builds one
// and runs it for every ϕ[X]; each parallel chunk works on its own copy.
class RhsSearch {
 public:
  RhsSearch(std::size_t rhs_dims, int dmax, const PaOptions& options);

  int dmax() const { return lattice_.dmax(); }
  std::size_t lattice_size() const { return lattice_.size(); }

  // Returns up to `top_l` candidates for the provider's current ϕ[X]
  // whose C·Q strictly exceeds `initial_bound`, sorted by descending
  // C·Q. An empty result means every candidate was bounded out (DAP
  // Algorithm 4, line 6: "if ϕi[Y] exists"). `initial_bound_kind` is
  // the bound's provenance for the EXPLAIN recorder: kAdvanced when the
  // caller seeded it from DAP's Theorem-3 bound, kUtility from DAP's
  // closed-form Ū threshold (da.cc). It never changes the search.
  //
  // Stats contract: `stats`, when non-null, is ACCUMULATED into (never
  // reset) so one PaStats can aggregate a whole C_X sweep; callers
  // wanting per-call numbers pass a freshly zero-initialized struct.
  // Same convention as DetermineBestPatterns (da.h) and the provider
  // stats (core/measure_provider.h).
  std::vector<RhsCandidate> Run(MeasureProvider* provider,
                                double initial_bound,
                                obs::ExplainBound initial_bound_kind,
                                PaStats* stats);

 private:
  PaOptions options_;
  std::vector<std::uint32_t> order_;
  CandidateLattice lattice_;
  Levels all_dmax_;
  Levels cell_;  // the candidate being evaluated
};

// One-shot RhsSearch::Run with an initial bound of kind kInitial.
std::vector<RhsCandidate> FindBestRhs(MeasureProvider* provider,
                                      std::size_t rhs_dims, int dmax,
                                      double initial_bound,
                                      const PaOptions& options,
                                      PaStats* stats);

}  // namespace dd

#endif  // DD_CORE_PA_H_
