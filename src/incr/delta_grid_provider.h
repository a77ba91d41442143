// A MeasureProvider whose prefix-sum count grids are maintainable under
// matching-relation deltas. Construction is the familiar O(M + d^c)
// histogram + prefix-sum build of core's GridMeasureProvider; after
// that, Apply(delta) folds a batch of b added/removed matching tuples
// into the grids in O(b·c + d^c) — histogram the delta, prefix-sum it,
// add it cell-wise — so PA/DA counting queries stay O(1) per count
// across the instance's whole lifetime without ever re-reading M.
//
// Counts are kept signed internally (a delta histogram is negative
// where tuples left); a consistent apply stream keeps every prefix cell
// non-negative, which is DD_CHECKed on read.

#ifndef DD_INCR_DELTA_GRID_PROVIDER_H_
#define DD_INCR_DELTA_GRID_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/measure_provider.h"
#include "core/rule.h"
#include "incr/delta.h"
#include "matching/matching_relation.h"

namespace dd {

class DeltaGridProvider : public MeasureProvider {
 public:
  // Builds the grids from the current state of `matching`. Fails when
  // the (dmax+1)^(|X|+|Y|) grid would exceed `max_cells`.
  static Result<std::unique_ptr<DeltaGridProvider>> Create(
      const MatchingRelation& matching, ResolvedRule rule,
      std::size_t max_cells = std::size_t{1} << 27);

  // Merges one batch delta into the grids. The delta must carry full
  // level vectors over the same attribute space the provider was
  // created with (rule columns index into it).
  void Apply(const MatchingDelta& delta);

  std::uint64_t total() const override { return total_; }
  void SetLhs(const Levels& lhs) override;
  std::uint64_t lhs_count() const override { return lhs_count_; }
  const Levels& current_lhs() const override { return current_lhs_; }
  std::uint64_t CountXY(const Levels& rhs) override;

  // Across-LHS clone (DESIGN.md §12). Clones snapshot the grids
  // (they are (dmax+1)^dims cells — small for practical rules), so an
  // Apply on the original does not affect in-flight clones.
  std::unique_ptr<MeasureProvider> CloneForThread() const override;

  // Heap bytes of the maintained grids plus the per-Apply scratch
  // histograms. Feeds the mem.delta_grid_bytes gauge (obs/resource.h).
  std::size_t MemoryUsageBytes() const {
    return (joint_.capacity() + lhs_grid_.capacity() +
            scratch_joint_.capacity() + scratch_lhs_.capacity()) *
           sizeof(std::int64_t);
  }

 private:
  DeltaGridProvider() = default;

  std::size_t JointIndex(const Levels& rhs) const;

  std::uint64_t total_ = 0;
  int dmax_ = 0;
  ResolvedRule rule_;
  // Joint cumulative grid over (lhs..., rhs...) levels and the marginal
  // cumulative grid over lhs levels, signed for delta merges.
  std::vector<std::int64_t> joint_;
  std::vector<std::int64_t> lhs_grid_;
  // Per-Apply scratch histograms (kept allocated across batches).
  std::vector<std::int64_t> scratch_joint_;
  std::vector<std::int64_t> scratch_lhs_;
  Levels current_lhs_;
  std::uint64_t lhs_count_ = 0;
};

}  // namespace dd

#endif  // DD_INCR_DELTA_GRID_PROVIDER_H_
