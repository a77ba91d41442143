// The delta applied to a MatchingRelation by one insert/delete batch:
// the matching tuples appended (every pair of a new data tuple with a
// live partner) and the matching tuples dropped (every pair touching a
// deleted data tuple), with their full level vectors. Level storage is
// flat row-major so that batches of millions of pairs cost two
// allocations, not one per pair.
//
// The delta is the contract between the IncrementalMatchingBuilder
// (which produces it while mutating the relation) and delta-aware
// consumers — GridMeasureProvider::Apply folds it into prefix-sum count
// grids in O(|delta| + d^c) without re-reading M.

#ifndef DD_MATCHING_DELTA_H_
#define DD_MATCHING_DELTA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "matching/matching_relation.h"

namespace dd {

struct MatchingDelta {
  // Attributes per matching tuple (the matching relation's arity).
  std::size_t num_attributes = 0;

  // Appended matching tuples, in the order they were added to M.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> added_pairs;
  std::vector<Level> added_levels;  // row-major, |added| x num_attributes

  // Dropped matching tuples (levels captured before removal).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> removed_pairs;
  std::vector<Level> removed_levels;  // row-major

  std::size_t num_added() const { return added_pairs.size(); }
  std::size_t num_removed() const { return removed_pairs.size(); }
  bool empty() const { return added_pairs.empty() && removed_pairs.empty(); }

  // Distance vectors computed for this batch (deletions reuse stored
  // levels, so only additions cost metric evaluations).
  std::size_t pairs_computed() const { return added_pairs.size(); }
};

}  // namespace dd

#endif  // DD_MATCHING_DELTA_H_
