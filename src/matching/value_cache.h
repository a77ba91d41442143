// Value-pair distance cache for the matching build. Real entity-
// resolution data (Cora, Restaurant, Hotel) is highly repetitive per
// attribute: N rows typically carry D << N distinct values, yet the
// naive build recomputes the metric for every one of the N(N-1)/2 row
// pairs. Interning distinct values per attribute turns each row pair
// into an id pair; a precomputed triangular level table over the D
// distinct values then answers every pair with one load, so each
// distinct (value_i, value_j) distance is computed exactly once.
//
// Determinism: the table is a pure function of the column contents and
// the metric configuration — the same cap and BucketDistance mapping the
// direct path uses, through BoundedDistanceMany, whose contract is
// BoundedDistance's — so cached and uncached builds produce bit-identical
// matching relations at any thread count.

#ifndef DD_MATCHING_VALUE_CACHE_H_
#define DD_MATCHING_VALUE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "matching/matching_relation.h"
#include "metric/metric.h"

namespace dd {

// Distinct-value interning for one attribute column: row_ids[row] is
// the id of the row's value; values[id] points at a representative
// occurrence inside the relation (stable for the relation's lifetime).
struct AttributeValueIndex {
  std::vector<std::uint32_t> row_ids;
  std::vector<const std::string*> values;

  std::size_t distinct() const { return values.size(); }
};

// Interns column `attr_idx` of `relation`. Ids are assigned in first-
// occurrence order (deterministic).
AttributeValueIndex InternColumn(const Relation& relation,
                                 std::size_t attr_idx);

// Precomputed bucketed levels for every unordered pair of distinct
// values of one attribute. Strictly-upper-triangular storage; equal ids
// answer level 0 without a lookup (d(x, x) = 0 is a metric axiom).
class ValuePairLevelTable {
 public:
  // Precomputes the table with `metric`/`scale`/`dmax` (the same cap
  // and bucketing matching/builder.cc applies per pair), parallelized
  // over `threads`. Returns nullptr when the table would not pay off:
  // more cells than `pairs_to_compute` row pairs, or more than
  // `max_cells` cells (the memory bound — one byte per cell).
  static std::unique_ptr<ValuePairLevelTable> Build(
      const AttributeValueIndex& index, const DistanceMetric& metric,
      double scale, int dmax, std::uint64_t pairs_to_compute,
      std::uint64_t max_cells, std::size_t threads);

  Level LevelOf(std::uint32_t id_a, std::uint32_t id_b) const {
    if (id_a == id_b) return 0;
    const auto [lo, hi] = std::minmax(id_a, id_b);
    return table_[TriIndex(lo, hi)];
  }

  // Number of metric evaluations the precomputation performed.
  std::uint64_t distances_computed() const { return table_.size(); }

  // Heap bytes of the triangular level table (one byte per cell).
  // Feeds the mem.value_cache_bytes gauge (obs/resource.h).
  std::size_t MemoryUsageBytes() const {
    return table_.capacity() * sizeof(Level);
  }

 private:
  ValuePairLevelTable(std::uint64_t distinct) : d_(distinct) {}

  std::uint64_t TriIndex(std::uint64_t lo, std::uint64_t hi) const {
    return lo * (d_ - 1) - lo * (lo - 1) / 2 + (hi - lo - 1);
  }

  std::uint64_t d_;
  std::vector<Level> table_;
};

}  // namespace dd

#endif  // DD_MATCHING_VALUE_CACHE_H_
