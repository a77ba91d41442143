// Value-pair distance cache for the matching build. Real entity-
// resolution data (Cora, Restaurant, Hotel) is highly repetitive per
// attribute: N rows typically carry D << N distinct values, yet the
// naive build recomputes the metric for every one of the N(N-1)/2 row
// pairs. Interning distinct values per attribute turns each row pair
// into an id pair; a precomputed triangular level table over the D
// distinct values then answers every pair with one load, so each
// distinct (value_i, value_j) distance is computed exactly once. The
// index and table are built per PairLevelSource (matching/builder.h),
// the one pair-level kernel behind every matching producer.
//
// Determinism: the table is a pure function of the column contents and
// the metric configuration — the same cap and BucketDistance mapping the
// kernel's metric route uses, through BoundedDistanceMany, whose
// contract is BoundedDistance's — so a lookup returns the level the
// metric would, at any thread count.

#ifndef DD_MATCHING_VALUE_CACHE_H_
#define DD_MATCHING_VALUE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "matching/matching_relation.h"
#include "metric/metric.h"

namespace dd {

// Per-attribute cell bound of a level table (one byte per cell).
// Attributes whose table would exceed it keep the equal-value shortcut
// and the metric.
inline constexpr std::uint64_t kMaxLevelTableCells = std::uint64_t{1} << 26;

// Distinct-value interning for one attribute column over a list of
// rows: row_ids[pos] is the id of the value of rows[pos]; values[id]
// points at a representative occurrence inside the relation (stable for
// the relation's lifetime).
struct AttributeValueIndex {
  std::vector<std::uint32_t> row_ids;
  std::vector<const std::string*> values;

  std::size_t distinct() const { return values.size(); }
};

// The rows 0..n-1 of a whole relation.
std::vector<std::uint32_t> AllRows(std::size_t n);

// Interns column `attr_idx` of `relation` at `rows`. Ids are assigned in
// first-occurrence order (deterministic).
AttributeValueIndex InternColumn(const Relation& relation,
                                 std::span<const std::uint32_t> rows,
                                 std::size_t attr_idx);

// Precomputed bucketed levels for every unordered pair of distinct
// values of one attribute. Strictly-upper-triangular storage; equal ids
// answer level 0 without a lookup (d(x, x) = 0 is a metric axiom).
class ValuePairLevelTable {
 public:
  // Precomputes the table with `metric`/`scale`/`dmax` (the same cap
  // and bucketing matching/builder.cc applies per pair), parallelized
  // over `threads`. Returns nullptr when the table would not pay off:
  // at least as many cells as `pairs_to_compute` row pairs, or more
  // than kMaxLevelTableCells cells.
  static std::unique_ptr<ValuePairLevelTable> Build(
      const AttributeValueIndex& index, const DistanceMetric& metric,
      double scale, int dmax, std::uint64_t pairs_to_compute,
      std::size_t threads);

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
