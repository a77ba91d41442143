// Value-pair distance cache for the matching build. Real entity-
// resolution data (Cora, Restaurant, Hotel) is highly repetitive per
// attribute: N rows typically carry D << N distinct values, yet the
// naive build recomputes the metric for every one of the N(N-1)/2 row
// pairs. Interning distinct values per attribute turns each row pair
// into an id pair; a precomputed triangular level table over the D
// distinct values then answers every pair with one load, so each
// distinct (value_i, value_j) distance is computed exactly once. When
// only a few distinct values head the queried runs (a delta batch's new
// tuples against a whole window), one level row per such value against
// every interned value answers them instead, at q·d cells rather than
// d(d-1)/2. The index, table and rows are built per PairLevelSource
// (matching/builder.h), the one pair-level kernel behind every matching
// producer; ChooseLevelRoute picks among them per attribute.
//
// Determinism: tables and rows are pure functions of the column contents
// and the metric configuration — the same cap and BucketDistance mapping
// the kernel's metric route uses, through the same prepared column
// (PreparedColumn::BoundedDistanceMany, whose contract is
// BoundedDistance's) — so a lookup returns the level the metric would,
// at any thread count.

#ifndef DD_MATCHING_VALUE_CACHE_H_
#define DD_MATCHING_VALUE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "matching/matching_relation.h"
#include "metric/metric.h"

namespace dd {

// Per-attribute cell bound of a level table or a set of level rows (one
// byte per cell). Attributes whose table and rows would both exceed it
// keep the equal-value shortcut and the metric.
inline constexpr std::uint64_t kMaxLevelTableCells = std::uint64_t{1} << 26;

// How a PairLevelSource answers one attribute.
enum class LevelRoute {
  kMetric,  // equal-value shortcut, else BoundedDistanceMany per run
  kTable,   // ValuePairLevelTable over every distinct pair
  kRows,    // ValueLevelRows of the distinct values heading queried runs
};

// Picks the route with the fewest metric evaluations for an attribute
// with `distinct` interned values, `query_distinct` of which head the
// queried runs, and `pairs_to_compute` expected row pairs: a table costs
// d(d-1)/2, rows q(d-1) (a row skips its own value), the metric at most
// one evaluation per pair. Ties go to the table, then to the metric; a
// table or rows past kMaxLevelTableCells cells is never chosen. When
// every value heads a run (q = d, every whole-relation producer), rows
// never win, so those producers keep the table-or-metric choice.
LevelRoute ChooseLevelRoute(std::uint64_t distinct,
                            std::uint64_t query_distinct,
                            std::uint64_t pairs_to_compute);

// Distinct-value interning for one attribute column over a list of
// rows: row_ids[pos] is the id of the value of rows[pos]; values[id]
// views a representative occurrence inside the relation (stable for the
// relation's lifetime).
struct AttributeValueIndex {
  std::vector<std::uint32_t> row_ids;
  std::vector<std::string_view> values;

  std::size_t distinct() const { return values.size(); }
};

// The rows 0..n-1 of a whole relation.
std::vector<std::uint32_t> AllRows(std::size_t n);

// Interns column `attr_idx` of `relation` at `rows`. Ids are assigned in
// first-occurrence order (deterministic).
AttributeValueIndex InternColumn(const Relation& relation,
                                 std::span<const std::uint32_t> rows,
                                 std::size_t attr_idx);

// The distinct ids among `row_ids`, in first-occurrence order, over an
// index of `distinct` values.
std::vector<std::uint32_t> DistinctIds(std::span<const std::uint32_t> row_ids,
                                       std::size_t distinct);

// Precomputed bucketed levels for every unordered pair of distinct
// values of one attribute. Strictly-upper-triangular storage; equal ids
// answer level 0 without a lookup (d(x, x) = 0 is a metric axiom).
class ValuePairLevelTable {
 public:
  // Precomputes the table from `column`, the metric prepared over
  // index.values, with `scale`/`dmax` (the same cap and bucketing
  // matching/builder.cc applies per pair), parallelized over `threads`.
  // Whether a table pays off is ChooseLevelRoute's call.
  static std::unique_ptr<ValuePairLevelTable> Build(
      const AttributeValueIndex& index, const PreparedColumn& column,
      double scale, int dmax, std::size_t threads);

  Level LevelOf(std::uint32_t id_a, std::uint32_t id_b) const {
    if (id_a == id_b) return 0;
    const auto [lo, hi] = std::minmax(id_a, id_b);
    return table_[TriIndex(lo, hi)];
  }

  // Number of metric evaluations the precomputation performed, and how
  // many of them a lower bound settled.
  std::uint64_t distances_computed() const { return table_.size(); }
  std::uint64_t distances_bounded() const { return bounded_; }

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
  std::uint64_t bounded_ = 0;
  std::vector<Level> table_;
};

// Precomputed bucketed levels of a few query values against every
// distinct value of one attribute: one row of d levels per query value.
// The cell of a query value against itself is level 0 and costs no
// metric evaluation.
class ValueLevelRows {
 public:
  // Precomputes a row for each of the distinct ids `queries` from
  // `column` with `scale`/`dmax`, as ValuePairLevelTable::Build does.
  // Parallel over the q·d cells, so a single query still splits across
  // `threads`.
  static std::unique_ptr<ValueLevelRows> Build(
      const AttributeValueIndex& index, std::span<const std::uint32_t> queries,
      const PreparedColumn& column, double scale, int dmax,
      std::size_t threads);

  // The levels of query id `query` against every id; `query` must be one
  // of the ids the rows were built for.
  const Level* Row(std::uint32_t query) const {
    return rows_.data() + std::size_t{slot_[query]} * d_;
  }

  std::uint64_t distances_computed() const { return computed_; }
  std::uint64_t distances_bounded() const { return bounded_; }

  // Heap bytes of the rows and the slot map.
  std::size_t MemoryUsageBytes() const {
    return rows_.capacity() * sizeof(Level) +
           slot_.capacity() * sizeof(std::uint32_t);
  }

 private:
  explicit ValueLevelRows(std::uint64_t distinct) : d_(distinct) {}

  std::uint64_t d_;
  std::uint64_t computed_ = 0;
  std::uint64_t bounded_ = 0;
  std::vector<std::uint32_t> slot_;  // id -> its row; query ids only
  std::vector<Level> rows_;          // [row][id]
};

}  // namespace dd

#endif  // DD_MATCHING_VALUE_CACHE_H_
