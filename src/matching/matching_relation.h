// The matching relation M: one "matching tuple" per pair of data tuples,
// holding the pairwise distance on every attribute of interest, bucketed
// into the integer threshold domain {0, ..., dmax}. The paper
// pre-computes M once and evaluates every candidate threshold pattern
// against it; this implementation stores M columnar (one bit-packed,
// 64-byte-aligned level column per attribute — matching/packed_column.h)
// so that counting tuples satisfying a pattern is a tight sequential
// scan the SIMD kernels in core/simd_count.h can vectorize.

#ifndef DD_MATCHING_MATCHING_RELATION_H_
#define DD_MATCHING_MATCHING_RELATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "matching/packed_column.h"

namespace dd {

class MatchingRelation {
 public:
  MatchingRelation(std::vector<std::string> attribute_names, int dmax)
      : attribute_names_(std::move(attribute_names)),
        dmax_(dmax),
        columns_(attribute_names_.size(), PackedColumn(dmax)) {}

  std::size_t num_tuples() const { return pairs_.size(); }
  std::size_t num_attributes() const { return attribute_names_.size(); }
  int dmax() const { return dmax_; }

  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }

  // Index of attribute `name` within this matching relation, or NotFound.
  Result<std::size_t> IndexOf(std::string_view name) const;

  // Distance level of matching tuple `row` on attribute `attr`.
  Level level(std::size_t row, std::size_t attr) const {
    return columns_[attr].Get(row);
  }

  // Packed level column for attribute `attr` (scan-friendly; the SIMD
  // kernels read its raw words).
  const PackedColumn& column(std::size_t attr) const {
    return columns_[attr];
  }

  // The (i, j) data-tuple pair behind matching tuple `row` (i < j).
  const std::pair<std::uint32_t, std::uint32_t>& pair(std::size_t row) const {
    return pairs_[row];
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs() const {
    return pairs_;
  }

  // Appends a matching tuple. `levels` has one entry per attribute.
  void AddTuple(std::uint32_t i, std::uint32_t j,
                const std::vector<Level>& levels);

  // Direct-write construction for parallel builders: size the relation
  // once, then fill disjoint row ranges concurrently with SetTuple.
  // Writing row k with the k-th pair of the enumeration reproduces the
  // sequential AddTuple layout exactly, whatever the chunking.
  void ResizeRows(std::size_t rows);
  void SetTuple(std::size_t row, std::uint32_t i, std::uint32_t j,
                const Level* levels);

  // Level vector of matching tuple `row` across all attributes (a
  // gather over the columnar storage; delta capture, not a hot path).
  std::vector<Level> RowLevels(std::size_t row) const;

  // Appends `pairs.size()` matching tuples in one resize, filling one
  // column at a time from `levels` (row-major, pairs.size() x
  // num_attributes()). Every level must be <= dmax.
  void AppendRows(
      std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
      const Level* levels);

  // Removes the matching tuples at `rows` (ascending, unique indices) by
  // filling each hole with the current last row, walking the holes from
  // the back. Survivor order is not preserved — counting is
  // order-independent, and SortByPairs restores the canonical order.
  // Costs O(rows.size() x attrs): at most one move per removed row and
  // one shrink per column. Returns the number of rows moved (<=
  // rows.size()) — the incremental-maintenance delete path.
  std::size_t RemoveRows(std::span<const std::uint64_t> rows);

  // Reorders matching tuples into ascending (i, j) pair order — the
  // order a from-scratch full-enumeration build produces. Counting is
  // order-independent; this exists so delta-maintained and rebuilt
  // relations can be compared for exact equality.
  void SortByPairs();

  void Reserve(std::size_t rows);

  // Heap bytes held by the columnar storage and the pair list (capacity,
  // not size — what the allocator actually charged us). Feeds the
  // mem.matching_bytes gauge (obs/resource.h).
  std::size_t MemoryUsageBytes() const {
    std::size_t bytes = 0;
    for (const auto& column : columns_) {
      bytes += column.capacity_bytes();
    }
    bytes += pairs_.capacity() * sizeof(pairs_[0]);
    return bytes;
  }

 private:
  std::vector<std::string> attribute_names_;
  int dmax_;
  std::vector<PackedColumn> columns_;  // columns_[attr].Get(row)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
};

}  // namespace dd

#endif  // DD_MATCHING_MATCHING_RELATION_H_
