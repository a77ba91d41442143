#include "matching/matching_relation.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace dd {

Result<std::size_t> MatchingRelation::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < attribute_names_.size(); ++i) {
    if (attribute_names_[i] == name) return i;
  }
  return Status::NotFound("attribute not in matching relation: " +
                          std::string(name));
}

void MatchingRelation::AddTuple(std::uint32_t i, std::uint32_t j,
                                const std::vector<Level>& levels) {
  DD_CHECK_EQ(levels.size(), columns_.size());
  for (std::size_t a = 0; a < levels.size(); ++a) {
    DD_CHECK_LE(static_cast<int>(levels[a]), dmax_);
    columns_[a].PushBack(levels[a]);
  }
  pairs_.emplace_back(i, j);
}

void MatchingRelation::ResizeRows(std::size_t rows) {
  for (auto& col : columns_) col.Resize(rows);
  pairs_.resize(rows);
}

void MatchingRelation::StoreLevels(std::size_t row, std::size_t count,
                                   const Level* levels,
                                   std::size_t attr_stride) {
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    columns_[a].StoreRunShared(row, levels + a * attr_stride, count, 1);
  }
}

void MatchingRelation::Reserve(std::size_t rows) {
  for (auto& col : columns_) col.Reserve(rows);
  pairs_.reserve(rows);
}

std::vector<Level> MatchingRelation::RowLevels(std::size_t row) const {
  DD_CHECK_LT(row, pairs_.size());
  std::vector<Level> levels(columns_.size());
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    levels[a] = columns_[a].Get(row);
  }
  return levels;
}

void MatchingRelation::AppendRows(
    std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
    const Level* levels) {
  const std::size_t count = pairs.size();
  const std::size_t attrs = columns_.size();
  if (count == 0) return;
  DD_CHECK_LE(
      static_cast<int>(*std::max_element(levels, levels + count * attrs)),
      dmax_);
  const std::size_t base = pairs_.size();
  ResizeRows(base + count);
  std::copy(pairs.begin(), pairs.end(), pairs_.begin() + base);
  for (std::size_t a = 0; a < attrs; ++a) {
    columns_[a].StoreRun(base, levels + a, count, attrs);
  }
}

std::size_t MatchingRelation::RemoveRows(std::span<const std::uint64_t> rows) {
  if (rows.empty()) return 0;
  const std::size_t size = pairs_.size();
  for (std::size_t k = 1; k < rows.size(); ++k) {
    DD_CHECK_LT(rows[k - 1], rows[k]);
  }
  DD_CHECK_LT(rows.back(), size);
  // Walking the holes from the back, the current last row is either the
  // hole itself (dropped by the shrink) or a survivor: every hole behind
  // it has already been filled or dropped.
  std::size_t moved = 0;
  std::size_t last = size;
  for (auto hole = rows.rbegin(); hole != rows.rend(); ++hole) {
    if (*hole == --last) continue;
    pairs_[*hole] = pairs_[last];
    for (auto& col : columns_) col.Set(*hole, col.Get(last));
    ++moved;
  }
  ResizeRows(size - rows.size());
  return moved;
}

void MatchingRelation::SortByPairs() {
  if (pairs_.size() > std::numeric_limits<std::uint32_t>::max()) {
    SortByPairsWith<std::uint64_t>();
  } else {
    SortByPairsWith<std::uint32_t>();
  }
}

template <typename Index>
void MatchingRelation::SortByPairsWith() {
  const std::size_t m = pairs_.size();
  DD_CHECK(m == 0 || m - 1 <= std::numeric_limits<Index>::max());
  std::vector<Index> order(m);
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(), [this](Index a, Index b) {
    return pairs_[a] < pairs_[b];
  });
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_pairs(m);
  for (std::size_t r = 0; r < m; ++r) sorted_pairs[r] = pairs_[order[r]];
  pairs_ = std::move(sorted_pairs);
  std::vector<Level> sorted_col(m);
  for (auto& col : columns_) {
    for (std::size_t r = 0; r < m; ++r) sorted_col[r] = col.Get(order[r]);
    col.StoreRun(0, sorted_col.data(), m, 1);
  }
}

template void MatchingRelation::SortByPairsWith<std::uint32_t>();
template void MatchingRelation::SortByPairsWith<std::uint64_t>();

}  // namespace dd
