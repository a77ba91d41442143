#include "matching/value_cache.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/parallel.h"
#include "matching/builder.h"

namespace dd {

std::vector<std::uint32_t> AllRows(std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::uint32_t{0});
  return rows;
}

AttributeValueIndex InternColumn(const Relation& relation,
                                 std::span<const std::uint32_t> rows,
                                 std::size_t attr_idx) {
  AttributeValueIndex index;
  index.row_ids.resize(rows.size());
  std::unordered_map<std::string_view, std::uint32_t> ids;
  ids.reserve(rows.size());
  for (std::size_t pos = 0; pos < rows.size(); ++pos) {
    const std::string& value = relation.at(rows[pos], attr_idx);
    const auto [it, inserted] = ids.emplace(
        std::string_view(value), static_cast<std::uint32_t>(index.values.size()));
    if (inserted) index.values.push_back(it->first);
    index.row_ids[pos] = it->second;
  }
  return index;
}

std::vector<std::uint32_t> DistinctIds(std::span<const std::uint32_t> row_ids,
                                       std::size_t distinct) {
  std::vector<std::uint8_t> seen(distinct, 0);
  std::vector<std::uint32_t> ids;
  for (const std::uint32_t id : row_ids) {
    if (seen[id] == 0) ids.push_back(id);
    seen[id] = 1;
  }
  return ids;
}

LevelRoute ChooseLevelRoute(std::uint64_t distinct,
                            std::uint64_t query_distinct,
                            std::uint64_t pairs_to_compute) {
  // One distinct value: every pair takes the equal-value shortcut.
  if (distinct < 2) return LevelRoute::kMetric;
  const std::uint64_t table = distinct * (distinct - 1) / 2;
  const std::uint64_t rows = query_distinct * (distinct - 1);
  const bool table_fits = table <= kMaxLevelTableCells;
  const bool rows_fit = query_distinct * distinct <= kMaxLevelTableCells;
  // Each side pays off only with strictly fewer evaluations than pairs.
  if (table_fits && table < pairs_to_compute && (!rows_fit || table <= rows)) {
    return LevelRoute::kTable;
  }
  if (rows_fit && rows < pairs_to_compute) return LevelRoute::kRows;
  return LevelRoute::kMetric;
}

std::unique_ptr<ValuePairLevelTable> ValuePairLevelTable::Build(
    const AttributeValueIndex& index, const PreparedColumn& column,
    double scale, int dmax, std::size_t threads) {
  const std::uint64_t d = index.distinct();
  const std::uint64_t cells = d < 2 ? 0 : d * (d - 1) / 2;
  std::unique_ptr<ValuePairLevelTable> table(new ValuePairLevelTable(d));
  table->table_.resize(cells);
  const double cap = static_cast<double>(dmax) / scale;
  Level* out = table->table_.data();
  std::vector<std::uint32_t> ids(d);
  std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  std::atomic<std::uint64_t> bounded{0};
  ParallelFor("value_cache.build", cells, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                // One BoundedDistanceMany call per run lets the metric
                // prepare values[i] once.
                std::vector<double> raw(std::min<std::uint64_t>(end - begin, d));
                std::uint64_t chunk_bounded = 0;
                ForEachTriangularRun(
                    begin, end, d,
                    [&](std::uint64_t k, std::uint32_t i, std::uint32_t j_begin,
                        std::uint32_t j_end) {
                      const std::size_t run = j_end - j_begin;
                      chunk_bounded += column.BoundedDistanceMany(
                          i, std::span(ids).subspan(j_begin, run), cap,
                          std::span(raw).first(run));
                      for (std::size_t r = 0; r < run; ++r) {
                        out[k + r] = BucketDistance(raw[r], scale, dmax);
                      }
                    });
                bounded.fetch_add(chunk_bounded, std::memory_order_relaxed);
              });
  table->bounded_ = bounded.load(std::memory_order_relaxed);
  return table;
}

std::unique_ptr<ValueLevelRows> ValueLevelRows::Build(
    const AttributeValueIndex& index, std::span<const std::uint32_t> queries,
    const PreparedColumn& column, double scale, int dmax,
    std::size_t threads) {
  const std::uint64_t d = index.distinct();
  std::unique_ptr<ValueLevelRows> rows(new ValueLevelRows(d));
  rows->slot_.assign(d, 0);
  for (std::size_t s = 0; s < queries.size(); ++s) {
    rows->slot_[queries[s]] = static_cast<std::uint32_t>(s);
  }
  const std::uint64_t cells = queries.size() * d;
  rows->rows_.resize(cells);
  rows->computed_ = d == 0 ? 0 : queries.size() * (d - 1);
  const double cap = static_cast<double>(dmax) / scale;
  Level* out = rows->rows_.data();
  std::atomic<std::uint64_t> bounded{0};
  ParallelFor("value_cache.rows", cells, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                std::vector<std::uint32_t> others;
                std::vector<double> raw;
                std::uint64_t chunk_bounded = 0;
                // A chunk covers the tail of one row, whole rows and the
                // head of another: one BoundedDistanceMany call each.
                for (std::uint64_t cell = begin; cell < end;) {
                  const std::uint64_t slot = cell / d;
                  const std::uint32_t query = queries[slot];
                  const std::uint64_t lo = cell - slot * d;
                  const std::uint64_t hi = std::min(d, lo + (end - cell));
                  others.clear();
                  for (std::uint64_t id = lo; id < hi; ++id) {
                    if (id != query) {
                      others.push_back(static_cast<std::uint32_t>(id));
                    }
                  }
                  raw.resize(others.size());
                  chunk_bounded +=
                      column.BoundedDistanceMany(query, others, cap, raw);
                  Level* row = out + slot * d;
                  for (std::size_t k = 0; k < others.size(); ++k) {
                    row[others[k]] = BucketDistance(raw[k], scale, dmax);
                  }
                  // d(x, x) = 0, a metric axiom.
                  if (query >= lo && query < hi) row[query] = 0;
                  cell += hi - lo;
                }
                bounded.fetch_add(chunk_bounded, std::memory_order_relaxed);
              });
  rows->bounded_ = bounded.load(std::memory_order_relaxed);
  return rows;
}

}  // namespace dd
