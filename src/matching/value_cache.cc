#include "matching/value_cache.h"

#include <algorithm>
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
    if (inserted) index.values.push_back(&value);
    index.row_ids[pos] = it->second;
  }
  return index;
}

std::unique_ptr<ValuePairLevelTable> ValuePairLevelTable::Build(
    const AttributeValueIndex& index, const DistanceMetric& metric,
    double scale, int dmax, std::uint64_t pairs_to_compute,
    std::size_t threads) {
  const std::uint64_t d = index.distinct();
  if (d < 2) return nullptr;
  const std::uint64_t cells = d * (d - 1) / 2;
  // No payoff unless strictly fewer distinct pairs than row pairs.
  if (cells >= pairs_to_compute || cells > kMaxLevelTableCells) return nullptr;

  std::unique_ptr<ValuePairLevelTable> table(new ValuePairLevelTable(d));
  table->table_.resize(cells);
  const double cap = static_cast<double>(dmax) / scale;
  Level* out = table->table_.data();
  std::vector<std::string_view> values;
  values.reserve(d);
  for (const std::string* v : index.values) values.emplace_back(*v);
  ParallelFor("value_cache.build", cells, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                // One BoundedDistanceMany call per run lets the metric
                // prepare values[i] once.
                std::vector<double> raw(std::min<std::uint64_t>(end - begin, d));
                ForEachTriangularRun(
                    begin, end, d,
                    [&](std::uint64_t k, std::uint32_t i, std::uint32_t j_begin,
                        std::uint32_t j_end) {
                      const std::size_t run = j_end - j_begin;
                      metric.BoundedDistanceMany(
                          values[i], std::span(values).subspan(j_begin, run),
                          cap, std::span(raw).first(run));
                      for (std::size_t r = 0; r < run; ++r) {
                        out[k + r] = BucketDistance(raw[r], scale, dmax);
                      }
                    });
              });
  return table;
}

}  // namespace dd
