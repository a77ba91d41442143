#include "matching/value_cache.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/parallel.h"
#include "matching/builder.h"

namespace dd {

AttributeValueIndex InternColumn(const Relation& relation,
                                 std::size_t attr_idx) {
  AttributeValueIndex index;
  const std::size_t n = relation.num_rows();
  index.row_ids.resize(n);
  std::unordered_map<std::string_view, std::uint32_t> ids;
  ids.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::string& value = relation.at(r, attr_idx);
    const auto [it, inserted] = ids.emplace(
        std::string_view(value), static_cast<std::uint32_t>(index.values.size()));
    if (inserted) index.values.push_back(&value);
    index.row_ids[r] = it->second;
  }
  return index;
}

std::unique_ptr<ValuePairLevelTable> ValuePairLevelTable::Build(
    const AttributeValueIndex& index, const DistanceMetric& metric,
    double scale, int dmax, std::uint64_t pairs_to_compute,
    std::uint64_t max_cells, std::size_t threads) {
  const std::uint64_t d = index.distinct();
  if (d < 2) return nullptr;
  const std::uint64_t cells = d * (d - 1) / 2;
  // No payoff unless strictly fewer distinct pairs than row pairs.
  if (cells >= pairs_to_compute || cells > max_cells) return nullptr;

  std::unique_ptr<ValuePairLevelTable> table(new ValuePairLevelTable(d));
  table->table_.resize(cells);
  const double cap = static_cast<double>(dmax) / scale;
  Level* out = table->table_.data();
  std::vector<std::string_view> values;
  values.reserve(d);
  for (const std::string* v : index.values) values.emplace_back(*v);
  ParallelFor("value_cache.build", cells, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                // Cells are row-major, so a chunk is runs of j under a
                // fixed i: one BoundedDistanceMany call per run lets the
                // metric prepare values[i] once.
                std::vector<double> raw(std::min<std::uint64_t>(end - begin, d));
                auto [i, j] = DecodeTriangularPair(begin, d);
                for (std::size_t k = begin; k < end;) {
                  const std::size_t run =
                      std::min<std::uint64_t>(end - k, d - j);
                  metric.BoundedDistanceMany(
                      values[i], std::span(values).subspan(j, run), cap,
                      std::span(raw).first(run));
                  for (std::size_t r = 0; r < run; ++r) {
                    out[k + r] = BucketDistance(raw[r], scale, dmax);
                  }
                  k += run;
                  ++i;
                  j = i + 1;
                }
              });
  return table;
}

}  // namespace dd
