#include "matching/builder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "matching/pair_sampler.h"
#include "matching/value_cache.h"
#include "metric/metric.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

namespace {

std::vector<AttributeValueIndex> InternRows(
    const Relation& relation, std::span<const std::uint32_t> rows,
    const ResolvedMetrics& resolved) {
  std::vector<AttributeValueIndex> indexes;
  indexes.reserve(resolved.num_attributes());
  for (const std::size_t col : resolved.attr_idx) {
    indexes.push_back(InternColumn(relation, rows, col));
  }
  return indexes;
}

}  // namespace

PairLevelSource::PairLevelSource(const Relation& relation,
                                 std::span<const std::uint32_t> rows,
                                 std::uint32_t first_query,
                                 const ResolvedMetrics& resolved,
                                 std::uint64_t pairs_to_compute,
                                 std::size_t threads)
    : PairLevelSource(InternRows(relation, rows, resolved), first_query,
                      resolved, pairs_to_compute, threads) {}

PairLevelSource::PairLevelSource(std::vector<AttributeValueIndex> indexes,
                                 std::uint32_t first_query,
                                 const ResolvedMetrics& resolved,
                                 std::uint64_t pairs_to_compute,
                                 std::size_t threads)
    : resolved_(resolved), attrs_(resolved.num_attributes()) {
  DD_CHECK_EQ(indexes.size(), attrs_.size());
  for (std::size_t a = 0; a < attrs_.size(); ++a) {
    AttrLevelSource& attr = attrs_[a];
    attr.index = std::move(indexes[a]);
    attr.column = resolved.metrics[a]->Prepare(attr.index.values);
    const std::vector<std::uint32_t> queries = DistinctIds(
        std::span(attr.index.row_ids).subspan(first_query),
        attr.index.distinct());
    switch (ChooseLevelRoute(attr.index.distinct(), queries.size(),
                             pairs_to_compute)) {
      case LevelRoute::kTable:
        attr.table = ValuePairLevelTable::Build(attr.index, *attr.column,
                                                resolved.scales[a],
                                                resolved.dmax, threads);
        precomputed_.computed += attr.table->distances_computed();
        precomputed_.bounded += attr.table->distances_bounded();
        break;
      case LevelRoute::kRows:
        attr.rows = ValueLevelRows::Build(attr.index, queries, *attr.column,
                                          resolved.scales[a], resolved.dmax,
                                          threads);
        precomputed_.computed += attr.rows->distances_computed();
        precomputed_.bounded += attr.rows->distances_bounded();
        break;
      case LevelRoute::kMetric:
        break;
    }
  }
}

void PublishMetricWork(const MetricWork& work) {
  static obs::Counter& computed =
      obs::MetricsRegistry::Global().GetCounter("matching.distances_computed");
  static obs::Counter& bounded =
      obs::MetricsRegistry::Global().GetCounter("matching.distances_bounded");
  computed.Add(work.computed);
  bounded.Add(work.bounded);
}

void PairLevelSource::Levels(std::uint32_t i, std::uint32_t j_begin,
                             std::uint32_t j_end, Level* out,
                             std::size_t attr_stride, std::size_t pair_stride,
                             MetricWork* work) const {
  for (std::size_t a = 0; a < attrs_.size(); ++a) {
    const std::vector<std::uint32_t>& row_ids = attrs_[a].index.row_ids;
    AttrLevels(a, row_ids[i], row_ids.data() + j_begin, j_end - j_begin,
               out + a * attr_stride, pair_stride, work);
  }
}

void PairLevelSource::Levels(std::uint32_t i,
                             std::span<const std::uint32_t> js, Level* out,
                             std::size_t attr_stride, std::size_t pair_stride,
                             MetricWork* work) const {
  // The listed positions' value ids; per thread, like AttrLevels'
  // operands.
  thread_local std::vector<std::uint32_t> ids;
  ids.resize(js.size());
  for (std::size_t a = 0; a < attrs_.size(); ++a) {
    const std::vector<std::uint32_t>& row_ids = attrs_[a].index.row_ids;
    for (std::size_t r = 0; r < js.size(); ++r) ids[r] = row_ids[js[r]];
    AttrLevels(a, row_ids[i], ids.data(), js.size(), out + a * attr_stride,
               pair_stride, work);
  }
}

void PairLevelSource::AttrLevels(std::size_t a, std::uint32_t id_i,
                                 const std::uint32_t* ids, std::size_t run,
                                 Level* column, std::size_t pair_stride,
                                 MetricWork* work) const {
  const AttrLevelSource& attr = attrs_[a];
  if (attr.table != nullptr) {
    for (std::size_t r = 0; r < run; ++r) {
      column[r * pair_stride] = attr.table->LevelOf(id_i, ids[r]);
    }
    return;
  }
  if (attr.rows != nullptr) {
    const Level* row = attr.rows->Row(id_i);
    for (std::size_t r = 0; r < run; ++r) {
      column[r * pair_stride] = row[ids[r]];
    }
    return;
  }
  // The metric route's operands; per thread, so concurrent callers
  // never share them and a run allocates nothing once warm.
  thread_local std::vector<std::uint32_t> others;
  thread_local std::vector<double> raw;
  others.clear();
  for (std::size_t r = 0; r < run; ++r) {
    if (ids[r] != id_i) others.push_back(ids[r]);
  }
  const double scale = resolved_.scales[a];
  // Any raw distance mapping to >= dmax is equivalent, so the metric
  // may stop early at raw cap = dmax / scale.
  const double cap = static_cast<double>(resolved_.dmax) / scale;
  raw.resize(others.size());
  work->computed += others.size();
  work->bounded += attr.column->BoundedDistanceMany(id_i, others, cap, raw);
  for (std::size_t r = 0, k = 0; r < run; ++r) {
    column[r * pair_stride] =  // d(x, x) = 0, a metric axiom.
        ids[r] == id_i ? 0 : BucketDistance(raw[k++], scale, resolved_.dmax);
  }
}

MetricWork FillAllPairs(const PairLevelSource& source,
                        std::span<const std::uint32_t> rows,
                        std::size_t threads, MatchingRelation* out) {
  const std::uint64_t n = rows.size();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const std::size_t num_attrs = out->num_attributes();
  out->ResizeRows(total_pairs);
  std::mutex mu;
  MetricWork total;
  ParallelFor("matching_build.pairs", total_pairs, threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                std::vector<Level> levels;
                MetricWork work;
                ForEachTriangularRun(
                    begin, end, n,
                    [&](std::uint64_t k, std::uint32_t i, std::uint32_t j_begin,
                        std::uint32_t j_end) {
                      const std::size_t run = j_end - j_begin;
                      levels.resize(run * num_attrs);
                      source.Levels(i, j_begin, j_end, levels.data(),
                                    /*attr_stride=*/run, /*pair_stride=*/1,
                                    &work);
                      out->StoreLevels(k, run, levels.data(), run);
                      for (std::uint32_t j = j_begin; j < j_end; ++j) {
                        out->SetPair(k + (j - j_begin), rows[i], rows[j]);
                      }
                    });
                std::lock_guard<std::mutex> lock(mu);
                total += work;
              });
  return total;
}

MetricWork FillSampledPairs(const PairLevelSource& source, std::uint64_t n,
                            std::span<const std::uint64_t> ks,
                            std::size_t threads, MatchingRelation* out) {
  const std::size_t offset = out->num_tuples();
  const std::size_t num_attrs = out->num_attributes();
  out->ResizeRows(offset + ks.size());
  std::mutex mu;
  MetricWork total;
  ParallelFor("matching_build.sampled", ks.size(), threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                std::vector<std::uint32_t> js;
                std::vector<Level> levels;
                MetricWork work;
                // One run per row i: the chunk's sampled partners of i,
                // which are adjacent in the sorted ks.
                for (std::size_t r = begin; r < end;) {
                  const std::uint32_t i = DecodeTriangularPair(ks[r], n).first;
                  // Pair (i, j) has index start + (j - i - 1).
                  const std::uint64_t start = EncodeTriangularPair(i, i + 1, n);
                  const std::uint64_t stop = start + (n - 1 - i);
                  js.clear();
                  for (; r < end && ks[r] < stop; ++r) {
                    js.push_back(
                        static_cast<std::uint32_t>(i + 1 + (ks[r] - start)));
                  }
                  const std::size_t run = js.size();
                  const std::size_t first = offset + r - run;
                  levels.resize(run * num_attrs);
                  source.Levels(i, js, levels.data(), /*attr_stride=*/run,
                                /*pair_stride=*/1, &work);
                  out->StoreLevels(first, run, levels.data(), run);
                  for (std::size_t p = 0; p < run; ++p) {
                    out->SetPair(first + p, i, js[p]);
                  }
                }
                std::lock_guard<std::mutex> lock(mu);
                total += work;
              });
  return total;
}

std::pair<std::uint32_t, std::uint32_t> DecodeTriangularPair(std::uint64_t k,
                                                             std::uint64_t n) {
  // Row r holds the n-1-r pairs (r, r+1..n-1), so pairs before row r
  // number r*(n-1) - r*(r-1)/2. Start from the quadratic-formula
  // estimate of the row, then correct by +-1 steps.
  double nd = static_cast<double>(n);
  double kd = static_cast<double>(k);
  double approx = nd - 0.5 - std::sqrt((nd - 0.5) * (nd - 0.5) - 2.0 * kd);
  std::uint64_t i = approx > 0 ? static_cast<std::uint64_t>(approx) : 0;
  if (i >= n - 1) i = n - 2;
  auto row_start = [n](std::uint64_t r) {
    return r * (n - 1) - r * (r - 1) / 2;  // offset of pair (r, r+1)
  };
  while (i + 1 < n && row_start(i + 1) <= k) ++i;
  while (i > 0 && row_start(i) > k) --i;
  std::uint64_t j = i + 1 + (k - row_start(i));
  return {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)};
}

std::uint64_t EncodeTriangularPair(std::uint64_t i, std::uint64_t j,
                                   std::uint64_t n) {
  return i * (n - 1) - i * (i - 1) / 2 + (j - i - 1);
}

Level BucketDistance(double raw, double scale, int dmax) {
  if (!(raw >= 0.0)) raw = 0.0;  // NaN or negative metrics clamp to 0.
  double scaled = raw * scale;
  if (std::isinf(scaled) || scaled >= static_cast<double>(dmax)) {
    return static_cast<Level>(dmax);
  }
  long level = std::lround(scaled);
  if (level < 0) level = 0;
  if (level > dmax) level = dmax;
  return static_cast<Level>(level);
}

Result<ResolvedMetrics> ResolveMatchingMetrics(
    const Schema& schema, const std::vector<std::string>& attributes,
    const MatchingOptions& options) {
  if (options.dmax < 1 || options.dmax > 255) {
    return Status::InvalidArgument(
        StrFormat("dmax %d outside [1, 255]", options.dmax));
  }
  if (attributes.empty()) {
    return Status::InvalidArgument("no attributes given");
  }
  ResolvedMetrics resolved;
  resolved.dmax = options.dmax;
  DD_ASSIGN_OR_RETURN(resolved.attr_idx, schema.ResolveAll(attributes));
  resolved.metrics.reserve(attributes.size());
  for (std::size_t a = 0; a < attributes.size(); ++a) {
    const Attribute& attr = schema.attribute(resolved.attr_idx[a]);
    std::string metric_name =
        attr.type == AttributeType::kNumeric ? "numeric_abs" : "levenshtein";
    auto it = options.metric_overrides.find(attr.name);
    if (it != options.metric_overrides.end()) metric_name = it->second;
    DD_ASSIGN_OR_RETURN(auto metric,
                        MetricRegistry::Default().Create(metric_name));
    double scale = metric->is_normalized() ? static_cast<double>(options.dmax)
                                           : 1.0;
    auto sit = options.scale_overrides.find(attr.name);
    if (sit != options.scale_overrides.end()) scale = sit->second;
    // An infinite scale turns a zero distance into 0 * inf = NaN.
    if (!(scale > 0.0) || !std::isfinite(scale)) {
      return Status::InvalidArgument("scale must be positive and finite for " +
                                     attr.name);
    }
    resolved.metrics.push_back(std::move(metric));
    resolved.scales.push_back(scale);
  }
  return resolved;
}

Result<MatchingRelation> BuildMatchingRelation(
    const Relation& relation, const std::vector<std::string>& attributes,
    const MatchingOptions& options) {
  obs::TraceSpan span("matching_build");
  static obs::Counter& pairs_counter =
      obs::MetricsRegistry::Global().GetCounter("matching.pairs_computed");
  DD_ASSIGN_OR_RETURN(
      ResolvedMetrics resolved,
      ResolveMatchingMetrics(relation.schema(), attributes, options));

  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  const std::size_t threads =
      options.threads == 0 ? DefaultThreads() : options.threads;
  MatchingRelation out(attributes, options.dmax);

  const bool full =
      options.max_pairs == 0 || options.max_pairs >= total_pairs;
  const std::uint64_t pairs_to_compute =
      full ? total_pairs : options.max_pairs;
  const std::vector<std::uint32_t> rows = AllRows(n);
  const PairLevelSource source(relation, rows, /*first_query=*/0, resolved,
                               pairs_to_compute, threads);
  MetricWork work = source.precomputed();
  if (full) {
    work += FillAllPairs(source, rows, threads, &out);
  } else {
    // Uniform sample without replacement over the triangular enumeration.
    const std::vector<std::uint64_t> ks =
        PairSampler(total_pairs, options.seed, {}).GrowTo(options.max_pairs);
    work += FillSampledPairs(source, n, ks, threads, &out);
  }
  pairs_counter.Add(out.num_tuples());
  PublishMetricWork(work);
  DD_LOG(INFO) << "matching relation built: " << out.num_tuples() << " of "
               << total_pairs << " pairs over " << n << " rows, "
               << attributes.size() << " attribute(s), dmax=" << options.dmax
               << ", threads=" << threads << ", cached level tables: "
               << source.tables_built() << "/" << attributes.size();
  obs::SetMemoryGauge("matching", out.MemoryUsageBytes());
  obs::SetMemoryGauge("value_cache", source.cache_bytes());
  return out;
}

}  // namespace dd
