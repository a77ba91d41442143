#include "incr/incremental_builder.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd {

Result<IncrementalMatchingBuilder> IncrementalMatchingBuilder::Create(
    const Schema& schema, std::vector<std::string> attributes,
    IncrementalOptions options) {
  if (options.matching.max_pairs != 0) {
    return Status::InvalidArgument(
        "incremental maintenance needs the full pair set: max_pairs must be 0");
  }
  DD_ASSIGN_OR_RETURN(
      ResolvedMetrics resolved,
      ResolveMatchingMetrics(schema, attributes, options.matching));
  return IncrementalMatchingBuilder(schema, std::move(attributes),
                                    std::move(options), std::move(resolved));
}

Result<MatchingDelta> IncrementalMatchingBuilder::ApplyBatch(
    const std::vector<std::vector<std::string>>& inserts,
    const std::vector<std::uint32_t>& deletes) {
  obs::TraceSpan span("incr/apply_delta");
  static obs::Counter& batches_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.batches");
  static obs::Counter& pairs_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.pairs_recomputed");
  static obs::Counter& removed_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.matching_rows_removed");
  static obs::Counter& distance_counter =
      obs::MetricsRegistry::Global().GetCounter("matching.distances_computed");

  // Validate the whole batch before mutating anything.
  const std::size_t arity = store_.schema().num_attributes();
  for (const auto& values : inserts) {
    if (values.size() != arity) {
      return Status::InvalidArgument(
          StrFormat("insert has %zu values, schema has %zu attributes",
                    values.size(), arity));
    }
  }
  std::vector<std::uint32_t> sorted_deletes = deletes;
  std::sort(sorted_deletes.begin(), sorted_deletes.end());
  for (std::size_t k = 0; k < sorted_deletes.size(); ++k) {
    if (k > 0 && sorted_deletes[k] == sorted_deletes[k - 1]) {
      return Status::InvalidArgument(
          StrFormat("duplicate delete of tuple %u", sorted_deletes[k]));
    }
    if (!store_.IsLive(sorted_deletes[k])) {
      return Status::InvalidArgument(
          StrFormat("delete of unknown or dead tuple %u", sorted_deletes[k]));
    }
  }

  const std::size_t attrs = attributes_.size();
  MatchingDelta delta;
  delta.num_attributes = attrs;

  // Deletes first: retire the ids, then compact every matching tuple
  // that references a dead id out of M (capturing its levels so grid
  // consumers can subtract without re-deriving anything).
  if (!sorted_deletes.empty()) {
    for (std::uint32_t id : sorted_deletes) {
      Status erased = store_.Erase(id);
      DD_CHECK(erased.ok());
    }
    const auto& pairs = matching_.pairs();
    std::vector<std::uint32_t> removed_rows;
    for (std::size_t row = 0; row < pairs.size(); ++row) {
      if (!store_.IsLive(pairs[row].first) ||
          !store_.IsLive(pairs[row].second)) {
        removed_rows.push_back(static_cast<std::uint32_t>(row));
      }
    }
    delta.removed_pairs.reserve(removed_rows.size());
    delta.removed_levels.reserve(removed_rows.size() * attrs);
    for (std::uint32_t row : removed_rows) {
      delta.removed_pairs.push_back(pairs[row]);
      for (std::size_t a = 0; a < attrs; ++a) {
        delta.removed_levels.push_back(matching_.level(row, a));
      }
    }
    matching_.RemoveRows(removed_rows);
  }

  // Inserts: new ids are larger than every existing id, so each new
  // tuple j pairs with all live i < j — the surviving old tuples plus
  // the batch's earlier inserts.
  std::vector<std::uint32_t> rows = store_.LiveIds();
  const std::uint64_t old = rows.size();
  for (const auto& values : inserts) {
    Result<std::uint32_t> id = store_.Insert(values);
    DD_CHECK(id.ok());  // Arity was validated above.
    rows.push_back(*id);
  }

  // Pair counts are 64-bit BY CONTRACT (matching/builder.h): b(b-1)/2
  // overflows 32-bit size types near b ≈ 93k.
  const std::uint64_t b = inserts.size();
  const std::uint64_t total_new = old * b + b * (b - 1) / 2;
  delta.added_pairs.reserve(total_new);
  for (std::uint64_t p = old; p < rows.size(); ++p) {
    for (std::uint64_t i = 0; i < p; ++i) {
      delta.added_pairs.emplace_back(rows[i], rows[p]);
    }
  }
  delta.added_levels.resize(total_new * attrs);
  {
    // Scoped so its level tables are freed before M grows below.
    const PairLevelSource source(store_.relation(), rows, resolved_, total_new,
                                 options_.matching.threads);
    std::atomic<std::uint64_t> metric_calls{source.precomputed_distances()};
    // New tuple k is one run: positions [0, old + k) against position
    // old + k, starting at pair old * k + k(k-1)/2.
    ParallelFor(
        "incr.delta_levels", total_new, options_.matching.threads,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          std::uint64_t calls = 0;
          std::uint64_t p = old;  // position of the run's new tuple
          std::uint64_t start = 0;
          while (start + p <= begin) start += p++;
          for (std::uint64_t t = begin; t < end; start += p++) {
            const std::uint64_t stop = std::min<std::uint64_t>(end, start + p);
            source.Levels(static_cast<std::uint32_t>(p),
                          static_cast<std::uint32_t>(t - start),
                          static_cast<std::uint32_t>(stop - start),
                          &delta.added_levels[t * attrs], &calls);
            t = stop;
          }
          metric_calls.fetch_add(calls, std::memory_order_relaxed);
        });
    distance_counter.Add(metric_calls.load(std::memory_order_relaxed));
  }

  matching_.Reserve(matching_.num_tuples() + total_new);
  std::vector<Level> levels(attrs);
  for (std::size_t p = 0; p < total_new; ++p) {
    const Level* row = delta.added_row(p);
    levels.assign(row, row + attrs);
    matching_.AddTuple(delta.added_pairs[p].first, delta.added_pairs[p].second,
                       levels);
  }

  batches_counter.Increment();
  pairs_counter.Add(total_new);
  removed_counter.Add(delta.num_removed());
  DD_VLOG(1) << "incr batch: +" << b << " tuples / -" << sorted_deletes.size()
             << " tuples, " << total_new << " pairs computed, "
             << delta.num_removed() << " matching rows removed, |M|="
             << matching_.num_tuples();
  return delta;
}

MatchingRelation IncrementalMatchingBuilder::Rebuild() const {
  obs::TraceSpan span("incr/rebuild");
  const std::vector<std::uint32_t> live = store_.LiveIds();
  const std::uint64_t n = live.size();
  // 64-bit pair count (matching/builder.h).
  const PairLevelSource source(store_.relation(), live, resolved_,
                               n * (n - 1) / 2, options_.matching.threads);
  MatchingRelation out(attributes_, options_.matching.dmax);
  FillAllPairs(source, live, options_.matching.threads, &out);
  return out;
}

}  // namespace dd
