#include "incr/incremental_builder.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd {

namespace {

// Ascending rows of `pairs` that touch an id whose `retiring` byte is
// set, in one branch-free pass: every row index is written to a small
// block and kept only when one of its ids is marked.
std::vector<std::uint64_t> RetiredRows(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const std::vector<std::uint8_t>& retiring, std::uint64_t expected) {
  std::vector<std::uint64_t> rows;
  rows.reserve(expected);
  const std::uint8_t* mask = retiring.data();
  constexpr std::size_t kBlock = 1024;
  std::uint64_t block[kBlock];
  for (std::size_t begin = 0; begin < pairs.size(); begin += kBlock) {
    const std::size_t end = std::min(pairs.size(), begin + kBlock);
    std::size_t hits = 0;
    for (std::size_t row = begin; row < end; ++row) {
      block[hits] = row;
      hits += mask[pairs[row].first] | mask[pairs[row].second];
    }
    rows.insert(rows.end(), block, block + hits);
  }
  return rows;
}

}  // namespace

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
  static obs::Counter& moved_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.matching_rows_moved");

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
  // that references a retired id out of M (capturing its levels so grid
  // consumers can subtract without re-deriving anything).
  if (!sorted_deletes.empty()) {
    // M holds every pair of the live tuples: n·k - k(k+1)/2 of them
    // touch one of the k retiring ids.
    const std::uint64_t n = store_.num_live();
    const std::uint64_t k = sorted_deletes.size();
    const std::uint64_t expected = n * k - k * (k + 1) / 2;
    // Only this batch's ids need a mask byte: M holds no pair with an id
    // retired by an earlier batch.
    std::vector<std::uint8_t> retiring(store_.next_id(), 0);
    for (std::uint32_t id : sorted_deletes) {
      Status erased = store_.Erase(id);
      DD_CHECK(erased.ok());
      retiring[id] = 1;
    }
    const std::vector<std::uint64_t> removed_rows =
        RetiredRows(matching_.pairs(), retiring, expected);
    DD_CHECK_EQ(removed_rows.size(), expected);
    const std::size_t removed = removed_rows.size();
    delta.removed_pairs.resize(removed);
    delta.removed_levels.resize(removed * attrs);
    for (std::size_t r = 0; r < removed; ++r) {
      delta.removed_pairs[r] = matching_.pair(removed_rows[r]);
    }
    for (std::size_t a = 0; a < attrs; ++a) {
      const PackedColumn& col = matching_.column(a);
      for (std::size_t r = 0; r < removed; ++r) {
        delta.removed_levels[r * attrs + a] = col.Get(removed_rows[r]);
      }
    }
    moved_counter.Add(matching_.RemoveRows(removed_rows));
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
    std::mutex mu;
    MetricWork total = source.precomputed();
    // New tuple k is one run: positions [0, old + k) against position
    // old + k, starting at pair old * k + k(k-1)/2.
    ParallelFor(
        "incr.delta_levels", total_new, options_.matching.threads,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          MetricWork work;
          std::uint64_t p = old;  // position of the run's new tuple
          std::uint64_t start = 0;
          while (start + p <= begin) start += p++;
          for (std::uint64_t t = begin; t < end; start += p++) {
            const std::uint64_t stop = std::min<std::uint64_t>(end, start + p);
            source.Levels(static_cast<std::uint32_t>(p),
                          static_cast<std::uint32_t>(t - start),
                          static_cast<std::uint32_t>(stop - start),
                          &delta.added_levels[t * attrs],
                          /*attr_stride=*/1, /*pair_stride=*/attrs, &work);
            t = stop;
          }
          std::lock_guard<std::mutex> lock(mu);
          total += work;
        });
    PublishMetricWork(total);
  }

  matching_.AppendRows(delta.added_pairs, delta.added_levels.data());

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
