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

// The rows of `m` that touch an id whose `retiring` byte is set
// (retiring[id - oldest]; every id in `m` is >= oldest), ascending,
// with their pairs and levels stored in `delta`. Parallel over M's
// rows: each chunk finds its rows in one branch-free pass
// (every row index is written to a small block and kept only when one
// of its ids is marked), and the chunks are joined in chunk order, so
// the result is the same at any width. The pairs and levels are then
// gathered in parallel straight into the delta, so no chunk holds a
// copy of them.
std::vector<std::uint64_t> RetireRows(const MatchingRelation& m,
                                      const std::vector<std::uint8_t>& retiring,
                                      std::uint32_t oldest,
                                      std::uint64_t expected,
                                      std::size_t threads,
                                      MatchingDelta* delta) {
  const auto& pairs = m.pairs();
  const std::size_t attrs = m.num_attributes();
  if (threads == 0) threads = DefaultThreads();
  std::vector<std::uint64_t> rows;
  {
    std::vector<std::vector<std::uint64_t>> hits(
        EffectiveChunks(pairs.size(), threads));
    // Chunk 0's list becomes the result, so it is sized for every hit.
    hits[0].reserve(expected);
    ParallelFor("incr.retire", pairs.size(), threads,
                [&](std::size_t c, std::size_t begin, std::size_t end) {
                  const std::uint8_t* mask = retiring.data();
                  constexpr std::size_t kBlock = 1024;
                  std::uint64_t block[kBlock];
                  for (std::size_t b = begin; b < end; b += kBlock) {
                    const std::size_t e = std::min(end, b + kBlock);
                    std::size_t n = 0;
                    for (std::size_t row = b; row < e; ++row) {
                      block[n] = row;
                      n += mask[pairs[row].first - oldest] |
                           mask[pairs[row].second - oldest];
                    }
                    hits[c].insert(hits[c].end(), block, block + n);
                  }
                });
    rows = std::move(hits[0]);
    for (std::size_t c = 1; c < hits.size(); ++c) {
      rows.insert(rows.end(), hits[c].begin(), hits[c].end());
    }
  }
  delta->removed_pairs.resize(rows.size());
  delta->removed_levels.resize(rows.size() * attrs);
  ParallelFor("incr.retire_gather", rows.size(), threads,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t r = begin; r < end; ++r) {
                  delta->removed_pairs[r] = pairs[rows[r]];
                }
                for (std::size_t a = 0; a < attrs; ++a) {
                  const PackedColumn& col = m.column(a);
                  for (std::size_t r = begin; r < end; ++r) {
                    delta->removed_levels[r * attrs + a] = col.Get(rows[r]);
                  }
                }
              });
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
  static obs::Counter& interned_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.values_interned");

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
    obs::TraceSpan retire_span("incr/retire");
    // M holds every pair of the live tuples: n·k - k(k+1)/2 of them
    // touch one of the k retiring ids.
    const std::uint64_t n = store_.num_live();
    const std::uint64_t k = sorted_deletes.size();
    const std::uint64_t expected = n * k - k * (k + 1) / 2;
    // Only this batch's ids need a mask byte, and the mask spans only
    // the ids from the oldest live one up: M holds no pair with an id
    // retired by an earlier batch.
    const std::uint32_t oldest = live_ids_.front();
    std::vector<std::uint8_t> retiring(store_.next_id() - oldest, 0);
    for (std::uint32_t id : sorted_deletes) {
      Status erased = store_.Erase(id);
      DD_CHECK(erased.ok());
      retiring[id - oldest] = 1;
    }
    const std::vector<std::uint64_t> removed_rows =
        RetireRows(matching_, retiring, oldest, expected,
                   options_.matching.threads, &delta);
    DD_CHECK_EQ(removed_rows.size(), expected);
    moved_counter.Add(matching_.RemoveRows(removed_rows));
  }

  // Inserts: new ids are larger than every existing id, so each new
  // tuple j pairs with all live i < j — the surviving old tuples plus
  // the batch's earlier inserts.
  const std::uint32_t first_id = store_.next_id();
  for (const auto& values : inserts) {
    Result<std::uint32_t> id = store_.Insert(values);
    DD_CHECK(id.ok());  // Arity was validated above.
  }
  interned_counter.Add(UpdateLiveList(inserts, sorted_deletes, first_id));
  const std::vector<std::uint32_t>& rows = live_ids_;
  const std::uint64_t old = rows.size() - inserts.size();

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
    // Scoped so its level tables and rows are freed before M grows
    // below. Runs are headed by the new tuples only, so an attribute
    // whose new values are few gets one level row per new value.
    const PairLevelSource source = [&] {
      obs::TraceSpan source_span("incr/delta_source");
      std::vector<AttributeValueIndex> indexes;
      indexes.reserve(attrs);
      for (std::size_t a = 0; a < attrs; ++a) {
        indexes.push_back(dicts_[a].Index(live_values_[a]));
      }
      return PairLevelSource(std::move(indexes),
                             static_cast<std::uint32_t>(old), resolved_,
                             total_new, options_.matching.threads);
    }();
    obs::TraceSpan levels_span("incr/delta_levels");
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

std::uint64_t IncrementalMatchingBuilder::UpdateLiveList(
    const std::vector<std::vector<std::string>>& inserts,
    const std::vector<std::uint32_t>& sorted_deletes, std::uint32_t first_id) {
  const std::size_t attrs = attributes_.size();
  const std::size_t b = inserts.size();
  std::uint64_t created = 0;
  std::vector<std::uint32_t> acquired(b * attrs);
  for (std::size_t k = 0; k < b; ++k) {
    for (std::size_t a = 0; a < attrs; ++a) {
      const std::uint32_t id =
          dicts_[a].Acquire(inserts[k][resolved_.attr_idx[a]]);
      created += dicts_[a].refs(id) == 1 ? 1 : 0;
      acquired[k * attrs + a] = id;
    }
  }
  if (!sorted_deletes.empty()) {
    // Both lists ascend, so one merge pass finds every deleted position.
    std::size_t kept = 0;
    std::size_t d = 0;
    for (std::size_t p = 0; p < live_ids_.size(); ++p) {
      if (d < sorted_deletes.size() && live_ids_[p] == sorted_deletes[d]) {
        for (std::size_t a = 0; a < attrs; ++a) {
          dicts_[a].Release(live_values_[a][p]);
        }
        ++d;
        continue;
      }
      live_ids_[kept] = live_ids_[p];
      for (std::size_t a = 0; a < attrs; ++a) {
        live_values_[a][kept] = live_values_[a][p];
      }
      ++kept;
    }
    DD_CHECK_EQ(d, sorted_deletes.size());
    live_ids_.resize(kept);
    for (auto& values : live_values_) values.resize(kept);
  }
  for (std::size_t k = 0; k < b; ++k) {
    live_ids_.push_back(first_id + static_cast<std::uint32_t>(k));
    for (std::size_t a = 0; a < attrs; ++a) {
      live_values_[a].push_back(acquired[k * attrs + a]);
    }
  }
  return created;
}

MatchingRelation IncrementalMatchingBuilder::Rebuild() const {
  obs::TraceSpan span("incr/rebuild");
  const std::vector<std::uint32_t> live = store_.LiveIds();
  const std::uint64_t n = live.size();
  // 64-bit pair count (matching/builder.h).
  const PairLevelSource source(store_.relation(), live, /*first_query=*/0,
                               resolved_, n * (n - 1) / 2,
                               options_.matching.threads);
  MatchingRelation out(attributes_, options_.matching.dmax);
  FillAllPairs(source, live, options_.matching.threads, &out);
  return out;
}

}  // namespace dd
