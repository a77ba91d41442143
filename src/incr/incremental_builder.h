// Delta-based maintenance of the matching relation under inserts and
// deletes. The paper builds M once over a static instance; under live
// traffic a batch of b changes against N live tuples only affects the
// pairs touching changed tuples, so ApplyBatch computes the N·b + C(b,2)
// new distance vectors and fills each deleted pair's row from M's tail
// — instead of the O(N²) from-scratch rebuild. Row order inside M is
// therefore not canonical; SortByPairs restores ascending pair order.
//
// The levels come from the shared pair-level kernel (PairLevelSource,
// matching/builder.h), built per batch over the live tuples plus the
// inserts; each new tuple is one run against every earlier position, so
// only the new tuples head runs: an attribute whose new values are few
// gets one level row per distinct new value instead of a table over the
// whole window. A per-batch source is bounded by the live window, so a
// wrapping stream needs no append path or compaction.
//
// The values themselves persist across batches: one ValueDictionary
// per attribute holds the distinct live values with reference counts,
// and a live list holds the ascending live ids with each position's
// dictionary ids. A batch acquires its inserts' values, releases its
// deletes', and builds the source's indexes from the live list by one
// integer pass (ValueDictionary::Index), equal to interning the window.
//
// Complexity per batch of b inserts and k deletes over N live tuples
// with a matching relation of M tuples:
//   interning       O((b + k) · attrs) hash lookups, plus one
//                   O((N + b) · attrs) integer pass over the live list
//   distance work   O((N + b) · b)       — at most this many metric calls
//   delete compact  O(M) reads of the pair ids (k > 0 only; a
//                   branch-free pass against a byte mask over the ids
//                   from the oldest live one, split across the pool) plus
//                   O(removed · attrs) moves, removed < N·k — at most
//                   one tail row per hole
// and no walk over every id the stream has assigned, versus
// O((N+b-k)²/2) distance evaluations for a rebuild.

#ifndef DD_INCR_INCREMENTAL_BUILDER_H_
#define DD_INCR_INCREMENTAL_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "incr/tuple_store.h"
#include "incr/value_dictionary.h"
#include "matching/builder.h"
#include "matching/delta.h"
#include "matching/matching_relation.h"

namespace dd {

struct IncrementalOptions {
  // dmax / metric / scale / threads configuration. max_pairs must be 0:
  // sampling does not compose with deltas (a sampled M cannot tell which
  // of the N·b affected pairs it would have contained).
  MatchingOptions matching;
};

class IncrementalMatchingBuilder {
 public:
  // Starts from an empty instance. Fails on unknown attributes/metrics,
  // bad dmax, or a nonzero max_pairs.
  static Result<IncrementalMatchingBuilder> Create(
      const Schema& schema, std::vector<std::string> attributes,
      IncrementalOptions options);

  // Applies one batch: deletes first (by tuple id), then inserts (rows
  // in schema order; ids are assigned ascending). Returns the delta
  // that transformed matching() — feed it to GridMeasureProvider::Apply
  // to keep counting queries O(1). The whole batch is validated before
  // any mutation, so a failed call leaves the state untouched.
  Result<MatchingDelta> ApplyBatch(
      const std::vector<std::vector<std::string>>& inserts,
      const std::vector<std::uint32_t>& deletes);

  // The delta-maintained matching relation over the live instance.
  const MatchingRelation& matching() const { return matching_; }
  const TupleStore& store() const { return store_; }
  // The persistent dictionary of attribute `a` (attributes()[a]): the
  // distinct values of the live tuples, each counted once per tuple.
  const ValueDictionary& dictionary(std::size_t a) const {
    return dicts_[a];
  }
  const std::vector<std::string>& attributes() const { return attributes_; }
  int dmax() const { return options_.matching.dmax; }

  // Reference implementation: the matching relation of the current live
  // instance built from scratch in ascending pair order, by the one-shot
  // build's triangle walk (FillAllPairs). The property tests assert that
  // matching() (canonicalized via SortByPairs) equals this exactly; the
  // benchmarks use it as the rebuild baseline.
  MatchingRelation Rebuild() const;

 private:
  IncrementalMatchingBuilder(Schema schema,
                             std::vector<std::string> attributes,
                             IncrementalOptions options,
                             ResolvedMetrics resolved)
      : store_(std::move(schema)),
        attributes_(std::move(attributes)),
        options_(std::move(options)),
        resolved_(std::move(resolved)),
        matching_(attributes_, options_.matching.dmax),
        dicts_(attributes_.size()),
        live_values_(attributes_.size()) {}

  // Drops `sorted_deletes` from the live list and appends the inserts,
  // which the store has just given the ids first_id, first_id + 1, ...
  // The inserts' values are acquired before the deletes' are released,
  // so a value that leaves and returns in one batch keeps its entry.
  // Returns the number of dictionary entries created.
  std::uint64_t UpdateLiveList(
      const std::vector<std::vector<std::string>>& inserts,
      const std::vector<std::uint32_t>& sorted_deletes,
      std::uint32_t first_id);

  TupleStore store_;
  std::vector<std::string> attributes_;
  IncrementalOptions options_;
  ResolvedMetrics resolved_;
  MatchingRelation matching_;
  std::vector<ValueDictionary> dicts_;  // one per attribute
  // The live list: ascending live ids, and per attribute each position's
  // dictionary id. Maintained per batch, so no batch walks every id the
  // stream has assigned (TupleStore::LiveIds is O(next_id)).
  std::vector<std::uint32_t> live_ids_;
  std::vector<std::vector<std::uint32_t>> live_values_;
};

}  // namespace dd

#endif  // DD_INCR_INCREMENTAL_BUILDER_H_
