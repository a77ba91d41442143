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
// inserts; each new tuple is one run against every earlier position. A
// per-batch source is bounded by the live window, so a wrapping stream
// needs no append path or compaction.
//
// Complexity per batch of b inserts and k deletes over N live tuples
// with a matching relation of M tuples:
//   interning       O((N + b) · attrs)
//   distance work   O((N + b) · b)       — at most this many metric calls
//   delete compact  O(M) reads of the pair ids (k > 0 only; one
//                   branch-free pass against a byte mask of the k ids)
//                   plus O(removed · attrs) moves, removed < N·k —
//                   at most one tail row per hole
// versus O((N+b-k)²/2) distance evaluations for a rebuild.

#ifndef DD_INCR_INCREMENTAL_BUILDER_H_
#define DD_INCR_INCREMENTAL_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "incr/tuple_store.h"
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
        matching_(attributes_, options_.matching.dmax) {}

  TupleStore store_;
  std::vector<std::string> attributes_;
  IncrementalOptions options_;
  ResolvedMetrics resolved_;
  MatchingRelation matching_;
};

}  // namespace dd

#endif  // DD_INCR_INCREMENTAL_BUILDER_H_
