// Append-only data-tuple store with stable ids and a live set — the
// evolving-instance counterpart of the static Relation. Ids are
// assigned sequentially on insert and never reused; deletion marks a
// tuple dead but keeps its values addressable, so matching-relation
// pairs (which reference ids) stay meaningful for delta capture and a
// from-scratch rebuild over the live set reproduces the exact id space
// the incremental path maintains.

#ifndef DD_INCR_TUPLE_STORE_H_
#define DD_INCR_TUPLE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/relation.h"

namespace dd {

class TupleStore {
 public:
  explicit TupleStore(Schema schema) : relation_(std::move(schema)) {}

  const Schema& schema() const { return relation_.schema(); }

  // Total tuples ever inserted (== the next id to be assigned).
  std::uint32_t next_id() const {
    return static_cast<std::uint32_t>(relation_.num_rows());
  }
  std::size_t num_live() const { return num_live_; }

  // Appends a tuple and returns its id. Fails on arity mismatch.
  Result<std::uint32_t> Insert(std::vector<std::string> values);

  // Marks `id` dead. Fails on unknown or already-dead ids.
  Status Erase(std::uint32_t id);

  bool IsLive(std::uint32_t id) const {
    return id < live_.size() && live_[id];
  }

  // Values of tuple `id` (live or dead).
  const std::vector<std::string>& row(std::uint32_t id) const {
    return relation_.row(id);
  }

  // Ascending ids of the live tuples. O(next_id).
  std::vector<std::uint32_t> LiveIds() const;

  // The underlying storage, dead rows included; row index == id. The
  // incremental builder interns it through PairLevelSource.
  const Relation& relation() const { return relation_; }

  // Approximate heap bytes of the stored tuples (string capacities plus
  // per-row vector overhead) and the live bitmap. O(1): Insert keeps a
  // running total, since stored values never change. Feeds the
  // mem.tuple_store_bytes gauge (obs/resource.h).
  std::size_t MemoryUsageBytes() const {
    return live_.capacity() / 8 + row_bytes_;
  }

 private:
  Relation relation_;
  std::vector<bool> live_;
  std::size_t num_live_ = 0;
  std::size_t row_bytes_ = 0;  // Σ row footprints, dead rows included
};

}  // namespace dd

#endif  // DD_INCR_TUPLE_STORE_H_
