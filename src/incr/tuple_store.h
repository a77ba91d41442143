// Append-only data-tuple store with stable ids and a live set — the
// evolving-instance counterpart of the static Relation. Ids are
// assigned sequentially on insert and never reused, so matching-relation
// pairs (which reference ids) stay meaningful for delta capture and a
// from-scratch rebuild over the live set reproduces the exact id space
// the incremental path maintains. Deletion marks a tuple dead; dead
// tuples' values are released in bulk once the dead outnumber the live
// by kReleaseSlack, so a long stream's memory follows its live window,
// not the number of tuples it ever inserted. A dead tuple's values are
// therefore not addressable.

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

  // Marks `id` dead. Fails on unknown or already-dead ids. Releases the
  // values of every dead, unreleased tuple once they number at least
  // num_live() + kReleaseSlack.
  Status Erase(std::uint32_t id);
  static constexpr std::size_t kReleaseSlack = 64;

  bool IsLive(std::uint32_t id) const {
    return id < live_.size() && live_[id];
  }

  // Values of tuple `id`; empty once a dead tuple's values are released.
  const std::vector<std::string>& row(std::uint32_t id) const {
    return relation_.row(id);
  }

  // Ascending ids of the live tuples. O(next_id).
  std::vector<std::uint32_t> LiveIds() const;

  // The underlying storage; row index == id. Only live rows are sure
  // to hold values. The incremental builder interns live rows through
  // PairLevelSource.
  const Relation& relation() const { return relation_; }

  // Approximate heap bytes of the stored tuples (string capacities plus
  // per-row vector overhead) and the live bitmap. O(1): Insert adds a
  // row's footprint and a release subtracts it, since stored values
  // never change otherwise. Feeds the mem.tuple_store_bytes gauge
  // (obs/resource.h).
  std::size_t MemoryUsageBytes() const {
    return live_.capacity() / 8 + row_bytes_;
  }

 private:
  Relation relation_;
  std::vector<bool> live_;
  std::size_t num_live_ = 0;
  std::size_t row_bytes_ = 0;        // Σ footprints of unreleased rows
  std::vector<std::uint32_t> dead_;  // dead ids whose values remain
};

}  // namespace dd

#endif  // DD_INCR_TUPLE_STORE_H_
