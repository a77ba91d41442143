#include "incr/tuple_store.h"

#include "common/string_util.h"

namespace dd {

namespace {

// Heap bytes of one stored row: its string objects plus the buffers of
// strings too long for the inline small-string storage.
std::size_t RowFootprint(const std::vector<std::string>& row) {
  std::size_t bytes = row.capacity() * sizeof(std::string);
  for (const std::string& value : row) {
    if (value.capacity() > sizeof(std::string)) bytes += value.capacity();
  }
  return bytes;
}

}  // namespace

Result<std::uint32_t> TupleStore::Insert(std::vector<std::string> values) {
  const std::uint32_t id = next_id();
  DD_RETURN_IF_ERROR(relation_.AddRow(std::move(values)));
  row_bytes_ += RowFootprint(relation_.row(id));
  live_.push_back(true);
  ++num_live_;
  return id;
}

Status TupleStore::Erase(std::uint32_t id) {
  if (id >= live_.size()) {
    return Status::InvalidArgument(StrFormat("unknown tuple id %u", id));
  }
  if (!live_[id]) {
    return Status::InvalidArgument(StrFormat("tuple %u already deleted", id));
  }
  live_[id] = false;
  --num_live_;
  dead_.push_back(id);
  // In bulk: freeing each tuple's strings as it dies measured slower.
  if (dead_.size() >= num_live_ + kReleaseSlack) {
    for (const std::uint32_t dead : dead_) {
      row_bytes_ -= RowFootprint(relation_.row(dead));
      relation_.ReleaseRow(dead);
    }
    dead_.clear();
  }
  return Status::Ok();
}

std::vector<std::uint32_t> TupleStore::LiveIds() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(num_live_);
  for (std::uint32_t id = 0; id < live_.size(); ++id) {
    if (live_[id]) ids.push_back(id);
  }
  return ids;
}

}  // namespace dd
