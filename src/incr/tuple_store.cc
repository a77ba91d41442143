#include "incr/tuple_store.h"

#include "common/string_util.h"

namespace dd {

Result<std::uint32_t> TupleStore::Insert(std::vector<std::string> values) {
  const std::uint32_t id = next_id();
  DD_RETURN_IF_ERROR(relation_.AddRow(std::move(values)));
  const std::vector<std::string>& stored = relation_.row(id);
  row_bytes_ += stored.capacity() * sizeof(std::string);
  for (const std::string& value : stored) {
    // Small strings live inline in the string object counted above.
    if (value.capacity() > sizeof(std::string)) row_bytes_ += value.capacity();
  }
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
