#include "incr/value_dictionary.h"

#include "common/logging.h"

namespace dd {

std::uint32_t ValueDictionary::Acquire(std::string_view value) {
  if (const auto it = ids_.find(value); it != ids_.end()) {
    ++entries_[it->second].refs;
    return it->second;
  }
  std::uint32_t id;
  if (free_.empty()) {
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    id = free_.back();
    free_.pop_back();
  }
  const auto node = ids_.emplace(std::string(value), id).first;
  entries_[id] = {node->first, 1};
  return id;
}

void ValueDictionary::Release(std::uint32_t id) {
  Entry& entry = entries_[id];
  DD_CHECK(entry.refs > 0);
  if (--entry.refs > 0) return;
  ids_.erase(ids_.find(entry.value));
  entry.value = {};
  free_.push_back(id);
}

std::vector<std::pair<std::string_view, std::uint32_t>>
ValueDictionary::Counts() const {
  std::vector<std::pair<std::string_view, std::uint32_t>> counts;
  counts.reserve(ids_.size());
  for (const auto& [value, id] : ids_) {
    counts.emplace_back(value, entries_[id].refs);
  }
  return counts;
}

AttributeValueIndex ValueDictionary::Index(
    std::span<const std::uint32_t> ids) const {
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> renumber(entries_.size(), kUnseen);
  AttributeValueIndex index;
  index.row_ids.resize(ids.size());
  for (std::size_t pos = 0; pos < ids.size(); ++pos) {
    std::uint32_t& local = renumber[ids[pos]];
    if (local == kUnseen) {
      local = static_cast<std::uint32_t>(index.values.size());
      index.values.push_back(entries_[ids[pos]].value);
    }
    index.row_ids[pos] = local;
  }
  return index;
}

}  // namespace dd
