// The distinct live values of one attribute of an evolving instance,
// kept across incremental batches. Each entry owns one copy of its
// value's bytes and counts the live tuples that carry it: an insert
// acquires its value, a delete releases it, and an entry whose count
// reaches 0 is freed and its id reused. A batch therefore interns only
// its own tuples, instead of re-hashing the whole window's strings.
//
// Dictionary ids are not first-occurrence ids, and a freed id is
// reused by the next new value. Index() renumbers a list of dictionary
// ids in first-occurrence order, so the AttributeValueIndex it returns
// equals InternColumn's over the same values: ids, and the bytes each
// id views.

#ifndef DD_INCR_VALUE_DICTIONARY_H_
#define DD_INCR_VALUE_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "matching/value_cache.h"

namespace dd {

class ValueDictionary {
 public:
  ValueDictionary() = default;
  // Entries view the keys of their own map, so a copy would view the
  // original's; a move keeps the nodes, and with them the views.
  ValueDictionary(const ValueDictionary&) = delete;
  ValueDictionary& operator=(const ValueDictionary&) = delete;
  ValueDictionary(ValueDictionary&&) = default;
  ValueDictionary& operator=(ValueDictionary&&) = default;

  // The id of `value` after adding one reference to it; a new value
  // gets an entry with count 1.
  std::uint32_t Acquire(std::string_view value);

  // Drops one reference to the live entry `id`, freeing it at 0.
  void Release(std::uint32_t id);

  // Number of live entries (distinct values with a live reference).
  std::size_t size() const { return ids_.size(); }

  // Every id is below id_bound(). It grows only when a new value finds
  // no freed id to reuse, so it is the most entries ever live at once.
  std::size_t id_bound() const { return entries_.size(); }

  // The reference count of the live entry `id`.
  std::uint32_t refs(std::uint32_t id) const { return entries_[id].refs; }

  // The value and reference count of every live entry, in no
  // particular order. A value's view stays valid until its entry is
  // freed, however the dictionary grows.
  std::vector<std::pair<std::string_view, std::uint32_t>> Counts() const;

  // The index of the positions whose dictionary ids are `ids` (every one
  // live): row_ids renumbered in first-occurrence order, and each
  // value's view into this dictionary. One integer pass, O(|ids|) plus
  // the id space.
  AttributeValueIndex Index(std::span<const std::uint32_t> ids) const;

 private:
  struct Entry {
    std::string_view value;  // views the key of its node in ids_
    std::uint32_t refs = 0;
  };
  // Transparent, so a lookup by string_view allocates nothing.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Node-based: a key's bytes never move, even when the table rehashes
  // (a short key lives inside its node).
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> ids_;
  std::vector<Entry> entries_;      // by id; freed entries hold refs == 0
  std::vector<std::uint32_t> free_;  // freed ids, reused last-in first
};

}  // namespace dd

#endif  // DD_INCR_VALUE_DICTIONARY_H_
