// The l best items seen so far under a double key, as a min-heap on the
// key: PA/PAP keep the l best ϕ[Y] by C·Q, DA/DAP the l best patterns
// by expected utility.

#ifndef DD_CORE_TOP_L_H_
#define DD_CORE_TOP_L_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace dd {

template <typename T, double T::*kKey>
class TopL {
 public:
  explicit TopL(std::size_t l) : l_(l) {}

  bool Full() const { return heap_.size() == l_; }

  // The current l-th best (only meaningful when Full()).
  const T& Min() const { return heap_.front(); }

  // Keeps `item` while fewer than l are held, else only if its key
  // strictly exceeds the l-th best's, which it then replaces.
  void Offer(T item) {
    if (heap_.size() < l_) {
      heap_.push_back(std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp);
      return;
    }
    if (item.*kKey <= heap_.front().*kKey) return;
    std::pop_heap(heap_.begin(), heap_.end(), MinHeapCmp);
    heap_.back() = std::move(item);
    std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp);
  }

  // The held items by descending key.
  std::vector<T> Sorted() && {
    std::sort(heap_.begin(), heap_.end(), MinHeapCmp);
    return std::move(heap_);
  }

 private:
  // std::push_heap with this comparator builds a min-heap on the key;
  // std::sort with it orders by descending key.
  static bool MinHeapCmp(const T& a, const T& b) { return a.*kKey > b.*kKey; }

  std::size_t l_;
  std::vector<T> heap_;
};

}  // namespace dd

#endif  // DD_CORE_TOP_L_H_
