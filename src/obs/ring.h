// The one per-thread event ring behind every recorder in src/obs
// (DESIGN.md §8.1): the flight recorder, pool stats, the sampling
// profiler and EXPLAIN each keep only their own slot struct and their
// own aggregation on top of it.
//
// Ring<Slot> is single-writer, overwrite-oldest and never freed by its
// users. Sequence s lives in slot s & (capacity − 1) as one sequence
// word followed by the Slot's payload words. The writer follows
// Boehm's seqlock recipe ("Can seqlocks get along with programming
// language memory models?", MSPC 2012): an odd sequence word, a release
// fence, relaxed payload stores, then the even word with release. A
// reader loads the word with acquire, copies the payload with relaxed
// loads, runs an acquire fence and re-checks the word, so a copy that
// overlaps a rewrite is dropped on any memory model. Every access is
// atomic, which makes Read race-free under TSan and async-signal-safe
// for the crash handler.
//
// RingTable<T, N> is the publish-once registration table the rings (and
// the watchdog's heartbeats) are listed in: entries are created under a
// mutex, published with a release store on the count, never removed,
// and iterated lock-free — from a signal handler too. An entry's index
// is its dense slot number. A full table still hands out entries; they
// work but are not listed.

#ifndef DD_OBS_RING_H_
#define DD_OBS_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace dd::obs {

// The largest capacity a Ring accepts: 2^24 events, so the slot count
// and its byte size never overflow and the zero-filled allocation stays
// far below any address-space limit.
inline constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 24;

template <typename Slot>
class Ring {
  static_assert(std::is_trivially_copyable_v<Slot>,
                "ring slots are copied word by word");
  static_assert(sizeof(Slot) % sizeof(std::uint64_t) == 0,
                "ring slots are stored as 64-bit words");

 public:
  // `capacity` is rounded up to a power of two, minimum 16; above
  // kMaxRingCapacity it throws std::length_error. Slot words are allocated
  // zero-filled and left untouched, so resident memory grows only with
  // the events actually pushed.
  Ring(std::size_t capacity, int tid) : tid_(tid) {
    if (capacity > kMaxRingCapacity) {
      throw std::length_error("obs::Ring capacity above kMaxRingCapacity");
    }
    while (capacity_ < capacity) capacity_ <<= 1;
    words_ = static_cast<std::uint64_t*>(
        std::calloc(capacity_ * kStride, sizeof(std::uint64_t)));
    if (words_ == nullptr) throw std::bad_alloc();
  }
  ~Ring() { std::free(words_); }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  std::size_t capacity() const { return capacity_; }
  int tid() const { return tid_; }
  // Events ever pushed.
  std::uint64_t head() const { return head_.load(std::memory_order_acquire); }
  // Events before base are cleared: Read and ForEach skip them.
  std::uint64_t base() const { return base_.load(std::memory_order_acquire); }
  // Hides every event pushed so far. Safe while the owner pushes.
  void Clear() { base_.store(head(), std::memory_order_release); }

  // The Slot as its payload words, in memory order.
  static constexpr std::size_t kWords = sizeof(Slot) / sizeof(std::uint64_t);
  using Words = std::array<std::uint64_t, kWords>;

  // Owner thread only. Wait-free.
  void Push(const Slot& slot) { PushWords(std::bit_cast<Words>(slot)); }

  // Push for a caller that computes the slot's words itself: they go
  // from registers straight into the slot, with no Slot staged in
  // memory (whose narrow field stores would stall the word loads).
  void PushWords(const Words& payload) {
    const std::uint64_t s = head_.load(std::memory_order_relaxed);
    std::uint64_t* words = words_ + (s & (capacity_ - 1)) * kStride;
    Word(words[0]).store(2 * s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    StorePayload(words + 1, payload, std::make_index_sequence<kWords>());
    Word(words[0]).store(2 * s + 2, std::memory_order_release);
    head_.store(s + 1, std::memory_order_release);
  }

  // Copies event s into *out. False when s is before base, not yet
  // written, overwritten, or being rewritten mid-copy (torn).
  bool Read(std::uint64_t s, Slot* out) const {
    if (s < base()) return false;
    std::uint64_t* words = words_ + (s & (capacity_ - 1)) * kStride;
    const std::uint64_t want = 2 * s + 2;
    if (Word(words[0]).load(std::memory_order_acquire) != want) return false;
    Words payload;
    for (std::size_t i = 0; i < kWords; ++i) {
      payload[i] = Word(words[1 + i]).load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (Word(words[0]).load(std::memory_order_relaxed) != want) return false;
    *out = std::bit_cast<Slot>(payload);
    return true;
  }

  // Calls visit(slot) for every readable event in [max(from, base),
  // end), oldest first. Returns how many events of that window were
  // lost to overwrite or a torn read.
  template <typename Visit>
  std::uint64_t ForEach(std::uint64_t from, std::uint64_t end,
                        Visit&& visit) const {
    from = std::max(from, base());
    std::uint64_t lost = 0;
    if (end > capacity_ && from < end - capacity_) {
      lost = end - capacity_ - from;
      from = end - capacity_;
    }
    Slot slot{};
    for (std::uint64_t s = from; s < end; ++s) {
      if (Read(s, &slot)) {
        visit(slot);
      } else {
        ++lost;
      }
    }
    return lost;
  }

 private:
  static constexpr std::size_t kStride = 1 + kWords;

  static std::atomic_ref<std::uint64_t> Word(std::uint64_t& word) {
    return std::atomic_ref<std::uint64_t>(word);
  }

  // One relaxed store per payload word, unrolled at compile time: GCC
  // keeps a loop of atomic stores as a loop, which costs the flight
  // recorder's record path several ns.
  template <std::size_t... I>
  static void StorePayload(std::uint64_t* words, const Words& payload,
                           std::index_sequence<I...>) {
    (Word(words[I]).store(payload[I], std::memory_order_relaxed), ...);
  }

  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> base_{0};
  std::size_t capacity_ = 16;
  const int tid_;
  std::uint64_t* words_ = nullptr;
};

template <typename T, std::size_t N>
class RingTable {
 public:
  constexpr RingTable() = default;
  RingTable(const RingTable&) = delete;
  RingTable& operator=(const RingTable&) = delete;

  // Listed entries; (*this)[i] is valid for every i < size().
  std::size_t size() const { return count_.load(std::memory_order_acquire); }
  bool full() const { return size() >= N; }
  T* operator[](std::size_t i) const { return entries_[i]; }

  // The listed entry whose tid() is `tid`, or nullptr. Lock-free and
  // async-signal-safe.
  T* Find(int tid) const {
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      if (entries_[i]->tid() == tid) return entries_[i];
    }
    return nullptr;
  }

  // Creates T(args...) and lists it unless the table is full. The
  // entry is never freed.
  template <typename... Args>
  T* Add(Args&&... args) {
    return FindOrAdd([](const T&) { return false; },
                     std::forward<Args>(args)...);
  }

  // The first listed entry satisfying `match`, else Add(args...); the
  // lookup and the insert are one critical section.
  template <typename Match, typename... Args>
  T* FindOrAdd(const Match& match, Args&&... args) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = count_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      if (match(*entries_[i])) return entries_[i];
    }
    T* entry = new T(std::forward<Args>(args)...);
    if (n < N) {
      entries_[n] = entry;
      count_.store(n + 1, std::memory_order_release);
    }
    return entry;
  }

 private:
  std::mutex mu_;  // serializes Add; readers never take it
  std::atomic<std::size_t> count_{0};
  T* entries_[N] = {};
};

}  // namespace dd::obs

#endif  // DD_OBS_RING_H_
