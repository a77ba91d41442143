// Tests for the shared per-thread event ring and its registration table
// (src/obs/ring.h, DESIGN.md §8.1): concurrent readers never see a torn
// slot, wrap-around keeps the newest capacity() events, base = head
// hides earlier events, and a full table still hands out working but
// unlisted rings. Run under TSan in CI.

#include "obs/ring.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/explain/recorder.h"
#include "obs/prof/profiler.h"

namespace dd::obs {
namespace {

// Every word holds the event's sequence number, so a copy mixing two
// pushes is visible as unequal words.
struct SeqSlot {
  std::uint64_t words[7];
};

SeqSlot MakeSlot(std::uint64_t seq) {
  SeqSlot slot;
  for (std::uint64_t& word : slot.words) word = seq;
  return slot;
}

bool Untorn(const SeqSlot& slot) {
  for (std::uint64_t word : slot.words) {
    if (word != slot.words[0]) return false;
  }
  return true;
}

void PushRange(Ring<SeqSlot>& ring, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) ring.Push(MakeSlot(ring.head()));
}

// Reads [base, head) and checks the window: returned slots are untorn,
// carry their own sequence, increase, and returned + lost covers it.
void CheckWindow(const Ring<SeqSlot>& ring, std::uint64_t* returned_out) {
  const std::uint64_t base = ring.base();
  const std::uint64_t head = ring.head();
  std::uint64_t returned = 0;
  std::uint64_t last = 0;
  bool torn = false;
  bool ordered = true;
  const std::uint64_t lost = ring.ForEach(base, head, [&](const SeqSlot& s) {
    torn = torn || !Untorn(s);
    ordered = ordered && (returned == 0 || s.words[0] > last) &&
              s.words[0] >= base && s.words[0] < head;
    last = s.words[0];
    ++returned;
  });
  EXPECT_FALSE(torn);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(returned + lost, head - base);
  if (returned_out != nullptr) *returned_out = returned;
}

TEST(RingTest, ConcurrentReadersNeverSeeTornSlots) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kRounds = 2000;  // Read passes per reader over all rings.
  std::vector<std::unique_ptr<Ring<SeqSlot>>> rings;
  for (int w = 0; w < kWriters; ++w) {
    rings.push_back(std::make_unique<Ring<SeqSlot>>(16, w));
  }
  // Writers push until every reader is done, so reads always overlap
  // pushes however fast either side runs.
  std::atomic<int> writers_started{0};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> pushed(kWriters, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      writers_started.fetch_add(1);
      while (!stop.load()) {
        PushRange(*rings[w], 64);
        pushed[w] += 64;
      }
    });
  }
  std::atomic<std::uint64_t> direct_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (writers_started.load() < kWriters) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& ring : rings) {
          CheckWindow(*ring, nullptr);
          // Read() of the newest slot, the one its writer rewrites next
          // once the ring wraps.
          const std::uint64_t head = ring->head();
          SeqSlot slot;
          if (head > 0 && ring->Read(head - 1, &slot)) {
            EXPECT_TRUE(Untorn(slot));
            EXPECT_EQ(slot.words[0], head - 1);
            direct_reads.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  for (std::thread& t : writers) t.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(rings[w]->head(), pushed[w]);
    std::uint64_t returned = 0;
    CheckWindow(*rings[w], &returned);
    EXPECT_EQ(returned, rings[w]->capacity());  // Quiescent: none torn.
  }
  EXPECT_GT(direct_reads.load(), 0u);
}

TEST(RingTest, WrapAroundKeepsNewestCapacityEvents) {
  for (const std::size_t requested : {1, 16, 17}) {
    Ring<SeqSlot> ring(requested, 0);
    const std::size_t capacity = requested <= 16 ? 16 : 32;
    EXPECT_EQ(ring.capacity(), capacity) << requested;
    PushRange(ring, 100);
    std::vector<std::uint64_t> seqs;
    const std::uint64_t lost = ring.ForEach(
        0, ring.head(), [&](const SeqSlot& s) { seqs.push_back(s.words[0]); });
    EXPECT_EQ(lost, 100 - capacity) << requested;
    ASSERT_EQ(seqs.size(), capacity) << requested;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], 100 - capacity + i);
    }
    SeqSlot slot;
    EXPECT_FALSE(ring.Read(100 - capacity - 1, &slot));  // Overwritten.
    EXPECT_FALSE(ring.Read(100, &slot));                 // Not yet written.
    ASSERT_TRUE(ring.Read(99, &slot));
    EXPECT_EQ(slot.words[0], 99u);
  }
}

// Capacities past kMaxRingCapacity would overflow the slot count or its
// byte size (2^62 + 1 rounds to 2^63 slots; 2^63 + 1 never stops
// doubling); they are refused before anything is allocated.
TEST(RingTest, RejectsCapacityAboveMax) {
  for (const std::size_t requested :
       {kMaxRingCapacity + 1, std::size_t{10000000000},
        (std::size_t{1} << 62) + 1, (std::size_t{1} << 63) + 1,
        std::numeric_limits<std::size_t>::max()}) {
    EXPECT_THROW(Ring<SeqSlot>(requested, 0), std::length_error) << requested;
  }
}

// The user-facing capacity knobs stop such values before a recording
// thread would build the ring: the profiler refuses them, EXPLAIN clamps.
TEST(RingTest, CapacityKnobsBoundedByMax) {
  prof::ProfilerOptions options;
  options.ring_capacity = kMaxRingCapacity + 1;
  EXPECT_EQ(prof::Profiler::Global().Start(options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(prof::ProfilerActive());

  ExplainRecorder& recorder = ExplainRecorder::Global();
  ExplainConfig config;
  config.ring_capacity = std::size_t{10000000000};
  recorder.Enable(config);
  EXPECT_EQ(recorder.Snapshot().config.ring_capacity, kMaxRingCapacity);
  recorder.Disable();
}

TEST(RingTest, ClearHidesEarlierEvents) {
  Ring<SeqSlot> ring(64, 0);
  PushRange(ring, 10);
  ring.Clear();
  EXPECT_EQ(ring.base(), 10u);
  SeqSlot slot;
  EXPECT_FALSE(ring.Read(5, &slot));
  std::uint64_t visited = 0;
  EXPECT_EQ(ring.ForEach(0, ring.head(), [&](const SeqSlot&) { ++visited; }),
            0u);
  EXPECT_EQ(visited, 0u);

  PushRange(ring, 3);
  std::vector<std::uint64_t> seqs;
  EXPECT_EQ(ring.ForEach(0, ring.head(),
                         [&](const SeqSlot& s) { seqs.push_back(s.words[0]); }),
            0u);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(RingTableTest, FullTableStillRecordsButDoesNotList) {
  RingTable<Ring<SeqSlot>, 2> table;
  Ring<SeqSlot>* first = table.Add(16, 101);
  Ring<SeqSlot>* second = table.Add(16, 102);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.full());
  EXPECT_EQ(table[0], first);
  EXPECT_EQ(table[1], second);
  EXPECT_EQ(table.Find(102), second);
  EXPECT_EQ(table.FindOrAdd(
                [](const Ring<SeqSlot>& r) { return r.tid() == 101; }, 16, 0),
            first);

  Ring<SeqSlot>* unlisted = table.Add(16, 103);
  ASSERT_NE(unlisted, nullptr);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(103), nullptr);
  PushRange(*unlisted, 5);
  SeqSlot slot;
  ASSERT_TRUE(unlisted->Read(4, &slot));
  EXPECT_EQ(slot.words[0], 4u);

  // Tables never free their entries; this one dies with the test.
  delete unlisted;
  delete first;
  delete second;
}

}  // namespace
}  // namespace dd::obs
