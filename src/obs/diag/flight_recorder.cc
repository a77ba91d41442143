#include "obs/diag/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "obs/diag/sigsafe.h"

namespace dd::obs::diag {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kNone:
      return "none";
    case EventType::kSpanBegin:
      return "span_begin";
    case EventType::kSpanEnd:
      return "span_end";
    case EventType::kBatch:
      return "batch";
    case EventType::kDetermined:
      return "determined";
    case EventType::kApproxRound:
      return "approx_round";
    case EventType::kHeartbeat:
      return "heartbeat";
    case EventType::kServe:
      return "serve";
    case EventType::kStall:
      return "stall";
    case EventType::kCustom:
      return "custom";
  }
  return "unknown";
}

EventType EventTypeFromName(const std::string& name) {
  for (std::uint16_t i = 0;
       i <= static_cast<std::uint16_t>(EventType::kCustom); ++i) {
    const auto type = static_cast<EventType>(i);
    if (name == EventTypeName(type)) return type;
  }
  return EventType::kNone;
}

namespace internal {

std::atomic<bool> g_flight_enabled{false};
FlightRingTable g_flight_rings;

namespace {

std::atomic<std::size_t> g_ring_capacity{1024};

Ring<FlightEvent>* LocalRing() {
  static thread_local Ring<FlightEvent>* t_ring = nullptr;
  if (t_ring == nullptr) {
    t_ring = g_flight_rings.Add(
        g_ring_capacity.load(std::memory_order_relaxed), SigsafeTid());
  }
  return t_ring;
}

}  // namespace

// FlightEvent's payload words, in order: t_ns, seq, arg0, arg1, two
// name words, then type with its zero padding. RecordSlow builds them
// in registers and hands them to Ring::PushWords.
static_assert(offsetof(FlightEvent, name) == 4 * sizeof(std::uint64_t) &&
                  offsetof(FlightEvent, type) == 6 * sizeof(std::uint64_t),
              "RecordSlow's word order follows FlightEvent's layout");

struct TypeWord {
  EventType type;
  std::uint16_t pad;
  std::uint32_t pad2;
};

// Byte `c` placed at byte offset `i` of a word in memory order.
constexpr std::uint64_t ByteAt(char c, std::size_t i) {
  const std::size_t shift = std::endian::native == std::endian::little
                                ? 8 * i
                                : 8 * (sizeof(std::uint64_t) - 1 - i);
  return std::uint64_t{static_cast<unsigned char>(c)} << shift;
}

void RecordSlow(EventType type, const char* name, std::uint64_t arg0,
                std::uint64_t arg1) {
  Ring<FlightEvent>* ring = LocalRing();
  // The first 15 chars of name; the rest of the 16 bytes stay NUL.
  std::uint64_t name_words[2] = {0, 0};
  if (name != nullptr) {
    for (std::size_t i = 0; i < sizeof(FlightEvent::name) - 1 && name[i] != '\0';
         ++i) {
      name_words[i / 8] |= ByteAt(name[i], i % 8);
    }
  }
  ring->PushWords({SigsafeNowNs(), ring->head(), arg0, arg1, name_words[0],
                   name_words[1], std::bit_cast<std::uint64_t>(
                                      TypeWord{type, 0, 0})});
}

}  // namespace internal

void FlightRecorder::Enable(std::size_t ring_capacity) {
  internal::g_ring_capacity.store(std::min(ring_capacity, kMaxRingCapacity),
                                  std::memory_order_relaxed);
  internal::g_flight_enabled.store(true, std::memory_order_release);
}

void FlightRecorder::Disable() {
  internal::g_flight_enabled.store(false, std::memory_order_release);
}

void FlightRecorder::ResetForTest() {
  const internal::FlightRingTable& rings = internal::g_flight_rings;
  for (std::size_t i = 0; i < rings.size(); ++i) rings[i]->Clear();
}

std::uint64_t FlightRecorder::TotalRecorded() {
  const internal::FlightRingTable& rings = internal::g_flight_rings;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rings.size(); ++i) {
    const std::uint64_t base = rings[i]->base();
    total += rings[i]->head() - base;
  }
  return total;
}

std::vector<FlightRecorder::ThreadEvents> FlightRecorder::Snapshot() {
  const internal::FlightRingTable& rings = internal::g_flight_rings;
  std::vector<ThreadEvents> out(rings.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Ring<FlightEvent>& ring = *rings[i];
    ThreadEvents& te = out[i];
    te.tid = ring.tid();
    const std::uint64_t base = ring.base();
    const std::uint64_t head = ring.head();
    te.recorded = head - base;
    ring.ForEach(base, head,
                 [&](const FlightEvent& ev) { te.events.push_back(ev); });
  }
  return out;
}

}  // namespace dd::obs::diag
