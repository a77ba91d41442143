// Always-on flight recorder: a bounded per-thread ring of recent
// structured events, cheap enough to leave recording on the hot paths
// of a production daemon (DESIGN.md §15). Each thread records into its
// own obs::Ring (DESIGN.md §8.1): one relaxed enabled check, one clock
// read and one seqlock slot write, lock-free and wait-free. The
// disabled path is a single relaxed atomic load, so instrumented call
// sites cost ~nothing until diagnostics are enabled.
//
// Readers never block writers. The in-process Snapshot() copies every
// ring for tests; the crash handler walks the same rings through the
// same Ring::Read, which touches only preallocated memory and atomics
// (async-signal-safe). Event names are captured by value
// (15 chars + NUL) rather than by pointer so a corrupted heap cannot
// turn the crash dump into a second crash.
//
// Rings are allocated lazily on each thread's first record and are
// intentionally never freed: a thread that exited hours ago still has
// its last events in the black box.

#ifndef DD_OBS_DIAG_FLIGHT_RECORDER_H_
#define DD_OBS_DIAG_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.h"

namespace dd::obs::diag {

enum class EventType : std::uint16_t {
  kNone = 0,
  kSpanBegin = 1,    // trace span entered (name = span name)
  kSpanEnd = 2,      // trace span left (arg0 = elapsed ns)
  kBatch = 3,        // incr batch applied (arg0 = batch seq, arg1 = inserts)
  kDetermined = 4,   // determination finished (arg0 = patterns, arg1 = f64 bits)
  kApproxRound = 5,  // approx refinement round (arg0 = round, arg1 = pairs)
  // 6 and 8 were watchdog heartbeat and stall events; they stay unused
  // so every other value keeps its number.
  kServe = 7,        // serve/watch loop progress (arg0 = rows/seq)
  kCustom = 9,
};

const char* EventTypeName(EventType type);
// Inverse of EventTypeName; kNone for unknown names.
EventType EventTypeFromName(const std::string& name);

// One recorded event. Fixed-size POD so rings can be read from a signal
// handler without chasing pointers.
struct FlightEvent {
  std::uint64_t t_ns = 0;   // CLOCK_MONOTONIC at record time
  std::uint64_t seq = 0;    // per-thread sequence number
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  char name[16] = {0};      // truncated copy, always NUL-terminated
  EventType type = EventType::kNone;
  std::uint16_t pad = 0;
  std::uint32_t pad2 = 0;
};
static_assert(sizeof(FlightEvent) == 56, "keep the record path compact");

namespace internal {

// Every thread's ring, listed on its first record. The crash handler
// walks it lock-free.
using FlightRingTable = RingTable<Ring<FlightEvent>, 512>;
extern FlightRingTable g_flight_rings;

extern std::atomic<bool> g_flight_enabled;

void RecordSlow(EventType type, const char* name, std::uint64_t arg0,
                std::uint64_t arg1);

}  // namespace internal

// The ~1 ns disabled gate every instrumented call site pays.
inline bool FlightRecorderEnabled() {
  return internal::g_flight_enabled.load(std::memory_order_relaxed);
}

// Records one event into the calling thread's ring. `name` is copied
// (first 15 chars); nullptr records an empty name. No-op when disabled.
inline void FlightRecord(EventType type, const char* name,
                         std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
  if (!FlightRecorderEnabled()) return;
  internal::RecordSlow(type, name, arg0, arg1);
}

class FlightRecorder {
 public:
  // Turns recording on. `ring_capacity` (rounded up to a power of two,
  // min 16, max kMaxRingCapacity) applies to rings allocated after the
  // call; existing rings keep their size. Idempotent.
  static void Enable(std::size_t ring_capacity = 1024);
  static void Disable();

  // Hides every ring's events recorded so far (base = head; capacity
  // and registration survive). Safe while threads record.
  static void ResetForTest();

  // Events recorded process-wide since the last ResetForTest (includes
  // events already overwritten in their ring).
  static std::uint64_t TotalRecorded();

  struct ThreadEvents {
    int tid = 0;
    std::uint64_t recorded = 0;          // events since the last reset
    std::vector<FlightEvent> events;     // oldest first, newest last
  };
  // Copies every ring. A slot its owner rewrites mid-copy (the
  // oldest one, once the ring has wrapped) is torn and left out.
  static std::vector<ThreadEvents> Snapshot();
};

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_FLIGHT_RECORDER_H_
