// In-process sampling CPU profiler (DESIGN.md §16). Per-thread POSIX
// CPU-time timers (timer_create(CLOCK_THREAD_CPUTIME_ID) with
// SIGEV_THREAD_ID delivery) fire SIGPROF on each thread at --profile_hz
// of *its own* CPU time; the async-signal-safe handler captures a raw
// backtrace and pushes it to the thread's ring, tagged with the
// innermost trace span (obs::CurrentSpanName) and worker-pool phase
// (dd::CurrentPoolPhase). A housekeeper thread arms timers for threads
// that appear mid-capture, drains the rings, and aggregates identical
// stacks, so memory stays bounded no matter how long the capture runs.
//
// Same discipline as the flight recorder (src/obs/diag): rings are
// obs::Ring (DESIGN.md §8.1) of fixed-size POD slots, never freed; the
// handler touches only its own ring, thread-locals, and backtrace()
// (warmed at Start); the disabled gate is one relaxed atomic load. A
// full ring overwrites its oldest sample, and the drain counts it as
// dropped — sampling never blocks the sampled thread.
//
// Aggregated output is symbolized offline (obs/diag/symbolize) into
// folded-stack lines (obs/prof/folded.h) and a JSON summary. Surfaced
// by `ddtool <cmd> --profile` and the run report's "profile" section;
// sample/drop/truncation totals flush into the prof.* metrics.

#ifndef DD_OBS_PROF_PROFILER_H_
#define DD_OBS_PROF_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dd::obs::prof {

// Deep enough for the determination pipeline (search -> provider ->
// matching -> metric kernels) with headroom; deeper stacks are cut at
// the root end and counted in Profile::truncated.
inline constexpr std::size_t kMaxProfFrames = 48;

struct ProfilerOptions {
  // Samples per second of per-thread CPU time. 97/99 (primes) avoid
  // lockstep with periodic work.
  int hz = 99;
  // Per-thread ring slots (rounded up to a power of two, min 16; Start
  // rejects more than 2^24, obs::kMaxRingCapacity).
  // 2048 slots buffer ~20 s of one thread's samples at 99 Hz between
  // housekeeper drains.
  std::size_t ring_capacity = 2048;
  // Housekeeper period: how often rings are drained and newly spawned
  // threads get their timer armed.
  int drain_period_ms = 50;
};

// One aggregated stack: identical (frames, span, phase) samples
// collapse into a count. Frames are raw leaf-first return addresses;
// symbolization happens in folded.h consumers.
struct ProfileEntry {
  std::vector<std::uintptr_t> frames;  // [0] = innermost (interrupted PC)
  std::string span;                    // innermost trace span ("" = none)
  std::string phase;                   // pool phase label ("" = none)
  std::uint64_t count = 0;
};

struct Profile {
  int hz = 0;
  std::uint64_t duration_ns = 0;  // wall time the capture ran
  std::uint64_t samples = 0;      // aggregated into entries
  std::uint64_t dropped = 0;      // overwritten, torn, or no ring yet
  std::uint64_t truncated = 0;    // stacks deeper than kMaxProfFrames
  std::vector<ProfileEntry> entries;

  bool empty() const { return entries.empty(); }
};

namespace internal {
extern std::atomic<bool> g_prof_active;
}  // namespace internal

// The ~1 ns gate: true while a capture is running.
inline bool ProfilerActive() {
  return internal::g_prof_active.load(std::memory_order_relaxed);
}

class Profiler {
 public:
  static Profiler& Global();

  // Arms per-thread timers and starts the housekeeper. Fails with
  // InvalidArgument on a bad hz or ring_capacity, FailedPrecondition
  // when a capture is already running (one at a time — the signal
  // handler is shared).
  Status Start(const ProfilerOptions& options = ProfilerOptions());

  // Disarms every timer, drains the rings one last time, and returns
  // the aggregated profile. Flushes prof.samples / prof.dropped /
  // prof.truncated counters. Returns an empty Profile when no capture
  // was running.
  Profile Stop();

  bool active() const { return ProfilerActive(); }

  // JSON summary of the profile most recently returned by Stop(), or
  // "" before the first capture. When a capture is currently running,
  // returns a summary of the samples aggregated so far instead — this
  // is what the run report's "profile" section embeds, so a report
  // written before Stop() still carries the live data.
  std::string SummaryJson();

 private:
  Profiler() = default;
};

}  // namespace dd::obs::prof

#endif  // DD_OBS_PROF_PROFILER_H_
