#include "obs/diag/watchdog.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/diag/crash_dump.h"
#include "obs/diag/flight_recorder.h"
#include "obs/diag/sigsafe.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/ring.h"

namespace dd::obs::diag {

Heartbeat::Heartbeat(const char* heartbeat_name) {
  std::strncpy(name, heartbeat_name, sizeof(name) - 1);
}

void Heartbeat::Beat() {
  last_beat_ns.store(SigsafeNowNs(), std::memory_order_relaxed);
  beats.fetch_add(1, std::memory_order_relaxed);
  in_stall.store(false, std::memory_order_relaxed);
}

void Heartbeat::Arm() {
  Beat();
  armed.fetch_add(1, std::memory_order_release);
}

void Heartbeat::Disarm() {
  armed.fetch_sub(1, std::memory_order_release);
  in_stall.store(false, std::memory_order_relaxed);
}

namespace {

// A full table (64 names; a handful are used) still hands out working
// heartbeats, invisible to the watchdog and dumps.
RingTable<Heartbeat, 64> g_heartbeats;

// Set from the SIGUSR2 handler; serviced (and cleared) by the watchdog.
std::atomic<bool> g_dump_requested{false};

struct WatchdogState {
  std::thread thread;
  std::mutex mutex;
  std::condition_variable cv;
  bool stop_requested = false;
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> stalls{0};
  int interval_ms = 250;
  int stall_timeout_ms = 30000;
};

WatchdogState& State() {
  static WatchdogState* state = new WatchdogState();
  return *state;
}

void CheckHeartbeats(WatchdogState& state) {
  const std::uint64_t now = SigsafeNowNs();
  const std::uint64_t timeout_ns =
      static_cast<std::uint64_t>(state.stall_timeout_ms) * 1000000ULL;
  const std::size_t n = g_heartbeats.size();
  for (std::size_t i = 0; i < n; ++i) {
    Heartbeat* hb = g_heartbeats[i];
    if (hb->armed.load(std::memory_order_acquire) <= 0) continue;
    if (hb->in_stall.load(std::memory_order_relaxed)) continue;
    const std::uint64_t last = hb->last_beat_ns.load(std::memory_order_relaxed);
    if (last == 0 || now <= last || now - last < timeout_ns) continue;
    // One dump per silent episode: mark first so a slow dump does not
    // retrigger on the next tick.
    hb->in_stall.store(true, std::memory_order_relaxed);
    static dd::obs::Counter& stall_counter =
        MetricsRegistry::Global().GetCounter("diag.stalls_detected");
    stall_counter.Add(1);
    FlightRecord(EventType::kStall, hb->name, now - last, 0);
    DD_LOG(WARN) << "watchdog: heartbeat '" << hb->name << "' silent for "
                  << (now - last) / 1000000 << " ms, writing stall dump";
    WriteStallDump(hb->name, now - last);
    // Counted only once the dump file is closed: StallsDetected() is
    // "stall dumps written", so a reader that sees the count rise can
    // list the directory and find the file.
    state.stalls.fetch_add(1, std::memory_order_release);
  }
}

void WatchdogLoop() {
  WatchdogState& state = State();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state.mutex);
      state.cv.wait_for(lock, std::chrono::milliseconds(state.interval_ms),
                        [&] { return state.stop_requested; });
      if (state.stop_requested) break;
    }
    // Keep the crash dump's metrics section at most one tick
    // stale; this is the only place the preamble re-renders steadily.
    RefreshPreamble();
    if (g_dump_requested.exchange(false, std::memory_order_acq_rel)) {
      const std::string path = WriteLiveDumpFile("ondemand", "on_demand");
      DD_LOG(INFO) << "diag: on-demand dump "
                    << (path.empty() ? "failed" : path);
    }
    CheckHeartbeats(state);
  }
  state.running.store(false, std::memory_order_release);
}

}  // namespace

Heartbeat* RegisterHeartbeat(const char* name) {
  return g_heartbeats.FindOrAdd(
      [name](const Heartbeat& hb) {
        return std::strncmp(hb.name, name, sizeof(hb.name) - 1) == 0;
      },
      name);
}

std::size_t RawHeartbeats(const Heartbeat** out, std::size_t max) {
  const std::size_t count = std::min(g_heartbeats.size(), max);
  for (std::size_t i = 0; i < count; ++i) out[i] = g_heartbeats[i];
  return count;
}

void RequestOnDemandDump() {
  g_dump_requested.store(true, std::memory_order_release);
}

void Watchdog::Start(int interval_ms, int stall_timeout_ms) {
  WatchdogState& state = State();
  if (state.running.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.stop_requested = false;
    state.interval_ms = interval_ms > 0 ? interval_ms : 250;
    state.stall_timeout_ms = stall_timeout_ms > 0 ? stall_timeout_ms : 30000;
  }
  state.stalls.store(0, std::memory_order_relaxed);
  state.running.store(true, std::memory_order_release);
  state.thread = std::thread(&WatchdogLoop);
}

void Watchdog::Stop() {
  WatchdogState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.thread.joinable()) return;
    state.stop_requested = true;
  }
  state.cv.notify_all();
  state.thread.join();
  state.running.store(false, std::memory_order_release);
}

bool Watchdog::Running() {
  return State().running.load(std::memory_order_acquire);
}

std::uint64_t Watchdog::StallsDetected() {
  return State().stalls.load(std::memory_order_acquire);
}

}  // namespace dd::obs::diag
