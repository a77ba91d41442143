// Stall detection. Long-running loops (worker-pool chunks, the serve
// stdin loop, watch-mode polling) register a named Heartbeat and beat
// it as they make progress; a background watchdog thread checks every
// armed heartbeat each tick and, when one goes silent past the stall
// timeout, captures all-thread stacks and writes a stall dump next to
// where a crash dump would go (DESIGN.md §15).
//
// Heartbeats are registered once per name in an obs::RingTable
// (DESIGN.md §8.1) and never freed, so the fatal-signal handler can
// walk them lock-free just like the flight-recorder rings. Beating is
// two relaxed atomic stores — cheap enough for per-batch / per-chunk
// granularity.

#ifndef DD_OBS_DIAG_WATCHDOG_H_
#define DD_OBS_DIAG_WATCHDOG_H_

#include <atomic>
#include <cstdint>

namespace dd::obs::diag {

struct Heartbeat {
  explicit Heartbeat(const char* heartbeat_name);

  char name[32] = {0};
  // > 0 while some scope expects progress; nestable so re-entrant use
  // (pool chunk inside a served batch) keeps the outer arm alive.
  std::atomic<int> armed{0};
  std::atomic<std::uint64_t> last_beat_ns{0};
  std::atomic<std::uint64_t> beats{0};
  // Set when a stall dump for the current silent episode has been
  // written; cleared on the next beat so each episode dumps once.
  std::atomic<bool> in_stall{false};

  void Beat();
  void Arm();     // beat + armed++
  void Disarm();  // armed--
};

// Finds or creates the heartbeat with `name` (truncated to 31 chars).
// Never returns nullptr; the object lives for the process lifetime.
Heartbeat* RegisterHeartbeat(const char* name);

// RAII arm/disarm around a monitored region.
class ScopedHeartbeat {
 public:
  explicit ScopedHeartbeat(Heartbeat* hb) : hb_(hb) { hb_->Arm(); }
  ~ScopedHeartbeat() { hb_->Disarm(); }
  ScopedHeartbeat(const ScopedHeartbeat&) = delete;
  ScopedHeartbeat& operator=(const ScopedHeartbeat&) = delete;
  void Beat() { hb_->Beat(); }

 private:
  Heartbeat* hb_;
};

// Async-signal-safe view of all registered heartbeats for dump writers:
// fills `out` with up to `max` pointers, returns the count.
std::size_t RawHeartbeats(const Heartbeat** out, std::size_t max);

// Sets the on-demand dump flag; the next watchdog tick writes a dump.
// Async-signal-safe (this is what the SIGUSR2 handler calls).
void RequestOnDemandDump();

// The background monitor. Started by EnableDiagnostics when
// DiagOptions.start_watchdog is set.
class Watchdog {
 public:
  static void Start(int interval_ms, int stall_timeout_ms);
  static void Stop();
  static bool Running();

  // Test hook: number of stall dumps written since Start.
  static std::uint64_t StallsDetected();
};

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_WATCHDOG_H_
