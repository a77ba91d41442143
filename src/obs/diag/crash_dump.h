// Crash / stall / on-demand dump orchestration — the entry point of the
// diag subsystem (DESIGN.md §15).
//
// EnableDiagnostics() pre-opens a dump fd under DiagOptions.dir,
// installs fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
// SIGILL) on an alternate stack, installs SIGUSR2 as the on-demand dump
// trigger, enables the flight recorder, and optionally starts the
// watchdog. The handlers write a line-oriented text dump using only
// async-signal-safe primitives, then restore the default disposition
// and re-raise, so the process still dies with the original signal.
//
// Dump format (shared by crash / stall / live dumps, parsed by
// `ddtool diag` via dump_reader):
//
//   DDDIAG 1
//   reason: crash|stall|on_demand|live
//   signal: 11 SIGSEGV          (crash dumps only)
//   fault_addr: 0x...           (crash dumps only)
//   pid: ... / tid: ... / uptime_ns: ... / rss_kb: ...
//   --- backtrace tid <N>
//   0x7f.. 0x7f.. ...           (one hex PC per line)
//   --- heartbeats
//   <name> armed=<n> beats=<n> age_ns=<n> in_stall=<0|1>
//   --- flightrec tid <N>
//   <seq> <t_ns> <type-name> <name> <arg0> <arg1>
//   --- modules
//   <verbatim /proc/self/maps>
//   --- metrics
//   <metrics snapshot as one line of run-report JSON
//    (MetricsSnapshotToJson), pre-rendered outside the handler>
//   --- end
//
// The metrics section comes from a double-buffered "preamble"
// refreshed by the watchdog tick (or explicitly), because rendering
// it allocates and therefore cannot happen inside the handler.

#ifndef DD_OBS_DIAG_CRASH_DUMP_H_
#define DD_OBS_DIAG_CRASH_DUMP_H_

#include <cstdint>
#include <string>

namespace dd::obs::diag {

struct DiagOptions {
  // Directory for crash/stall/on-demand dump files. Must exist or be
  // creatable; empty disables file output (live dumps still work).
  std::string dir;
  // A heartbeat armed but silent for longer than this is a stall.
  int stall_timeout_ms = 30000;
  int watchdog_interval_ms = 250;
  std::size_t flight_ring_capacity = 1024;
  bool install_signal_handlers = true;
  bool start_watchdog = true;
};

// Idempotent (second call is a no-op). Returns false when `dir` could
// not be created or the dump fd could not be opened.
bool EnableDiagnostics(const DiagOptions& options);

// Stops the watchdog, disables the flight recorder, restores default
// signal dispositions, and removes the (empty) pre-opened crash file.
void DisableDiagnostics();

bool DiagnosticsEnabled();

// Directory dumps are written to; empty when disabled or unset.
std::string DiagDir();

// Re-renders the metrics preamble buffers (normal context only;
// allocates). The watchdog calls this every tick so a crash dump's
// metrics are at most one tick stale.
void RefreshPreamble();

// Composes a full dump (all-thread stacks, fresh metrics render) from
// normal context and returns it as text — the on-demand (SIGUSR2)
// dump's payload.
std::string CaptureLiveDump(const char* reason);

// CaptureLiveDump + write to `<dir>/<kind>.<pid>.<n>.dddump`. Returns
// the path, or empty on failure / no dir.
std::string WriteLiveDumpFile(const char* kind, const char* reason);

// Watchdog callback: writes a stall dump naming the silent heartbeat.
void WriteStallDump(const char* heartbeat_name, std::uint64_t silent_ns);

namespace internal {
// Test hook: runs the same writer the fatal handler uses (sig/addr
// faked) against the pre-opened fd. Not async-signal-safe to *call*
// concurrently with a real crash, but exercises the AS-safe code path.
void WriteCrashDumpForTest(int sig);
}  // namespace internal

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_CRASH_DUMP_H_
