// Crash dump orchestration — the entry point of the diag subsystem
// (DESIGN.md §15).
//
// EnableDiagnostics() pre-opens a dump fd under DiagOptions.dir,
// installs fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
// SIGILL) on an alternate stack and enables the flight recorder. It
// starts no thread. The handlers write a line-oriented text dump using
// only async-signal-safe primitives, then restore the default
// disposition and re-raise, so the process still dies with the
// original signal.
//
// Dump format (parsed by `ddtool diag` via dump_reader):
//
//   DDDIAG 1
//   reason: crash
//   signal: 11 SIGSEGV
//   fault_addr: 0x...
//   pid: ... / tid: ... / uptime_ns: ... / rss_kb: ...
//   --- backtrace tid <N>
//   0x7f.. 0x7f.. ...           (one hex PC per line)
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
// rendered by RefreshPreamble(), because rendering allocates and
// therefore cannot happen inside the handler. It is refreshed after
// every applied incremental batch and after ddtool's determination
// step, so a crash dump's metrics are as of the last completed batch
// or determination.

#ifndef DD_OBS_DIAG_CRASH_DUMP_H_
#define DD_OBS_DIAG_CRASH_DUMP_H_

#include <cstddef>
#include <string>

namespace dd::obs::diag {

struct DiagOptions {
  // Directory for the crash dump file. Must exist or be creatable;
  // empty disables file output.
  std::string dir;
  std::size_t flight_ring_capacity = 1024;
  bool install_signal_handlers = true;
};

// Idempotent (second call is a no-op). Returns false when `dir` could
// not be created or the dump fd could not be opened.
bool EnableDiagnostics(const DiagOptions& options);

// Disables the flight recorder, restores default signal dispositions,
// and removes the (empty) pre-opened crash file.
void DisableDiagnostics();

bool DiagnosticsEnabled();

// Re-renders the metrics preamble buffers (normal context only;
// allocates). Returns at once when diagnostics are off.
void RefreshPreamble();

namespace internal {
// Test hook: runs the same writer the fatal handler uses (sig/addr
// faked) against the pre-opened fd. Not async-signal-safe to *call*
// concurrently with a real crash, but exercises the AS-safe code path.
void WriteCrashDumpForTest(int sig);
}  // namespace internal

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_CRASH_DUMP_H_
