#include "obs/diag/crash_dump.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>

#include "common/parallel.h"
#include "obs/diag/flight_recorder.h"
#include "obs/diag/sigsafe.h"
#include "obs/diag/stack_capture.h"
#include "obs/diag/watchdog.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace dd::obs::diag {

namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
    default:
      return "SIG?";
  }
}

std::atomic<bool> g_enabled{false};
std::atomic<int> g_crash_fd{-1};
char g_crash_path[512] = {0};
char g_dir[448] = {0};
std::uint64_t g_start_ns = 0;
std::atomic<std::uint64_t> g_dump_counter{0};
// First crashing thread wins; a second fault (other thread, or a crash
// inside the handler itself) goes straight to the default disposition.
std::atomic<bool> g_crashing{false};

struct sigaction g_old_actions[sizeof(kFatalSignals) /
                               sizeof(kFatalSignals[0])];
alignas(16) char g_alt_stack[64 * 1024];

// ---- pre-rendered preamble (metrics), double-buffered --------------
// The fatal handler cannot render metrics (allocation), so normal-
// context code renders into the inactive buffer and flips the index
// with a release store; the handler reads index with acquire and the
// matching buffer is fully written.
constexpr std::size_t kPreambleCapacity = 256 * 1024;
char g_preamble[2][kPreambleCapacity];
std::size_t g_preamble_len[2] = {0, 0};
std::atomic<int> g_preamble_active{-1};  // -1: never rendered
std::mutex g_preamble_mutex;             // serializes renderers only

void SinkEventLine(DumpSink& sink, const FlightEvent& ev) {
  SinkDec(sink, ev.seq);
  SinkChar(sink, ' ');
  SinkDec(sink, ev.t_ns);
  SinkChar(sink, ' ');
  SinkStr(sink, EventTypeName(ev.type));
  SinkChar(sink, ' ');
  // name is NUL-terminated by the recorder; '-' keeps the column count
  // stable for empty names.
  SinkStr(sink, ev.name[0] != '\0' ? ev.name : "-");
  SinkChar(sink, ' ');
  SinkDec(sink, ev.arg0);
  SinkChar(sink, ' ');
  SinkDec(sink, ev.arg1);
  SinkChar(sink, '\n');
}

void SinkHeader(DumpSink& sink, const char* reason) {
  SinkStr(sink, "DDDIAG 1\n");
  SinkStr(sink, "reason: ");
  SinkStr(sink, reason);
  SinkChar(sink, '\n');
}

void SinkProcessLines(DumpSink& sink) {
  SinkStr(sink, "pid: ");
  SinkDec(sink, static_cast<std::uint64_t>(::getpid()));
  SinkChar(sink, '\n');
  SinkStr(sink, "tid: ");
  SinkDec(sink, static_cast<std::uint64_t>(SigsafeTid()));
  SinkChar(sink, '\n');
  SinkStr(sink, "uptime_ns: ");
  const std::uint64_t now = SigsafeNowNs();
  SinkDec(sink, now > g_start_ns ? now - g_start_ns : 0);
  SinkChar(sink, '\n');
  SinkStr(sink, "rss_kb: ");
  SinkDec(sink, SigsafeRssKb());
  SinkChar(sink, '\n');
}

void SinkBacktrace(DumpSink& sink, int tid, void* const* frames,
                   std::size_t count) {
  SinkStr(sink, "--- backtrace tid ");
  SinkDec(sink, static_cast<std::uint64_t>(tid));
  SinkChar(sink, '\n');
  for (std::size_t i = 0; i < count; ++i) {
    SinkHex(sink, reinterpret_cast<std::uint64_t>(frames[i]));
    SinkChar(sink, '\n');
  }
}

void SinkHeartbeats(DumpSink& sink) {
  SinkStr(sink, "--- heartbeats\n");
  const Heartbeat* beats[64];
  const std::size_t n = RawHeartbeats(beats, 64);
  const std::uint64_t now = SigsafeNowNs();
  for (std::size_t i = 0; i < n; ++i) {
    const Heartbeat* hb = beats[i];
    const std::uint64_t last = hb->last_beat_ns.load(std::memory_order_relaxed);
    SinkStr(sink, hb->name);
    SinkStr(sink, " armed=");
    SinkSignedDec(sink, hb->armed.load(std::memory_order_relaxed));
    SinkStr(sink, " beats=");
    SinkDec(sink, hb->beats.load(std::memory_order_relaxed));
    SinkStr(sink, " age_ns=");
    SinkDec(sink, (last != 0 && now > last) ? now - last : 0);
    SinkStr(sink, " in_stall=");
    SinkChar(sink, hb->in_stall.load(std::memory_order_relaxed) ? '1' : '0');
    SinkChar(sink, '\n');
  }
}

// Lock-free ring walk through Ring::Read — the handler path. Live
// dumps go through FlightRecorder::Snapshot(), which reads the same
// way, so both emit identical line grammar.
void SinkFlightRingsRaw(DumpSink& sink) {
  const internal::FlightRingTable& rings = internal::g_flight_rings;
  const std::size_t n = rings.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Ring<FlightEvent>& ring = *rings[i];
    SinkStr(sink, "--- flightrec tid ");
    SinkDec(sink, static_cast<std::uint64_t>(ring.tid()));
    SinkChar(sink, '\n');
    ring.ForEach(0, ring.head(),
                 [&](const FlightEvent& ev) { SinkEventLine(sink, ev); });
  }
}

void SinkModules(DumpSink& sink) {
  SinkStr(sink, "--- modules\n");
  SinkFile(sink, "/proc/self/maps");
}

void SinkPreamble(DumpSink& sink) {
  const int active = g_preamble_active.load(std::memory_order_acquire);
  if (active < 0) {
    SinkStr(sink, "--- metrics\n");
    return;
  }
  sink.Append(g_preamble[active], g_preamble_len[active]);
}

// The complete async-signal-safe dump body shared by the fatal handler
// and the test hook.
void WriteCrashDumpToFd(int fd, int sig, void* fault_addr) {
  FdSink sink(fd);
  SinkHeader(sink, "crash");
  SinkStr(sink, "signal: ");
  SinkDec(sink, static_cast<std::uint64_t>(sig));
  SinkChar(sink, ' ');
  SinkStr(sink, SignalName(sig));
  SinkChar(sink, '\n');
  SinkStr(sink, "fault_addr: ");
  SinkHex(sink, reinterpret_cast<std::uint64_t>(fault_addr));
  SinkChar(sink, '\n');
  SinkProcessLines(sink);

  void* frames[kMaxStackFrames];
  const std::size_t count = CaptureOwnStack(frames, kMaxStackFrames);
  SinkBacktrace(sink, SigsafeTid(), frames, count);

  SinkHeartbeats(sink);
  SinkFlightRingsRaw(sink);
  SinkModules(sink);
  SinkPreamble(sink);
  SinkStr(sink, "--- end\n");
  ::fsync(fd);
}

void FatalSignalHandler(int sig, siginfo_t* info, void* /*ucontext*/) {
  // Restore defaults first so any fault inside this handler terminates
  // instead of recursing.
  for (std::size_t i = 0;
       i < sizeof(kFatalSignals) / sizeof(kFatalSignals[0]); ++i) {
    signal(kFatalSignals[i], SIG_DFL);
  }
  bool expected = false;
  if (g_crashing.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    const int fd = g_crash_fd.load(std::memory_order_acquire);
    if (fd >= 0) {
      WriteCrashDumpToFd(fd, sig, info != nullptr ? info->si_addr : nullptr);
    }
  }
  ::raise(sig);
}

void OnDemandSignalHandler(int /*sig*/) { RequestOnDemandDump(); }

// Worker-pool bridge (dd::SetPoolHeartbeatFn): every top-level chunk
// arms the shared "pool.chunk" heartbeat for its duration, so a chunk
// that wedges past the stall timeout trips the watchdog.
Heartbeat* g_pool_heartbeat = nullptr;

void PoolHeartbeatShim(bool begin) {
  Heartbeat* hb = g_pool_heartbeat;
  if (hb == nullptr) return;
  if (begin) {
    hb->Arm();
  } else {
    hb->Disarm();
  }
}

void RenderPreambleLocked() {
  // Render into the inactive buffer, then flip.
  const int active = g_preamble_active.load(std::memory_order_relaxed);
  const int next = active == 0 ? 1 : 0;

  std::string text;
  text.reserve(16 * 1024);
  text += "--- metrics\n";
  text += MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot());
  text += '\n';
  const std::size_t len =
      text.size() < kPreambleCapacity ? text.size() : kPreambleCapacity;
  std::memcpy(g_preamble[next], text.data(), len);
  g_preamble_len[next] = len;
  g_preamble_active.store(next, std::memory_order_release);
}

std::string DumpFileName(const char* kind) {
  const std::uint64_t n =
      g_dump_counter.fetch_add(1, std::memory_order_relaxed);
  std::string name = kind;
  name += '.';
  name += std::to_string(::getpid());
  name += '.';
  name += std::to_string(n);
  name += ".dddump";
  return name;
}

}  // namespace

bool EnableDiagnostics(const DiagOptions& options) {
  bool expected = false;
  if (!g_enabled.compare_exchange_strong(expected, true)) return true;

  g_start_ns = SigsafeNowNs();
  FlightRecorder::Enable(options.flight_ring_capacity);
  InitStackCapture();
  g_pool_heartbeat = RegisterHeartbeat("pool.chunk");
  dd::SetPoolHeartbeatFn(&PoolHeartbeatShim);

  if (!options.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.dir, ec);
    if (ec) {
      DD_LOG(ERROR) << "diag: cannot create dump dir '" << options.dir
                     << "': " << ec.message();
      g_enabled.store(false);
      return false;
    }
    std::strncpy(g_dir, options.dir.c_str(), sizeof(g_dir) - 1);

    std::string path = options.dir;
    if (!path.empty() && path.back() != '/') path += '/';
    path += "crash." + std::to_string(::getpid()) + ".dddump";
    const int fd =
        ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      DD_LOG(ERROR) << "diag: cannot pre-open crash dump '" << path
                     << "': " << std::strerror(errno);
      g_enabled.store(false);
      return false;
    }
    std::strncpy(g_crash_path, path.c_str(), sizeof(g_crash_path) - 1);
    g_crash_fd.store(fd, std::memory_order_release);
  }

  RefreshPreamble();

  if (options.install_signal_handlers) {
    stack_t alt;
    std::memset(&alt, 0, sizeof(alt));
    alt.ss_sp = g_alt_stack;
    alt.ss_size = sizeof(g_alt_stack);
    sigaltstack(&alt, nullptr);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &FatalSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    for (std::size_t i = 0;
         i < sizeof(kFatalSignals) / sizeof(kFatalSignals[0]); ++i) {
      sigaction(kFatalSignals[i], &sa, &g_old_actions[i]);
    }

    struct sigaction usr2;
    std::memset(&usr2, 0, sizeof(usr2));
    usr2.sa_handler = &OnDemandSignalHandler;
    sigemptyset(&usr2.sa_mask);
    usr2.sa_flags = SA_RESTART;
    sigaction(SIGUSR2, &usr2, nullptr);
  }

  if (options.start_watchdog) {
    Watchdog::Start(options.watchdog_interval_ms, options.stall_timeout_ms);
  }

  // Clean exits tear down the watchdog and unlink the (still empty)
  // pre-opened crash file, so a directory of dumps only ever holds
  // runs that actually crashed or stalled.
  static const bool atexit_registered = [] {
    std::atexit(&DisableDiagnostics);
    return true;
  }();
  (void)atexit_registered;

  DD_LOG(INFO) << "diag: enabled (dir="
                << (options.dir.empty() ? "<none>" : options.dir)
                << ", stall_timeout_ms=" << options.stall_timeout_ms << ")";
  return true;
}

void DisableDiagnostics() {
  if (!g_enabled.exchange(false)) return;
  dd::SetPoolHeartbeatFn(nullptr);
  Watchdog::Stop();
  FlightRecorder::Disable();
  for (std::size_t i = 0;
       i < sizeof(kFatalSignals) / sizeof(kFatalSignals[0]); ++i) {
    signal(kFatalSignals[i], SIG_DFL);
  }
  signal(SIGUSR2, SIG_DFL);
  const int fd = g_crash_fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    struct stat st;
    const bool empty = ::fstat(fd, &st) == 0 && st.st_size == 0;
    ::close(fd);
    // A clean shutdown leaves no zero-byte crash stub behind.
    if (empty && g_crash_path[0] != '\0') ::unlink(g_crash_path);
  }
  g_crash_path[0] = '\0';
  g_dir[0] = '\0';
}

bool DiagnosticsEnabled() { return g_enabled.load(std::memory_order_acquire); }

std::string DiagDir() { return std::string(g_dir); }

void RefreshPreamble() {
  std::lock_guard<std::mutex> lock(g_preamble_mutex);
  RenderPreambleLocked();
}

std::string CaptureLiveDump(const char* reason) {
  std::string out;
  out.reserve(32 * 1024);
  StringSink sink(&out);
  SinkHeader(sink, reason);
  SinkProcessLines(sink);

  static ThreadStack stacks[kMaxCapturedThreads];
  static std::mutex stacks_mutex;
  {
    std::lock_guard<std::mutex> lock(stacks_mutex);
    const std::size_t n = CaptureAllThreadStacks(stacks, /*deadline_ms=*/500);
    for (std::size_t i = 0; i < n; ++i) {
      SinkBacktrace(sink, stacks[i].tid, stacks[i].frames,
                    stacks[i].frame_count);
      if (!stacks[i].complete) SinkStr(sink, "(thread did not respond)\n");
    }
  }

  SinkHeartbeats(sink);
  for (const auto& thread : FlightRecorder::Snapshot()) {
    SinkStr(sink, "--- flightrec tid ");
    SinkDec(sink, static_cast<std::uint64_t>(thread.tid));
    SinkChar(sink, '\n');
    for (const FlightEvent& ev : thread.events) SinkEventLine(sink, ev);
  }
  SinkModules(sink);

  // Live dumps can afford a fresh render instead of the preamble.
  RefreshPreamble();
  SinkPreamble(sink);
  SinkStr(sink, "--- end\n");
  return out;
}

std::string WriteLiveDumpFile(const char* kind, const char* reason) {
  if (g_dir[0] == '\0') return "";
  std::string path = g_dir;
  if (path.back() != '/') path += '/';
  path += DumpFileName(kind);
  const std::string dump = CaptureLiveDump(reason);
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return "";
  FdSink sink(fd);
  sink.Append(dump.data(), dump.size());
  ::close(fd);
  return path;
}

void WriteStallDump(const char* heartbeat_name, std::uint64_t silent_ns) {
  std::string reason = "stall";
  const std::string path = WriteLiveDumpFile("stall", reason.c_str());
  if (!path.empty()) {
    DD_LOG(WARN) << "diag: stall dump for heartbeat '" << heartbeat_name
                  << "' (silent " << silent_ns / 1000000 << " ms): " << path;
  }
}

namespace internal {

void WriteCrashDumpForTest(int sig) {
  const int fd = g_crash_fd.load(std::memory_order_acquire);
  if (fd < 0) return;
  WriteCrashDumpToFd(fd, sig, nullptr);
}

}  // namespace internal

}  // namespace dd::obs::diag
