#include "obs/prof/profiler.h"

#include <dirent.h>
#include <signal.h>
#include <time.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "obs/diag/sigsafe.h"
#include "obs/diag/stack_capture.h"
#include "obs/metrics.h"
#include "obs/prof/folded.h"
#include "obs/ring.h"
#include "obs/trace.h"

// Older glibc spells the SIGEV_THREAD_ID target field through the
// union member only; newer ones provide the POSIX-ish alias.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace dd::obs::prof {

namespace internal {
std::atomic<bool> g_prof_active{false};
}  // namespace internal

namespace {

constexpr std::size_t kMaxProfThreads = 256;

// One queued sample. Fixed-size POD: the handler fills one on its stack
// and pushes it, the housekeeper copies it out — no pointers are
// followed in signal context. span/phase are static-storage literals
// published by TraceSpan / ParallelFor, safe to dereference later from
// any thread.
struct SampleSlot {
  const char* span = nullptr;
  const char* phase = nullptr;
  std::uint32_t frame_count = 0;
  std::uint32_t truncated = 0;
  void* frames[kMaxProfFrames] = {};
};

// One ring per sampled tid, registered by the housekeeper on first arm
// and never freed, so a late signal on a dying capture can never touch
// freed memory. The producer is the thread's own SIGPROF handler.
RingTable<Ring<SampleSlot>, kMaxProfThreads> g_sample_rings;
// SIGPROF delivered to a thread whose ring was not registered yet (a
// thread racing its first housekeeper scan).
std::atomic<std::uint64_t> g_unarmed_drops{0};

thread_local Ring<SampleSlot>* t_ring = nullptr;

}  // namespace

// The SIGPROF handler. extern "C" with a project-unique unmangled name
// (and outside the anonymous namespace) so -rdynamic exports it: the
// folded renderer recognizes it by name when trimming the handler's
// own frames off every sample, which an anonymous-namespace local
// symbol (invisible to dladdr) would defeat.
extern "C" void DdProfSigprofHandler(int /*sig*/) {
  const int saved_errno = errno;
  if (internal::g_prof_active.load(std::memory_order_relaxed)) {
    // First sample on this thread: find the ring the housekeeper
    // registered for our tid (lock-free, async-signal-safe).
    if (t_ring == nullptr) {
      t_ring = g_sample_rings.Find(diag::SigsafeTid());
    }
    if (t_ring == nullptr) {
      g_unarmed_drops.fetch_add(1, std::memory_order_relaxed);
    } else {
      SampleSlot slot;
      const std::size_t n =
          diag::CaptureOwnStack(slot.frames, kMaxProfFrames);
      slot.frame_count = static_cast<std::uint32_t>(n);
      slot.truncated = n >= kMaxProfFrames ? 1 : 0;
      slot.span = CurrentSpanName();
      slot.phase = dd::CurrentPoolPhase();
      t_ring->Push(slot);
    }
  }
  errno = saved_errno;
}

namespace {

// Kernel CPU-clock encoding (linux posix-timers): id = (~tid << 3) |
// bits, where bits 0-1 select the clock (2 = CPUCLOCK_SCHED, the clock
// pthread_getcpuclockid returns) and bit 2 marks a per-thread clock.
// This is how a coordinator thread names *another* thread's
// CLOCK_THREAD_CPUTIME_ID without a pthread_t for it.
clockid_t ThreadCpuClock(int tid) {
  return static_cast<clockid_t>(
      ~(static_cast<unsigned int>(tid) << 3) & ~7u) |
         static_cast<clockid_t>(6);
}

// Aggregation key: span + phase pointers and the raw frame words,
// byte-packed. Pointer identity is enough for span/phase — they are
// static-storage literals reused per call site.
std::string SlotKey(const SampleSlot& slot) {
  std::string key;
  key.resize(2 * sizeof(const char*) +
             slot.frame_count * sizeof(void*));
  char* out = key.data();
  std::memcpy(out, &slot.span, sizeof(slot.span));
  out += sizeof(slot.span);
  std::memcpy(out, &slot.phase, sizeof(slot.phase));
  out += sizeof(slot.phase);
  std::memcpy(out, slot.frames, slot.frame_count * sizeof(void*));
  return key;
}

// Everything the capture accumulates, guarded by g_mu (the handler
// touches only the ring atomics above).
struct CaptureState {
  ProfilerOptions options;
  bool running = false;
  std::chrono::steady_clock::time_point started;
  std::thread housekeeper;
  std::vector<std::pair<int, timer_t>> timers;  // tid -> armed timer
  std::map<std::string, std::uint64_t> aggregated;
  // Per ring (table index): the sequence the next drain starts from.
  std::vector<std::uint64_t> cursors;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;  // overwritten or torn before a drain
  std::uint64_t truncated = 0;
  std::string last_summary;
};

std::mutex g_mu;
CaptureState& State() {
  static CaptureState* state = new CaptureState();
  return *state;
}

// Housekeeper wakeup (Stop() cuts the drain sleep short).
std::mutex g_wake_mu;
std::condition_variable g_wake_cv;
std::atomic<bool> g_running{false};

// Arms a per-thread CPU-time timer for every thread in /proc/self/task
// that does not have one yet (threads spawned mid-capture get theirs
// on the next scan, <= drain_period_ms late). Requires g_mu.
void ArmNewThreadsLocked(CaptureState& state) {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (struct dirent* ent = ::readdir(dir)) {
    if (ent->d_name[0] < '0' || ent->d_name[0] > '9') continue;
    const int tid = std::atoi(ent->d_name);
    bool armed = false;
    for (const auto& [armed_tid, timer] : state.timers) {
      if (armed_tid == tid) {
        armed = true;
        break;
      }
    }
    if (armed) continue;
    if (g_sample_rings.Find(tid) == nullptr) {
      if (g_sample_rings.full()) continue;  // this thread stays unsampled
      g_sample_rings.Add(state.options.ring_capacity, tid);
    }
    sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = tid;
    timer_t timer;
    if (::timer_create(ThreadCpuClock(tid), &sev, &timer) != 0) {
      continue;  // thread exited between readdir and now
    }
    const long period_ns = 1000000000L / state.options.hz;
    itimerspec spec{};
    spec.it_interval.tv_sec = period_ns / 1000000000L;
    spec.it_interval.tv_nsec = period_ns % 1000000000L;
    spec.it_value = spec.it_interval;
    if (::timer_settime(timer, 0, &spec, nullptr) != 0) {
      ::timer_delete(timer);
      continue;
    }
    state.timers.emplace_back(tid, timer);
  }
  ::closedir(dir);
}

// Folds every sample queued since the last drain into the aggregation
// map; overwritten and torn samples count as dropped. Requires g_mu.
void DrainRingsLocked(CaptureState& state) {
  const std::size_t count = g_sample_rings.size();
  state.cursors.resize(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const Ring<SampleSlot>& ring = *g_sample_rings[i];
    const std::uint64_t head = ring.head();
    state.dropped += ring.ForEach(
        state.cursors[i], head, [&state](const SampleSlot& slot) {
          state.aggregated[SlotKey(slot)] += 1;
          state.samples += 1;
          state.truncated += slot.truncated;
        });
    state.cursors[i] = head;
  }
}

// The aggregated map as a Profile (no teardown). Requires g_mu.
Profile BuildProfileLocked(const CaptureState& state) {
  Profile profile;
  profile.hz = state.options.hz;
  profile.duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state.started)
          .count());
  profile.samples = state.samples;
  profile.truncated = state.truncated;
  profile.dropped =
      state.dropped + g_unarmed_drops.load(std::memory_order_relaxed);
  profile.entries.reserve(state.aggregated.size());
  for (const auto& [key, hits] : state.aggregated) {
    ProfileEntry entry;
    const char* span = nullptr;
    const char* phase = nullptr;
    const char* in = key.data();
    std::memcpy(&span, in, sizeof(span));
    in += sizeof(span);
    std::memcpy(&phase, in, sizeof(phase));
    in += sizeof(phase);
    const std::size_t frames =
        (key.size() - 2 * sizeof(const char*)) / sizeof(void*);
    entry.frames.resize(frames);
    for (std::size_t f = 0; f < frames; ++f) {
      void* pc = nullptr;
      std::memcpy(&pc, in + f * sizeof(void*), sizeof(pc));
      entry.frames[f] = reinterpret_cast<std::uintptr_t>(pc);
    }
    if (span != nullptr) entry.span = span;
    if (phase != nullptr) entry.phase = phase;
    entry.count = hits;
    profile.entries.push_back(std::move(entry));
  }
  return profile;
}

void HousekeeperMain(int drain_period_ms) {
  while (g_running.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(g_mu);
      CaptureState& state = State();
      if (state.running) {
        ArmNewThreadsLocked(state);
        DrainRingsLocked(state);
      }
    }
    std::unique_lock<std::mutex> wake(g_wake_mu);
    g_wake_cv.wait_for(wake, std::chrono::milliseconds(drain_period_ms),
                       [] { return !g_running.load(std::memory_order_acquire); });
  }
}

void InstallSigprofHandler() {
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &DdProfSigprofHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGPROF, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

}  // namespace

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

Status Profiler::Start(const ProfilerOptions& options) {
  if (options.hz < 1 || options.hz > 10000) {
    return Status::InvalidArgument("profiler hz must be in [1, 10000]");
  }
  if (options.ring_capacity < 1 || options.ring_capacity > kMaxRingCapacity) {
    return Status::InvalidArgument(
        "profiler ring_capacity must be in [1, 2^24]");
  }
  if (options.drain_period_ms < 1) {
    return Status::InvalidArgument("profiler drain_period_ms must be >= 1");
  }
  std::lock_guard<std::mutex> lock(g_mu);
  CaptureState& state = State();
  if (state.running) {
    return Status::FailedPrecondition(
        "a profiler capture is already running");
  }
  // Warm libgcc's unwinder before the first in-handler backtrace()
  // (its lazy dlopen is not signal-safe) and install our handler.
  diag::InitStackCapture();
  InstallSigprofHandler();

  // Stale queued samples from the previous capture (rings are never
  // freed) are discarded.
  for (std::size_t i = 0; i < g_sample_rings.size(); ++i) {
    g_sample_rings[i]->Clear();
  }
  g_unarmed_drops.store(0, std::memory_order_relaxed);

  state.options = options;
  state.aggregated.clear();
  state.cursors.clear();
  state.samples = 0;
  state.dropped = 0;
  state.truncated = 0;
  state.started = std::chrono::steady_clock::now();
  state.running = true;
  g_running.store(true, std::memory_order_release);

  // Arm the calling thread's timer (and every other live thread's)
  // before opening the gate, so a --profile run samples from its very
  // first instruction.
  ArmNewThreadsLocked(state);
  internal::g_prof_active.store(true, std::memory_order_release);
  state.housekeeper =
      std::thread([period = options.drain_period_ms] {
        HousekeeperMain(period);
      });
  return Status::Ok();
}

Profile Profiler::Stop() {
  std::thread housekeeper;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    CaptureState& state = State();
    if (!state.running) return Profile();
    // Gate off first: timers may still fire until deleted, and a
    // pending SIGPROF can deliver after timer_delete; the handler
    // sees the closed gate and returns.
    internal::g_prof_active.store(false, std::memory_order_release);
    g_running.store(false, std::memory_order_release);
    housekeeper = std::move(state.housekeeper);
  }
  g_wake_cv.notify_all();
  if (housekeeper.joinable()) housekeeper.join();

  std::lock_guard<std::mutex> lock(g_mu);
  CaptureState& state = State();
  for (const auto& [tid, timer] : state.timers) {
    ::timer_delete(timer);
  }
  state.timers.clear();
  DrainRingsLocked(state);
  Profile profile = BuildProfileLocked(state);
  state.running = false;

  static Counter& samples_counter =
      MetricsRegistry::Global().GetCounter("prof.samples");
  static Counter& dropped_counter =
      MetricsRegistry::Global().GetCounter("prof.dropped");
  static Counter& truncated_counter =
      MetricsRegistry::Global().GetCounter("prof.truncated");
  samples_counter.Add(profile.samples);
  dropped_counter.Add(profile.dropped);
  truncated_counter.Add(profile.truncated);

  state.last_summary = ProfileSummaryJson(profile);
  return profile;
}

std::string Profiler::SummaryJson() {
  std::lock_guard<std::mutex> lock(g_mu);
  CaptureState& state = State();
  if (state.running) {
    DrainRingsLocked(state);
    return ProfileSummaryJson(BuildProfileLocked(state));
  }
  return state.last_summary;
}

}  // namespace dd::obs::prof
