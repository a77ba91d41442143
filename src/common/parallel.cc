#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dd {

namespace {

// Sanity cap on pool size: a request beyond this still runs, just with
// fewer concurrent chunks than asked for.
constexpr std::size_t kMaxWorkers = 256;

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t EnvDefaultThreads() {
  const char* env = std::getenv("DD_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxWorkers);
    }
  }
  return HardwareThreads();
}

// 0 = "use the environment/hardware default", set by SetDefaultThreads.
std::atomic<std::size_t> g_default_threads{0};

// Set for the lifetime of a chunk execution (worker or participating
// caller); nested ParallelFor calls run inline when it is set.
thread_local bool t_in_chunk = false;

// Phase label of the top-level chunk this thread is executing
// (CurrentPoolPhase). Nested chunks do not overwrite it.
thread_local const char* t_phase = nullptr;

// Cleared when the pool singleton is destroyed so late ParallelFor
// calls (static destruction order) degrade to inline execution instead
// of touching a dead pool. Trivially destructible on purpose.
std::atomic<bool> g_pool_alive{false};

// Observation hook (SetPoolObserver). Snapshotted once per invocation
// so a concurrent uninstall cannot split one invocation's events
// between observers. Trivially destructible on purpose.
std::atomic<PoolObserver*> g_pool_observer{nullptr};

// Process-wide ParallelFor sequence number; chunk events carry it so
// the collector can join them back to their invocation.
std::atomic<std::uint64_t> g_invocation_seq{0};

// Watchdog heartbeat hook (SetPoolHeartbeatFn). Trivially destructible
// on purpose; fired only around top-level chunks.
std::atomic<PoolHeartbeatFn> g_pool_heartbeat{nullptr};

inline void PoolHeartbeat(bool begin) {
  const PoolHeartbeatFn fn = g_pool_heartbeat.load(std::memory_order_acquire);
  if (fn != nullptr) fn(begin);
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One ParallelFor invocation in flight on the pool. Workers and the
// caller claim chunk indices from `next`; the caller blocks until
// `done` reaches `chunks`.
struct PoolTask {
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn;
  std::size_t count = 0;
  std::size_t per_chunk = 0;
  std::size_t chunks = 0;  // number of non-empty chunks
  const char* phase = "";
  std::uint64_t invocation = 0;
  PoolObserver* observer = nullptr;  // snapshot; null = no recording
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
};

// Runs fn over chunk `c` = [begin, end) with the bookkeeping every
// chunk shares, pooled or inline: t_in_chunk for the duration, the
// heartbeat and t_phase around a top-level chunk only (a nested chunk
// runs inside its enclosing one and leaves both alone), and, when
// `observer` is set, the timed chunk event. No clock is read without
// an observer.
void RunChunk(
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    const char* phase, std::uint64_t invocation, PoolObserver* observer,
    std::size_t c, std::size_t begin, std::size_t end, bool caller) {
  PoolChunkEvent event{phase, invocation, c, begin, end, 0, 0, caller};
  const bool was_in_chunk = t_in_chunk;
  t_in_chunk = true;
  if (!was_in_chunk) {
    PoolHeartbeat(/*begin=*/true);
    t_phase = phase;
  }
  if (observer != nullptr) event.start_ns = NowNs();
  fn(c, begin, end);
  if (observer != nullptr) {
    event.end_ns = NowNs();
    observer->OnChunk(event);
  }
  if (!was_in_chunk) {
    t_phase = nullptr;
    PoolHeartbeat(/*begin=*/false);
  }
  t_in_chunk = was_in_chunk;
}

void ExecuteChunk(PoolTask& task, std::size_t c, bool caller) {
  const std::size_t begin = c * task.per_chunk;
  RunChunk(*task.fn, task.phase, task.invocation, task.observer, c, begin,
           std::min(task.count, begin + task.per_chunk), caller);
  if (task.done.fetch_add(1, std::memory_order_acq_rel) + 1 == task.chunks) {
    // Synchronize with the caller's wait; the lock pairs the final
    // increment with the predicate re-check.
    std::lock_guard<std::mutex> lock(task.mu);
    task.cv.notify_all();
  }
}

class WorkerPool {
 public:
  WorkerPool() { g_pool_alive.store(true, std::memory_order_release); }

  ~WorkerPool() {
    g_pool_alive.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  // Runs `task` to completion; the calling thread claims chunks too.
  void Run(const std::shared_ptr<PoolTask>& task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkersLocked(task->chunks - 1);
      tasks_.push_back(task);
    }
    cv_.notify_all();
    for (;;) {
      const std::size_t c = task->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= task->chunks) break;
      ExecuteChunk(*task, c, /*caller=*/true);
    }
    std::unique_lock<std::mutex> lock(task->mu);
    task->cv.wait(lock, [&] {
      return task->done.load(std::memory_order_acquire) == task->chunks;
    });
  }

 private:
  void EnsureWorkersLocked(std::size_t want) {
    want = std::min(want, kMaxWorkers);
    while (workers_.size() < want) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
  }

  void WorkerMain() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      const std::shared_ptr<PoolTask> task = tasks_.front();
      const std::size_t c = task->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= task->chunks) {
        // Task exhausted; retire it if it is still queued.
        if (!tasks_.empty() && tasks_.front() == task) tasks_.pop_front();
        continue;
      }
      lock.unlock();
      ExecuteChunk(*task, c, /*caller=*/false);
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<PoolTask>> tasks_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

WorkerPool& Pool() {
  static WorkerPool pool;
  return pool;
}

}  // namespace

std::size_t DefaultThreads() {
  const std::size_t overridden =
      g_default_threads.load(std::memory_order_relaxed);
  if (overridden != 0) return overridden;
  static const std::size_t env_default = EnvDefaultThreads();
  return env_default;
}

void SetDefaultThreads(std::size_t n) {
  g_default_threads.store(std::min(n, kMaxWorkers),
                          std::memory_order_relaxed);
}

std::size_t EffectiveChunks(std::size_t count, std::size_t threads) {
  if (threads <= 1 || count <= 1) return 1;
  return std::min(threads, count);
}

bool InParallelChunk() { return t_in_chunk; }

const char* CurrentPoolPhase() { return t_phase; }

PoolObserver* SetPoolObserver(PoolObserver* observer) {
  return g_pool_observer.exchange(observer, std::memory_order_acq_rel);
}

PoolObserver* GetPoolObserver() {
  return g_pool_observer.load(std::memory_order_acquire);
}

PoolHeartbeatFn SetPoolHeartbeatFn(PoolHeartbeatFn fn) {
  return g_pool_heartbeat.exchange(fn, std::memory_order_acq_rel);
}

void ParallelFor(const char* phase, std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)>& fn) {
  if (count == 0) return;
  if (threads == 0) threads = DefaultThreads();
  std::size_t chunks = EffectiveChunks(count, threads);
  // Nested calls (or calls racing pool shutdown) run inline as one
  // chunk — the outer ParallelFor already owns the concurrency.
  const bool nested = t_in_chunk;
  if (nested) chunks = 1;
  // One relaxed-ish load per invocation; everything below branches on
  // the snapshot, so a disabled observer costs no clock reads. Nested
  // runs are never recorded — their time is already inside the
  // enclosing chunk's event.
  PoolObserver* const observer =
      nested ? nullptr : g_pool_observer.load(std::memory_order_acquire);
  const std::uint64_t invocation =
      observer != nullptr
          ? g_invocation_seq.fetch_add(1, std::memory_order_relaxed)
          : 0;
  const std::uint64_t start_ns = observer != nullptr ? NowNs() : 0;
  if (chunks == 1) {
    RunChunk(fn, phase, invocation, observer, 0, 0, count, /*caller=*/true);
  } else {
    auto task = std::make_shared<PoolTask>();
    task->fn = &fn;
    task->count = count;
    task->per_chunk = (count + chunks - 1) / chunks;
    // Round the chunk count down to the non-empty ones so completion
    // tracking matches the chunks that actually run.
    task->chunks = (count + task->per_chunk - 1) / task->per_chunk;
    chunks = task->chunks;
    task->phase = phase;
    task->invocation = invocation;
    task->observer = observer;
    if (!g_pool_alive.load(std::memory_order_acquire)) {
      // First use starts the pool; a call after static destruction runs
      // the chunks inline instead.
      static std::atomic<bool> ever_started{false};
      if (ever_started.load(std::memory_order_acquire)) {
        for (std::size_t c = 0; c < task->chunks; ++c) {
          ExecuteChunk(*task, c, /*caller=*/true);
        }
      } else {
        ever_started.store(true, std::memory_order_release);
        Pool().Run(task);
      }
    } else {
      Pool().Run(task);
    }
  }
  // Top-level inline runs are reported too, so the event stream has the
  // same shape at any thread count.
  if (observer != nullptr) {
    observer->OnInvocation(
        {phase, invocation, count, chunks, threads, start_ns, NowNs()});
  }
}

void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)>& fn) {
  ParallelFor("", count, threads, fn);
}

}  // namespace dd
