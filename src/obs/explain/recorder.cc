#include "obs/explain/recorder.h"

#include <algorithm>
#include <array>

#include "obs/diag/sigsafe.h"
#include "obs/metrics.h"

namespace dd::obs {

namespace {

// Skyline fronts are capped so dominance checks stay O(small); once the
// cap is hit new front points are still force-kept (a safe superset)
// but no longer considered as dominators.
constexpr std::size_t kMaxFrontSize = 512;

std::vector<double> EvalLatencyBoundsUs() {
  return {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6};
}

}  // namespace

const char* ExplainOutcomeName(ExplainOutcome outcome) {
  switch (outcome) {
    case ExplainOutcome::kEvaluated:
      return "evaluated";
    case ExplainOutcome::kPrunedS0:
      return "pruned_s0";
    case ExplainOutcome::kPrunedS1:
      return "pruned_s1";
    case ExplainOutcome::kPrunedZeroConf:
      return "pruned_zero_conf";
  }
  return "unknown";
}

const char* ExplainBoundName(ExplainBound bound) {
  switch (bound) {
    case ExplainBound::kInitial:
      return "initial";
    case ExplainBound::kAdvanced:
      return "advanced";
    case ExplainBound::kTopL:
      return "top_l";
    case ExplainBound::kUtility:
      return "utility";
  }
  return "unknown";
}

// Per-thread event storage. Only the owning thread writes; Snapshot()
// reads the counters relaxed and the ring through Ring::ForEach, so
// the per-event path takes no lock. Buffers are registered once and
// reused across runs via the epoch check.
struct ExplainRecorder::ThreadBuffer {
  std::atomic<std::uint64_t> epoch{~std::uint64_t{0}};
  // Replaced (never freed, so readers stay safe) when a recording asks
  // for a larger ring_capacity; cleared with base = head otherwise.
  // Snapshot() keeps only the newest ring_capacity events, so a larger
  // ring gives the same answers.
  std::atomic<Ring<ExplainEvent>*> ring{nullptr};
  // Events until the next sampled one (0 = the next event is kept);
  // a countdown instead of tick % sample_every keeps the per-event
  // path free of integer division.
  std::atomic<std::uint64_t> until_sample{0};
  std::atomic<std::uint64_t> sampled_out{0};
  // Owner-thread-only state (never read by Snapshot): D(ϕ[X]) of the
  // last BeginLhs and the running Pareto front over (support,
  // confidence, quality) of force-kept evaluated events.
  double current_d = 0.0;
  std::vector<std::array<double, 3>> front;

  void ResetFor(std::uint64_t new_epoch, std::size_t capacity) {
    Ring<ExplainEvent>* current = ring.load(std::memory_order_relaxed);
    if (current != nullptr && current->capacity() >= capacity) {
      current->Clear();
    } else {
      ring.store(new Ring<ExplainEvent>(capacity, diag::SigsafeTid()),
                 std::memory_order_release);
    }
    until_sample.store(0, std::memory_order_relaxed);
    sampled_out.store(0, std::memory_order_relaxed);
    current_d = 0.0;
    front.clear();
    // Last: publishes the reset to Snapshot()'s epoch filter.
    epoch.store(new_epoch, std::memory_order_release);
  }
};

ExplainRecorder& ExplainRecorder::Global() {
  static ExplainRecorder* recorder = new ExplainRecorder();
  return *recorder;
}

ExplainRecorder* ExplainRecorder::Active() {
  ExplainRecorder& recorder = Global();
  return recorder.enabled() ? &recorder : nullptr;
}

void ExplainRecorder::Enable(const ExplainConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  if (config_.sample_every == 0) config_.sample_every = 1;
  config_.ring_capacity = std::clamp<std::size_t>(
      config_.ring_capacity, 1, kMaxRingCapacity);
  sample_every_.store(config_.sample_every, std::memory_order_relaxed);
  ring_capacity_.store(config_.ring_capacity, std::memory_order_relaxed);
  run_label_.clear();
  estimated_.store(false, std::memory_order_relaxed);
  rhs_dims_ = 0;
  dmax_ = 0;
  lhs_.clear();
  lhs_seen_.store(0, std::memory_order_relaxed);
  lhs_bounded_out_.store(0, std::memory_order_relaxed);
  lhs_skipped_.store(0, std::memory_order_relaxed);
  candidates_.store(0, std::memory_order_relaxed);
  evaluated_.store(0, std::memory_order_relaxed);
  pruned_s0_.store(0, std::memory_order_relaxed);
  pruned_s1_.store(0, std::memory_order_relaxed);
  pruned_zero_conf_.store(0, std::memory_order_relaxed);
  offered_.store(0, std::memory_order_relaxed);
  next_seq_.store(0, std::memory_order_relaxed);
  // A new epoch lazily invalidates every thread's buffer; the release
  // store on enabled_ publishes the config to recording threads.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void ExplainRecorder::Disable() {
  if (!enabled_.exchange(false, std::memory_order_acq_rel)) return;
  // Registry counters are flushed once per recording rather than
  // incremented per event — the recorder's own totals are the source of
  // truth and the registry only needs run-granularity deltas.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("explain.lhs_seen")
      .Add(lhs_seen_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.lhs_bounded_out")
      .Add(lhs_bounded_out_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.lhs_skipped")
      .Add(lhs_skipped_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.candidates")
      .Add(candidates_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.evaluated")
      .Add(evaluated_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.offered")
      .Add(offered_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.pruned_s0")
      .Add(pruned_s0_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.pruned_s1")
      .Add(pruned_s1_.load(std::memory_order_relaxed));
  registry.GetCounter("explain.pruned_zero_conf")
      .Add(pruned_zero_conf_.load(std::memory_order_relaxed));

  std::vector<ExplainEvent> events;
  std::uint64_t sampled_out = 0;
  std::uint64_t dropped = 0;
  ReadBuffers(&events, &sampled_out, &dropped);
  const std::uint64_t recorded = events.size();
  registry.GetCounter("explain.events_recorded").Add(recorded);
  registry.GetCounter("explain.events_sampled_out").Add(sampled_out);
  registry.GetCounter("explain.events_dropped").Add(dropped);
}

void ExplainRecorder::SetRunLabel(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  run_label_ = label;
}

void ExplainRecorder::SetEstimated(bool estimated) {
  estimated_.store(estimated, std::memory_order_relaxed);
}

void ExplainRecorder::SetRhsGeometry(std::size_t dims, int dmax) {
  std::lock_guard<std::mutex> lock(mu_);
  rhs_dims_ = dims;
  dmax_ = dmax;
}

void ExplainRecorder::AddCandidates(std::uint64_t n) {
  candidates_.fetch_add(n, std::memory_order_relaxed);
}

std::uint32_t ExplainRecorder::BeginLhs(const ExplainLevels& levels,
                                        std::uint64_t lhs_count,
                                        std::uint64_t total,
                                        double initial_bound,
                                        ExplainBound initial_kind) {
  lhs_seen_.fetch_add(1, std::memory_order_relaxed);

  ThreadBuffer& tb = EnsureFresh(LocalBuffer());
  tb.current_d =
      total > 0 ? static_cast<double>(lhs_count) / static_cast<double>(total)
                : 0.0;

  std::lock_guard<std::mutex> lock(mu_);
  ExplainLhsInfo info;
  info.seq = static_cast<std::uint32_t>(lhs_.size());
  info.levels = levels;
  info.lhs_count = lhs_count;
  info.total = total;
  info.initial_bound = initial_bound;
  info.initial_kind = initial_kind;
  lhs_.push_back(std::move(info));
  return lhs_.back().seq;
}

bool ExplainRecorder::WillSampleNextEvent() {
  ThreadBuffer& tb = EnsureFresh(LocalBuffer());
  return tb.until_sample.load(std::memory_order_relaxed) == 0;
}

void ExplainRecorder::RecordEvaluated(std::uint32_t lhs_seq,
                                      std::uint32_t rhs_index,
                                      std::uint32_t rank,
                                      std::uint64_t xy_count,
                                      double confidence, double quality,
                                      double cq, double bound,
                                      ExplainBound bound_kind, bool offered,
                                      double eval_ns) {
  evaluated_.fetch_add(1, std::memory_order_relaxed);
  if (offered) offered_.fetch_add(1, std::memory_order_relaxed);
  if (eval_ns > 0.0) {
    static Histogram& latency = MetricsRegistry::Global().GetHistogram(
        "explain.eval_latency_us", EvalLatencyBoundsUs());
    latency.Observe(eval_ns / 1e3);
  }

  ExplainEvent event;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.lhs_seq = lhs_seq;
  event.rhs_index = rhs_index;
  event.rank = rank;
  event.outcome = ExplainOutcome::kEvaluated;
  event.bound_kind = bound_kind;
  event.offered = offered;
  event.xy_count = xy_count;
  event.confidence = confidence;
  event.quality = quality;
  event.cq = cq;
  event.bound = bound;
  event.eval_ns = eval_ns;
  Push(event, /*skyline_support=*/0.0);
}

void ExplainRecorder::RecordPruned(std::uint32_t lhs_seq,
                                   std::uint32_t rhs_index,
                                   std::uint32_t rank, ExplainOutcome outcome,
                                   double bound, ExplainBound bound_kind) {
  switch (outcome) {
    case ExplainOutcome::kPrunedS0:
      pruned_s0_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ExplainOutcome::kPrunedS1:
      pruned_s1_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ExplainOutcome::kPrunedZeroConf:
      pruned_zero_conf_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ExplainOutcome::kEvaluated:
      return;  // Programmer error; ignore rather than corrupt totals.
  }

  ExplainEvent event;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.lhs_seq = lhs_seq;
  event.rhs_index = rhs_index;
  event.rank = rank;
  event.outcome = outcome;
  event.bound_kind = bound_kind;
  event.bound = bound;
  Push(event, /*skyline_support=*/-1.0);
}

void ExplainRecorder::NoteLhsBoundedOut() {
  lhs_bounded_out_.fetch_add(1, std::memory_order_relaxed);
}

void ExplainRecorder::NoteLhsSkipped() {
  lhs_skipped_.fetch_add(1, std::memory_order_relaxed);
}

ExplainRecorder::ThreadBuffer& ExplainRecorder::LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) buffer = buffers_.Add();
  return *buffer;
}

ExplainRecorder::ThreadBuffer& ExplainRecorder::EnsureFresh(ThreadBuffer& tb) {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (tb.epoch.load(std::memory_order_relaxed) != epoch) {
    tb.ResetFor(epoch, ring_capacity_.load(std::memory_order_relaxed));
  }
  return tb;
}

void ExplainRecorder::Push(ExplainEvent event, double skyline_support) {
  ThreadBuffer& tb = EnsureFresh(LocalBuffer());

  bool forced = event.offered;
  if (event.outcome == ExplainOutcome::kEvaluated && skyline_support >= 0.0) {
    const std::array<double, 3> point = {tb.current_d * event.confidence,
                                         event.confidence, event.quality};
    bool dominated = false;
    for (std::size_t i = 0; i < tb.front.size(); ++i) {
      const auto& f = tb.front[i];
      if (f[0] >= point[0] && f[1] >= point[1] && f[2] >= point[2] &&
          (f[0] > point[0] || f[1] > point[1] || f[2] > point[2])) {
        dominated = true;
        // Move-to-front: strong dominators kill most subsequent events,
        // so surfacing this one keeps the scan O(1) in the common case
        // (front membership is order-independent, so this is safe).
        if (i > 0) std::swap(tb.front[i], tb.front[i - 1]);
        break;
      }
    }
    if (!dominated) {
      forced = true;
      if (tb.front.size() < kMaxFrontSize) {
        tb.front.erase(
            std::remove_if(tb.front.begin(), tb.front.end(),
                           [&](const std::array<double, 3>& f) {
                             return point[0] >= f[0] && point[1] >= f[1] &&
                                    point[2] >= f[2];
                           }),
            tb.front.end());
        tb.front.push_back(point);
      }
    }
  }

  const std::uint64_t until =
      tb.until_sample.load(std::memory_order_relaxed);
  const bool sampled = until == 0;
  tb.until_sample.store(
      sampled ? sample_every_.load(std::memory_order_relaxed) - 1 : until - 1,
      std::memory_order_relaxed);
  if (!forced && !sampled) {
    tb.sampled_out.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.forced = forced;
  tb.ring.load(std::memory_order_relaxed)->Push(event);
}

void ExplainRecorder::ReadBuffers(std::vector<ExplainEvent>* events,
                                  std::uint64_t* sampled_out,
                                  std::uint64_t* dropped) const {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const std::uint64_t limit = ring_capacity_.load(std::memory_order_relaxed);
  const std::size_t n = buffers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const ThreadBuffer& buffer = *buffers_[i];
    if (buffer.epoch.load(std::memory_order_acquire) != epoch) {
      continue;  // Stale (previous run).
    }
    *sampled_out += buffer.sampled_out.load(std::memory_order_relaxed);
    // The ring is at least ring_capacity long; keep its newest
    // ring_capacity events and count the rest as dropped.
    const Ring<ExplainEvent>& ring =
        *buffer.ring.load(std::memory_order_acquire);
    const std::uint64_t base = ring.base();
    const std::uint64_t head = ring.head();
    const std::size_t before = events->size();
    ring.ForEach(head > limit ? head - limit : 0, head,
                 [events](const ExplainEvent& e) { events->push_back(e); });
    *dropped += head - base - (events->size() - before);
  }
}

ExplainSnapshot ExplainRecorder::Snapshot() const {
  ExplainSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.config = config_;
    snapshot.run_label = run_label_;
    snapshot.estimated = estimated_.load(std::memory_order_relaxed);
    snapshot.rhs_dims = rhs_dims_;
    snapshot.dmax = dmax_;
    snapshot.lhs = lhs_;
  }
  snapshot.waterfall.lhs_seen = lhs_seen_.load(std::memory_order_relaxed);
  snapshot.waterfall.lhs_bounded_out =
      lhs_bounded_out_.load(std::memory_order_relaxed);
  snapshot.waterfall.lhs_skipped =
      lhs_skipped_.load(std::memory_order_relaxed);
  snapshot.waterfall.candidates = candidates_.load(std::memory_order_relaxed);
  snapshot.waterfall.evaluated = evaluated_.load(std::memory_order_relaxed);
  snapshot.waterfall.pruned_s0 = pruned_s0_.load(std::memory_order_relaxed);
  snapshot.waterfall.pruned_s1 = pruned_s1_.load(std::memory_order_relaxed);
  snapshot.waterfall.pruned_zero_conf =
      pruned_zero_conf_.load(std::memory_order_relaxed);
  snapshot.waterfall.offered = offered_.load(std::memory_order_relaxed);

  ReadBuffers(&snapshot.events, &snapshot.sampled_out, &snapshot.dropped);
  snapshot.recorded = snapshot.events.size();
  std::sort(snapshot.events.begin(), snapshot.events.end(),
            [](const ExplainEvent& a, const ExplainEvent& b) {
              return a.seq < b.seq;
            });
  return snapshot;
}

}  // namespace dd::obs
