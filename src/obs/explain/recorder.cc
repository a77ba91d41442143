#include "obs/explain/recorder.h"

#include <algorithm>
#include <array>
#include <thread>

#include "common/logging.h"
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

ExplainRecorder& ExplainRecorder::Global() {
  static ExplainRecorder* recorder = new ExplainRecorder();
  return *recorder;
}

ExplainRecorder* ExplainRecorder::Active() {
  ExplainRecorder& recorder = Global();
  return recorder.enabled() ? &recorder : nullptr;
}

void ExplainRecorder::Enable(const ExplainConfig& config) {
  owner_ = std::this_thread::get_id();
  run_ = ExplainSnapshot();
  run_.config = config;
  if (run_.config.sample_every == 0) run_.config.sample_every = 1;
  run_.config.ring_capacity = std::clamp<std::size_t>(
      run_.config.ring_capacity, 1, kMaxRingCapacity);
  until_sample_ = 0;
  current_d_ = 0.0;
  front_.clear();
  if (ring_ != nullptr && ring_->capacity() >= run_.config.ring_capacity) {
    ring_->Clear();
  } else {
    ring_ = std::make_unique<Ring<ExplainEvent>>(run_.config.ring_capacity,
                                                 diag::SigsafeTid());
  }
  enabled_.store(true, std::memory_order_release);
}

void ExplainRecorder::Disable() {
  if (!enabled_.exchange(false, std::memory_order_acq_rel)) return;
  // Registry counters are flushed once per recording rather than
  // incremented per event — the recorder's own totals are the source of
  // truth and the registry only needs run-granularity deltas.
  const ExplainWaterfall& w = run_.waterfall;
  const std::uint64_t kept = ring_->head() - ring_->base();
  const std::uint64_t recorded =
      std::min<std::uint64_t>(kept, run_.config.ring_capacity);
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("explain.lhs_seen").Add(w.lhs_seen);
  registry.GetCounter("explain.lhs_bounded_out").Add(w.lhs_bounded_out);
  registry.GetCounter("explain.lhs_skipped").Add(w.lhs_skipped);
  registry.GetCounter("explain.candidates").Add(w.candidates);
  registry.GetCounter("explain.evaluated").Add(w.evaluated);
  registry.GetCounter("explain.offered").Add(w.offered);
  registry.GetCounter("explain.pruned_s0").Add(w.pruned_s0);
  registry.GetCounter("explain.pruned_s1").Add(w.pruned_s1);
  registry.GetCounter("explain.pruned_zero_conf").Add(w.pruned_zero_conf);
  registry.GetCounter("explain.events_recorded").Add(recorded);
  registry.GetCounter("explain.events_sampled_out").Add(run_.sampled_out);
  registry.GetCounter("explain.events_dropped").Add(kept - recorded);
}

void ExplainRecorder::SetRunLabel(const std::string& label) {
  run_.run_label = label;
}

void ExplainRecorder::SetEstimated(bool estimated) {
  run_.estimated = estimated;
}

void ExplainRecorder::SetRhsGeometry(std::size_t dims, int dmax) {
  run_.rhs_dims = dims;
  run_.dmax = dmax;
}

void ExplainRecorder::AddCandidates(std::uint64_t n) {
  run_.waterfall.candidates += n;
}

std::uint32_t ExplainRecorder::BeginLhs(const ExplainLevels& levels,
                                        std::uint64_t lhs_count,
                                        std::uint64_t total,
                                        double initial_bound,
                                        ExplainBound initial_kind) {
  DD_CHECK(std::this_thread::get_id() == owner_);
  ++run_.waterfall.lhs_seen;
  current_d_ =
      total > 0 ? static_cast<double>(lhs_count) / static_cast<double>(total)
                : 0.0;
  const auto seq = static_cast<std::uint32_t>(run_.lhs.size());
  run_.lhs.push_back(
      {seq, levels, lhs_count, total, initial_bound, initial_kind});
  return seq;
}

bool ExplainRecorder::WillSampleNextEvent() { return until_sample_ == 0; }

void ExplainRecorder::RecordEvaluated(std::uint32_t lhs_seq,
                                      std::uint32_t rhs_index,
                                      std::uint32_t rank,
                                      std::uint64_t xy_count,
                                      double confidence, double quality,
                                      double cq, double bound,
                                      ExplainBound bound_kind, bool offered,
                                      double eval_ns) {
  ++run_.waterfall.evaluated;
  if (offered) ++run_.waterfall.offered;
  if (eval_ns > 0.0) {
    static Histogram& latency = MetricsRegistry::Global().GetHistogram(
        "explain.eval_latency_us", EvalLatencyBoundsUs());
    latency.Observe(eval_ns / 1e3);
  }
  // Every evaluated candidate meets the skyline, offered or not, so the
  // front never depends on the offers or the sampling rate.
  const bool forced = JoinsSkyline(confidence, quality) || offered;
  if (!Keep(forced)) return;
  ExplainEvent event;
  event.seq = Seq();
  event.lhs_seq = lhs_seq;
  event.rhs_index = rhs_index;
  event.rank = rank;
  event.outcome = ExplainOutcome::kEvaluated;
  event.bound_kind = bound_kind;
  event.offered = offered;
  event.forced = forced;
  event.xy_count = xy_count;
  event.confidence = confidence;
  event.quality = quality;
  event.cq = cq;
  event.bound = bound;
  event.eval_ns = eval_ns;
  ring_->Push(event);
}

void ExplainRecorder::RecordPruned(std::uint32_t lhs_seq,
                                   std::uint32_t rhs_index,
                                   std::uint32_t rank, ExplainOutcome outcome,
                                   double bound, ExplainBound bound_kind) {
  switch (outcome) {
    case ExplainOutcome::kPrunedS0:
      ++run_.waterfall.pruned_s0;
      break;
    case ExplainOutcome::kPrunedS1:
      ++run_.waterfall.pruned_s1;
      break;
    case ExplainOutcome::kPrunedZeroConf:
      ++run_.waterfall.pruned_zero_conf;
      break;
    case ExplainOutcome::kEvaluated:
      return;  // Programmer error; ignore rather than corrupt totals.
  }
  if (!Keep(/*forced=*/false)) return;
  ExplainEvent event;
  event.seq = Seq();
  event.lhs_seq = lhs_seq;
  event.rhs_index = rhs_index;
  event.rank = rank;
  event.outcome = outcome;
  event.bound_kind = bound_kind;
  event.bound = bound;
  ring_->Push(event);
}

void ExplainRecorder::NoteLhsBoundedOut() { ++run_.waterfall.lhs_bounded_out; }

void ExplainRecorder::NoteLhsSkipped() { ++run_.waterfall.lhs_skipped; }

bool ExplainRecorder::JoinsSkyline(double confidence, double quality) {
  const std::array<double, 3> point = {current_d_ * confidence, confidence,
                                       quality};
  for (std::size_t i = 0; i < front_.size(); ++i) {
    const auto& f = front_[i];
    if (f[0] >= point[0] && f[1] >= point[1] && f[2] >= point[2] &&
        (f[0] > point[0] || f[1] > point[1] || f[2] > point[2])) {
      // Move-to-front: strong dominators kill most subsequent events,
      // so surfacing this one keeps the scan O(1) in the common case
      // (front membership is order-independent, so this is safe).
      if (i > 0) std::swap(front_[i], front_[i - 1]);
      return false;
    }
  }
  if (front_.size() < kMaxFrontSize) {
    front_.erase(std::remove_if(front_.begin(), front_.end(),
                                [&](const std::array<double, 3>& f) {
                                  return point[0] >= f[0] &&
                                         point[1] >= f[1] && point[2] >= f[2];
                                }),
                 front_.end());
    front_.push_back(point);
  }
  return true;
}

bool ExplainRecorder::Keep(bool forced) {
  const bool sampled = until_sample_ == 0;
  until_sample_ = sampled ? run_.config.sample_every - 1 : until_sample_ - 1;
  if (forced || sampled) return true;
  ++run_.sampled_out;
  return false;
}

std::uint64_t ExplainRecorder::Seq() const {
  return run_.waterfall.evaluated + run_.waterfall.Pruned() - 1;
}

ExplainSnapshot ExplainRecorder::Snapshot() const {
  ExplainSnapshot snapshot = run_;
  if (ring_ == nullptr) return snapshot;
  // The ring is at least ring_capacity long and its events are already
  // in seq order; report the newest ring_capacity of them and count the
  // rest as dropped.
  const std::uint64_t head = ring_->head();
  const std::uint64_t limit = run_.config.ring_capacity;
  ring_->ForEach(head > limit ? head - limit : 0, head,
                 [&](const ExplainEvent& e) { snapshot.events.push_back(e); });
  snapshot.recorded = snapshot.events.size();
  snapshot.dropped = head - ring_->base() - snapshot.recorded;
  return snapshot;
}

}  // namespace dd::obs
