#include "approx/sampled_builder.h"

#include <utility>

#include "common/parallel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd::approx {

Result<std::unique_ptr<SampledMatchingBuilder>> SampledMatchingBuilder::Build(
    const Relation& relation, const std::vector<std::string>& attributes,
    const MatchingOptions& matching, const ApproxOptions& approx) {
  obs::TraceSpan span("approx_build");
  if (matching.max_pairs != 0) {
    return Status::InvalidArgument(
        "approx build owns its own sampling: matching.max_pairs must be 0 "
        "(use ApproxOptions::sample_target)");
  }
  DD_ASSIGN_OR_RETURN(
      ResolvedMetrics resolved,
      ResolveMatchingMetrics(relation.schema(), attributes, matching));

  auto builder = std::unique_ptr<SampledMatchingBuilder>(
      new SampledMatchingBuilder(attributes, matching.dmax));
  builder->resolved_ =
      std::make_unique<ResolvedMetrics>(std::move(resolved));
  const std::uint64_t n = relation.num_rows();
  builder->num_rows_ = n;
  builder->total_pairs_ = n * (n - 1) / 2;
  builder->threads_ =
      matching.threads == 0 ? DefaultThreads() : matching.threads;

  std::vector<std::uint64_t> near_ks;
  if (approx.blocking) {
    obs::TraceSpan lsh_span("approx_lsh");
    near_ks = CollectNearPairs(relation, *builder->resolved_,
                               &builder->lsh_stats_);
  }

  // One payoff hint for the value-cache tables: every level computation
  // the build is expected to perform.
  const std::uint64_t expected_pairs =
      near_ks.size() + std::min(approx.sample_target,
                                builder->total_pairs_ - near_ks.size());
  builder->source_ = std::make_unique<PairLevelSource>(
      relation, AllRows(n), /*first_query=*/0, *builder->resolved_,
      expected_pairs, builder->threads_);

  {
    obs::TraceSpan near_span("approx_near_build");
    MetricWork work = builder->source_->precomputed();
    work += FillSampledPairs(*builder->source_, n, near_ks, builder->threads_,
                             &builder->near_);
    PublishMetricWork(work);
  }
  builder->sampler_ = std::make_unique<PairSampler>(
      builder->total_pairs_, approx.seed, std::move(near_ks));
  builder->GrowTo(approx.sample_target);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("approx.near_pairs").Add(builder->near_pairs());
  registry.GetCounter("approx.blocking_dropped")
      .Add(builder->lsh_stats_.dropped);
  DD_LOG(INFO) << "approx matching built: " << builder->near_pairs()
               << " near + " << builder->tail_sampled() << " / "
               << builder->tail_population() << " tail pairs of "
               << builder->total_pairs_ << " total (fraction "
               << builder->sample_fraction() << "), threads="
               << builder->threads_;
  return builder;
}

std::uint64_t SampledMatchingBuilder::GrowTo(std::uint64_t target) {
  obs::TraceSpan span("approx_tail_build");
  const std::vector<std::uint64_t> fresh = sampler_->GrowTo(target);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (!fresh.empty()) {
    PublishMetricWork(
        FillSampledPairs(*source_, num_rows_, fresh, threads_, &tail_));
  }
  registry.GetCounter("approx.sampled_pairs").Add(fresh.size());
  registry.GetGauge("approx.sample_fraction").Set(sample_fraction());
  obs::SetMemoryGauge("approx", MemoryUsageBytes());
  return fresh.size();
}

double SampledMatchingBuilder::sample_fraction() const {
  if (total_pairs_ == 0) return 1.0;
  return static_cast<double>(near_pairs() + tail_sampled()) /
         static_cast<double>(total_pairs_);
}

std::size_t SampledMatchingBuilder::MemoryUsageBytes() const {
  return near_.MemoryUsageBytes() + tail_.MemoryUsageBytes() +
         sampler_->MemoryUsageBytes() + source_->cache_bytes();
}

}  // namespace dd::approx
