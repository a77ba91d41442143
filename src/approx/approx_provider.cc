#include "approx/approx_provider.h"

#include <cmath>
#include <initializer_list>
#include <utility>

#include "common/logging.h"
#include "obs/log.h"

namespace dd::approx {

namespace {

// Two-sided critical value of every Wilson interval (95%).
constexpr double kZ = 1.959963984540054;

// Inner provider over one stratum: O(1) grid when the lattice fits,
// else the bitmap-index scan (both exact — the approximation lives entirely
// in the stratum weights, never in the inner counts).
Result<std::unique_ptr<MeasureProvider>> MakeInnerProvider(
    const MatchingRelation& stratum, const ResolvedRule& resolved) {
  Result<std::unique_ptr<MeasureProvider>> grid =
      MakeMeasureProvider(stratum, resolved, "grid");
  if (grid.ok()) return grid;
  DD_LOG(INFO) << "approx inner grid rejected (" << grid.status().message()
               << "); falling back to scan";
  return MakeMeasureProvider(stratum, resolved, "scan");
}

}  // namespace

Result<std::unique_ptr<ApproxMeasureProvider>> ApproxMeasureProvider::Create(
    const SampledMatchingBuilder& sample, const RuleSpec& rule) {
  // Both strata share one attribute list, so one resolution serves both.
  DD_ASSIGN_OR_RETURN(ResolvedRule resolved, ResolveRule(sample.near(), rule));

  auto provider =
      std::unique_ptr<ApproxMeasureProvider>(new ApproxMeasureProvider());
  DD_ASSIGN_OR_RETURN(provider->near_,
                      MakeInnerProvider(sample.near(), resolved));
  DD_ASSIGN_OR_RETURN(provider->tail_,
                      MakeInnerProvider(sample.tail(), resolved));
  provider->total_pairs_ = sample.total_pairs();
  provider->tail_population_ = sample.tail_population();
  provider->tail_sampled_ = sample.tail_sampled();
  provider->exhaustive_ = sample.exhaustive();
  provider->weight_ =
      provider->tail_sampled_ == 0
          ? 0.0
          : static_cast<double>(provider->tail_population_) /
                static_cast<double>(provider->tail_sampled_);
  return provider;
}

std::uint64_t ApproxMeasureProvider::Estimate(std::uint64_t near_count,
                                              std::uint64_t tail_count) const {
  // Exhaustive and fraction-1.0 samples take the integer path: weight
  // 1.0 exactly, no rounding anywhere — this is the bit-identity
  // guarantee.
  if (exhaustive_) return near_count + tail_count;
  if (tail_sampled_ == 0) return near_count;
  double scaled = weight_ * static_cast<double>(tail_count);
  std::uint64_t inflated = static_cast<std::uint64_t>(std::llround(scaled));
  // Clamp to the stratum it estimates: keeps every count <= total()
  // (D, C <= 1) while preserving monotone rounding.
  if (inflated > tail_population_) inflated = tail_population_;
  return near_count + inflated;
}

Interval ApproxMeasureProvider::CountInterval(std::uint64_t near_count,
                                              std::uint64_t tail_count) const {
  if (exhaustive_) {
    const double exact = static_cast<double>(near_count + tail_count);
    return {exact, exact};
  }
  const Interval p =
      WilsonInterval(tail_count, tail_sampled_, kZ, tail_population_);
  const double near = static_cast<double>(near_count);
  const double population = static_cast<double>(tail_population_);
  return {near + p.lo * population, near + p.hi * population};
}

ProviderStats ApproxMeasureProvider::InnerScans() const {
  ProviderStats sum;
  for (const MeasureProvider* inner : {near_.get(), tail_.get()}) {
    sum.rows_scanned += inner->stats().rows_scanned;
    sum.words_scanned += inner->stats().words_scanned;
  }
  return sum;
}

void ApproxMeasureProvider::ChargeInnerScans(const ProviderStats& before) {
  const ProviderStats after = InnerScans();
  stats_.rows_scanned += after.rows_scanned - before.rows_scanned;
  stats_.words_scanned += after.words_scanned - before.words_scanned;
}

void ApproxMeasureProvider::SetLhs(const Levels& lhs) {
  const ProviderStats before = InnerScans();
  near_->SetLhs(lhs);
  tail_->SetLhs(lhs);
  near_lhs_ = near_->lhs_count();
  tail_lhs_ = tail_->lhs_count();
  lhs_count_ = Estimate(near_lhs_, tail_lhs_);
  current_lhs_ = lhs;
  ++stats_.lhs_evaluations;
  ChargeInnerScans(before);
}

std::uint64_t ApproxMeasureProvider::CountXY(const Levels& rhs) {
  const ProviderStats before = InnerScans();
  const std::uint64_t near_xy = near_->CountXY(rhs);
  const std::uint64_t tail_xy = tail_->CountXY(rhs);
  ++stats_.xy_evaluations;
  ChargeInnerScans(before);
  return Estimate(near_xy, tail_xy);
}

std::unique_ptr<MeasureProvider> ApproxMeasureProvider::CloneForThread() const {
  auto clone =
      std::unique_ptr<ApproxMeasureProvider>(new ApproxMeasureProvider());
  clone->near_ = near_->CloneForThread();
  clone->tail_ = tail_->CloneForThread();
  clone->total_pairs_ = total_pairs_;
  clone->tail_population_ = tail_population_;
  clone->tail_sampled_ = tail_sampled_;
  clone->weight_ = weight_;
  clone->exhaustive_ = exhaustive_;
  return clone;
}

Interval ApproxMeasureProvider::LhsCountInterval() const {
  return CountInterval(near_lhs_, tail_lhs_);
}

Interval ApproxMeasureProvider::XyCountInterval(const Levels& rhs) {
  return CountInterval(near_->CountXY(rhs), tail_->CountXY(rhs));
}

std::size_t ApproxMeasureProvider::MemoryUsageBytes() const {
  std::size_t bytes = 0;
  if (const auto* g = dynamic_cast<const GridMeasureProvider*>(near_.get())) {
    bytes += g->MemoryUsageBytes();
  }
  if (const auto* g = dynamic_cast<const GridMeasureProvider*>(tail_.get())) {
    bytes += g->MemoryUsageBytes();
  }
  return bytes;
}

}  // namespace dd::approx
