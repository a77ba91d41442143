// MeasureProvider over the stratified sample: every count is
//
//   count ≈ near_count + w · tail_count,   w = tail_population
//                                              / tail_sampled
//
// — the near stratum is exact (weight 1) and the uniform tail sample is
// inflated by the inverse sampling fraction. total() stays the EXACT
// pair population N(N-1)/2, so D/C/S/Q land on the same scale as the
// exact pipeline's. Wilson score intervals (with finite-population
// correction) on the tail proportion give per-count error bounds; at
// sample fraction 1.0 the weight is exactly 1 and every estimate,
// measure, and determined pattern is bit-identical to the exact
// pipeline (enforced by tests/approx_test.cc).
//
// Estimates preserve the invariants the search relies on: the shared
// monotone rounding keeps CountXY(ϕ[Y]) <= lhs_count() (so C <= 1) and
// lhs_count() <= total() (so D <= 1), and both estimates are monotone
// in the underlying pattern lattice exactly as exact counts are.

#ifndef DD_APPROX_APPROX_PROVIDER_H_
#define DD_APPROX_APPROX_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "approx/sampled_builder.h"
#include "common/math_util.h"
#include "common/result.h"
#include "core/measure_provider.h"
#include "core/rule.h"

namespace dd::approx {

class ApproxMeasureProvider : public MeasureProvider {
 public:
  // Builds the per-stratum inner providers ("grid", falling back to
  // "scan" when the lattice exceeds the grid cell bound) for
  // `rule` over the sample's two strata. The sample must outlive the
  // provider and not grow while it is alive (refine.h builds a fresh
  // provider per round). Every interval is a 95% Wilson interval.
  static Result<std::unique_ptr<ApproxMeasureProvider>> Create(
      const SampledMatchingBuilder& sample, const RuleSpec& rule);

  std::uint64_t total() const override { return total_pairs_; }
  void SetLhs(const Levels& lhs) override;
  std::uint64_t lhs_count() const override { return lhs_count_; }
  const Levels& current_lhs() const override { return current_lhs_; }
  std::uint64_t CountXY(const Levels& rhs) override;

  std::unique_ptr<MeasureProvider> CloneForThread() const override;

  // ---- Estimation surface (beyond MeasureProvider) ----

  bool exhaustive() const { return exhaustive_; }
  double weight() const { return weight_; }

  // Wilson interval on count(b ⊨ ϕ[X]) for the current ϕ[X], in
  // absolute pair counts over [0, total()]. Zero width when exhaustive.
  Interval LhsCountInterval() const;

  // Same for count(b ⊨ ϕ[XY]) against the current ϕ[X]. Counts through
  // the inner providers' CountXY, so it advances their stats but not
  // this provider's (the refinement driver probes patterns it already
  // holds counts for, outside the reported stats window).
  Interval XyCountInterval(const Levels& rhs);

  std::size_t MemoryUsageBytes() const;

 private:
  ApproxMeasureProvider() = default;

  // near + clamped-weighted tail, the shared monotone estimator.
  std::uint64_t Estimate(std::uint64_t near_count,
                         std::uint64_t tail_count) const;
  Interval CountInterval(std::uint64_t near_count,
                         std::uint64_t tail_count) const;
  // rows_scanned and words_scanned of both inner providers, summed, and
  // the charge of their growth since `before` to this provider's stats.
  ProviderStats InnerScans() const;
  void ChargeInnerScans(const ProviderStats& before);

  std::unique_ptr<MeasureProvider> near_;
  std::unique_ptr<MeasureProvider> tail_;
  std::uint64_t total_pairs_ = 0;
  std::uint64_t tail_population_ = 0;
  std::uint64_t tail_sampled_ = 0;
  double weight_ = 1.0;
  bool exhaustive_ = false;
  Levels current_lhs_;
  std::uint64_t lhs_count_ = 0;
  std::uint64_t near_lhs_ = 0;
  std::uint64_t tail_lhs_ = 0;
};

}  // namespace dd::approx

#endif  // DD_APPROX_APPROX_PROVIDER_H_
