#include "metric/metric.h"

namespace dd {

namespace {

// The default prepared column: one BoundedDistance per pair.
class PairwiseColumn : public PreparedColumn {
 public:
  PairwiseColumn(const DistanceMetric& metric,
                 std::span<const std::string_view> values)
      : metric_(metric), values_(values) {}

  std::uint64_t BoundedDistanceMany(std::uint32_t id_a,
                                    std::span<const std::uint32_t> ids_b,
                                    double cap,
                                    std::span<double> out) const override {
    for (std::size_t k = 0; k < ids_b.size(); ++k) {
      out[k] = metric_.BoundedDistance(values_[id_a], values_[ids_b[k]], cap);
    }
    return 0;
  }

 private:
  const DistanceMetric& metric_;
  std::span<const std::string_view> values_;
};

}  // namespace

std::unique_ptr<PreparedColumn> DistanceMetric::Prepare(
    std::span<const std::string_view> values) const {
  return std::make_unique<PairwiseColumn>(*this, values);
}

}  // namespace dd
