// micro_incremental — append-batch latency through the incremental
// maintenance path (src/incr) versus rebuilding the matching relation
// from scratch, over N data tuples and batches of b inserts. A batch
// costs ~N·b distance evaluations against the rebuild's N²/2, so the
// expected speedup is ≈ N/(2b) — e.g. 625× for b=16 into N=20000.
//
// Every measurement is emitted as a machine-readable line
//   BENCH_JSON {"bench": "micro_incremental", "n": N, "batch": b,
//               "append_s": T, "rebuild_s": R, "speedup": R/T}
// — grep '^BENCH_JSON ' to collect them. DD_BENCH_SCALE multiplies the
// data sizes.
//
// One more row drives string attributes in the shape of perfbench's
// incr-stream: restaurant name, address, city and type over a sliding
// window of 1500 rows, each batch 16 inserts plus 16 deletes of the
// oldest rows, timed per batch (the window ignores DD_BENCH_SCALE, so
// the row keeps that shape at any scale):
//   BENCH_JSON {"bench": "micro_incremental", "shape": "restaurant_window",
//               "window": W, "batch": 16, "batches": K,
//               "batch_ms_p50": P, "batch_ms_mean": M}

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "benchmarks/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/schema.h"
#include "incr/incremental_builder.h"

namespace {

// Two numeric attributes keep the per-pair metric cost low, so the
// measurement isolates the incremental machinery rather than string
// edit distances.
std::vector<std::string> MakeRow(dd::Rng* rng) {
  return {dd::StrFormat("%.3f", rng->NextDouble() * 100.0),
          dd::StrFormat("%.3f", rng->NextDouble() * 100.0)};
}

// The restaurant sliding window: returns false on a failed batch.
bool RunRestaurantWindow() {
  constexpr std::size_t kWindow = 1500;
  constexpr std::size_t kBatch = 16;
  constexpr std::size_t kBatches = 200;
  dd::RestaurantOptions restaurant;
  restaurant.num_entities = 3000;
  restaurant.seed = 1;
  dd::GeneratedData data = dd::GenerateRestaurant(restaurant);
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < data.relation.num_rows(); ++r) {
    rows.push_back(data.relation.row(r));
  }
  std::shuffle(rows.begin(), rows.end(), std::mt19937_64(1));
  if (rows.size() < kWindow + kBatch * kBatches) {
    std::fprintf(stderr, "restaurant window: too few rows\n");
    return false;
  }
  dd::IncrementalOptions options;
  options.matching.dmax = 10;
  auto builder = dd::IncrementalMatchingBuilder::Create(
      data.relation.schema(), {"name", "address", "city", "type"}, options);
  if (!builder.ok()) {
    std::fprintf(stderr, "builder: %s\n", builder.status().ToString().c_str());
    return false;
  }
  std::vector<std::vector<std::string>> initial(rows.begin(),
                                                rows.begin() + kWindow);
  if (!builder->ApplyBatch(initial, {}).ok()) return false;
  std::size_t next = kWindow;
  std::vector<double> batch_ms;
  for (std::size_t k = 0; k < kBatches; ++k) {
    std::vector<std::vector<std::string>> inserts(
        rows.begin() + next, rows.begin() + next + kBatch);
    next += kBatch;
    std::vector<std::uint32_t> deletes = builder->store().LiveIds();
    deletes.resize(kBatch);
    dd::Stopwatch timer;
    if (!builder->ApplyBatch(inserts, deletes).ok()) return false;
    batch_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  double mean = 0.0;
  for (const double ms : batch_ms) mean += ms / batch_ms.size();
  std::sort(batch_ms.begin(), batch_ms.end());
  const double p50 = batch_ms[batch_ms.size() / 2];
  std::printf("\nrestaurant window N=%zu: %zu batches of +%zu/-%zu, "
              "p50 %.3f ms, mean %.3f ms per batch\n",
              kWindow, kBatches, kBatch, kBatch, p50, mean);
  std::printf(
      "BENCH_JSON {\"bench\": \"micro_incremental\", "
      "\"shape\": \"restaurant_window\", \"window\": %zu, "
      "\"batch\": %zu, \"batches\": %zu, \"batch_ms_p50\": %.4f, "
      "\"batch_ms_mean\": %.4f}\n",
      kWindow, kBatch, kBatches, p50, mean);
  std::fflush(stdout);
  return true;
}

}  // namespace

int main() {
  std::printf(
      "=== micro_incremental: append-batch latency vs full rebuild ===\n");
  const std::size_t sizes[] = {1000, 5000, 20000};
  const std::size_t batches[] = {1, 16, 256};
  const dd::Schema schema({{"x", dd::AttributeType::kNumeric},
                           {"y", dd::AttributeType::kNumeric}});

  for (std::size_t base_n : sizes) {
    const std::size_t n = dd::bench::Scaled(base_n);
    dd::IncrementalOptions options;
    options.matching.dmax = 10;
    auto builder =
        dd::IncrementalMatchingBuilder::Create(schema, {"x", "y"}, options);
    if (!builder.ok()) {
      std::fprintf(stderr, "builder: %s\n",
                   builder.status().ToString().c_str());
      return 1;
    }
    dd::Rng rng(n);
    std::vector<std::vector<std::string>> rows;
    rows.reserve(n);
    for (std::size_t r = 0; r < n; ++r) rows.push_back(MakeRow(&rng));

    dd::Stopwatch seed_timer;
    auto seeded = builder->ApplyBatch(rows, {});
    if (!seeded.ok()) {
      std::fprintf(stderr, "seed batch: %s\n",
                   seeded.status().ToString().c_str());
      return 1;
    }
    std::printf("\nN=%zu: seeded %zu matching tuples in %.3fs\n", n,
                seeded->num_added(), seed_timer.ElapsedSeconds());

    double rebuild_s = 0.0;
    {
      // Scoped so the 16-bytes-per-pair rebuild copy is freed before
      // the append measurements run.
      dd::Stopwatch rebuild_timer;
      dd::MatchingRelation rebuilt = builder->Rebuild();
      rebuild_s = rebuild_timer.ElapsedSeconds();
      std::printf("  full rebuild: %zu matching tuples in %.3fs\n",
                  rebuilt.num_tuples(), rebuild_s);
    }

    for (std::size_t b : batches) {
      std::vector<std::vector<std::string>> batch_rows;
      batch_rows.reserve(b);
      for (std::size_t k = 0; k < b; ++k) batch_rows.push_back(MakeRow(&rng));
      dd::Stopwatch append_timer;
      auto delta = builder->ApplyBatch(batch_rows, {});
      const double append_s = append_timer.ElapsedSeconds();
      if (!delta.ok()) {
        std::fprintf(stderr, "append batch: %s\n",
                     delta.status().ToString().c_str());
        return 1;
      }
      const double speedup = append_s > 0.0 ? rebuild_s / append_s : 0.0;
      std::printf(
          "  append b=%4zu: %10zu pairs in %9.5fs  (%9.1fx vs rebuild)\n", b,
          delta->pairs_computed(), append_s, speedup);
      std::printf(
          "BENCH_JSON {\"bench\": \"micro_incremental\", \"n\": %zu, "
          "\"batch\": %zu, \"append_s\": %.6f, \"rebuild_s\": %.6f, "
          "\"speedup\": %.1f}\n",
          n, b, append_s, rebuild_s, speedup);
      std::fflush(stdout);
    }
  }
  return RunRestaurantWindow() ? 0 : 1;
}
