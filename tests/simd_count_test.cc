// Equivalence and bit-identity tests for the SIMD counting kernels
// (core/simd_count.h). The contract under test is absolute: the AVX2
// kernels must produce exactly the scalar kernels' outputs — counts,
// row bitmaps, grid indices — for every packing, bound pattern, range
// alignment, length and bitmap word count, and therefore
// full determination runs must be bit-identical under DD_SIMD=scalar
// and auto at any thread count.

#include "core/simd_count.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/determiner.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using simd::ColumnView;
using simd::internal::Avx2Kernels;
using simd::internal::kScalarKernels;
using simd::internal::KernelTable;

PackedColumn MakeColumn(int dmax, const std::vector<Level>& levels) {
  PackedColumn column(dmax);
  for (Level v : levels) column.PushBack(v);
  return column;
}

std::vector<Level> RandomLevels(std::size_t rows, int dmax, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, dmax);
  std::vector<Level> levels(rows);
  for (auto& v : levels) v = static_cast<Level>(dist(rng));
  return levels;
}

struct Fixture {
  std::vector<PackedColumn> columns;
  std::vector<ColumnView> views;
  std::vector<std::uint8_t> bounds;
};

Fixture MakeFixture(std::size_t num_views, std::size_t rows, int dmax,
                    std::uint32_t seed) {
  Fixture f;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> bound_dist(0, dmax);
  for (std::size_t i = 0; i < num_views; ++i) {
    f.columns.push_back(
        MakeColumn(dmax, RandomLevels(rows, dmax, seed + 1000 * (i + 1))));
    f.bounds.push_back(static_cast<std::uint8_t>(bound_dist(rng)));
  }
  for (const PackedColumn& c : f.columns) f.views.push_back(simd::View(c));
  return f;
}

// Reference results straight from ViewLevel, independent of either
// kernel implementation.
bool BruteRow(const Fixture& f, std::size_t row) {
  for (std::size_t i = 0; i < f.views.size(); ++i) {
    if (simd::ViewLevel(f.views[i], row) > f.bounds[i]) return false;
  }
  return true;
}

std::uint64_t BruteCount(const Fixture& f, std::size_t begin,
                         std::size_t end) {
  std::uint64_t count = 0;
  for (std::size_t row = begin; row < end; ++row) {
    if (BruteRow(f, row)) ++count;
  }
  return count;
}

std::vector<std::uint64_t> BruteMask(const Fixture& f, std::size_t end) {
  std::vector<std::uint64_t> words(simd::MaskWords(end), 0);
  for (std::size_t row = 0; row < end; ++row) {
    if (BruteRow(f, row)) words[row / 64] |= std::uint64_t{1} << (row % 64);
  }
  return words;
}

std::uint64_t BruteMaskedCount(const Fixture& f,
                               const std::vector<std::uint64_t>& words,
                               std::size_t end) {
  std::uint64_t count = 0;
  for (std::size_t row = 0; row < end; ++row) {
    if (((words[row / 64] >> (row % 64)) & 1) != 0 && BruteRow(f, row)) {
      ++count;
    }
  }
  return count;
}

// The kernel tables to check: scalar always, AVX2 when the CPU has it.
std::vector<std::pair<const char*, const KernelTable*>> Tables() {
  std::vector<std::pair<const char*, const KernelTable*>> tables = {
      {"scalar", &kScalarKernels}};
  if (simd::CpuSupportsAvx2()) {
    EXPECT_NE(Avx2Kernels(), nullptr);
    if (Avx2Kernels() != nullptr) tables.emplace_back("avx2", Avx2Kernels());
  }
  return tables;
}

// MaskLeq over rows [0, end): every word written (a poisoned buffer
// must come back exactly as the brute bitmap, tail bits cleared) and
// the returned count equal to its popcount.
void CheckMaskLeq(const Fixture& f, std::size_t end, const std::string& label) {
  const std::vector<std::uint64_t> expected = BruteMask(f, end);
  const std::uint64_t expected_count = BruteCount(f, 0, end);
  for (const auto& [name, table] : Tables()) {
    std::vector<std::uint64_t> words(expected.size(), 0xA5A5A5A5A5A5A5A5ULL);
    EXPECT_EQ(table->mask_leq(f.views.data(), f.bounds.data(), f.views.size(),
                              end, words.data()),
              expected_count)
        << label << " " << name;
    EXPECT_EQ(words, expected) << label << " " << name;
  }
}

// The fixture's predicate as a bitmap (each table's own MaskLeq),
// ANDed by AndCount with the fixture's own bitmap, a random one,
// all-zero and all-ones (whose bits past `end` the MaskLeq bitmap
// clears): the count of rows set in the mask that satisfy the
// predicate.
void CheckMaskedAndCount(const Fixture& f, std::size_t end,
                         std::uint64_t seed, const std::string& label) {
  const std::size_t n = simd::MaskWords(end);
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> random(n);
  for (std::size_t w = 0; w < n; ++w) {
    // Every third word empty, the rest dense or sparse.
    random[w] = w % 3 == 2 ? 0 : w % 3 == 1 ? rng() & rng() & rng() : rng();
  }
  const std::vector<std::vector<std::uint64_t>> masks = {
      BruteMask(f, end), random, std::vector<std::uint64_t>(n, 0),
      std::vector<std::uint64_t>(n, ~std::uint64_t{0})};
  const char* kinds[] = {"self", "random", "zeros", "ones"};
  for (const auto& [name, table] : Tables()) {
    std::vector<std::uint64_t> predicate(n);
    table->mask_leq(f.views.data(), f.bounds.data(), f.views.size(), end,
                    predicate.data());
    for (std::size_t k = 0; k < masks.size(); ++k) {
      const std::uint64_t* inputs[] = {predicate.data(), masks[k].data()};
      EXPECT_EQ(table->and_count(inputs, 2, n, nullptr),
                BruteMaskedCount(f, masks[k], end))
          << label << " " << name << " mask=" << kinds[k];
    }
  }
}

void CheckAllKernels(const Fixture& f, std::size_t end,
                     const std::string& label) {
  CheckMaskLeq(f, end, label);
  CheckMaskedAndCount(f, end, end, label);
}

// AndCount of `bitmaps` over their first `words` words against a brute
// AND: the count with a null `out`, and with a poisoned `out` the count
// plus every stored word (and nothing stored past `words`).
void CheckAndCount(const std::vector<std::vector<std::uint64_t>>& bitmaps,
                   std::size_t words, const std::string& label) {
  std::vector<const std::uint64_t*> inputs;
  for (const auto& bitmap : bitmaps) inputs.push_back(bitmap.data());
  std::vector<std::uint64_t> expected(words, ~std::uint64_t{0});
  std::uint64_t expected_count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    for (const auto& bitmap : bitmaps) expected[w] &= bitmap[w];
    for (std::uint64_t word = expected[w]; word != 0; word &= word - 1) {
      ++expected_count;
    }
  }
  constexpr std::uint64_t kPoison = 0xA5A5A5A5A5A5A5A5ULL;
  for (const auto& [name, table] : Tables()) {
    EXPECT_EQ(table->and_count(inputs.data(), inputs.size(), words, nullptr),
              expected_count)
        << label << " " << name << " null out";
    std::vector<std::uint64_t> out(words + 1, kPoison);
    EXPECT_EQ(
        table->and_count(inputs.data(), inputs.size(), words, out.data()),
        expected_count)
        << label << " " << name;
    EXPECT_EQ(out.back(), kPoison) << label << " " << name;
    out.pop_back();
    EXPECT_EQ(out, expected) << label << " " << name;
  }
}

TEST(SimdCountTest, AndCountMatchesBruteForce) {
  // Word counts around the AVX2 kernel's 4-word step: empty, tail only,
  // one full step, a step plus a tail, and the 64-word neighbourhood.
  const std::size_t word_counts[] = {0, 1, 3, 4, 5, 63, 64, 65};
  std::mt19937_64 rng(11);
  for (std::size_t n = 1; n <= 5; ++n) {
    for (std::size_t words : word_counts) {
      const std::string label =
          "n=" + std::to_string(n) + " words=" + std::to_string(words);
      // Dense random words keep some bits alive through five ANDs.
      std::vector<std::vector<std::uint64_t>> random(
          n, std::vector<std::uint64_t>(words));
      for (auto& bitmap : random) {
        for (auto& word : bitmap) word = rng() | rng();
      }
      CheckAndCount(random, words, label + " random");
      CheckAndCount(std::vector<std::vector<std::uint64_t>>(
                        n, std::vector<std::uint64_t>(words, 0)),
                    words, label + " zeros");
      std::vector<std::vector<std::uint64_t>> ones(
          n, std::vector<std::uint64_t>(words, ~std::uint64_t{0}));
      CheckAndCount(ones, words, label + " ones");
      // One all-zero input empties the AND of otherwise full bitmaps.
      ones[n - 1].assign(words, 0);
      CheckAndCount(ones, words, label + " ones+zero");
    }
  }
}

// AndCountWords of `bitmaps` over the listed words against a brute
// AND and popcount of each listed word.
void CheckAndCountWords(const std::vector<std::vector<std::uint64_t>>& bitmaps,
                        const std::vector<std::uint32_t>& word_idx,
                        const std::string& label) {
  std::vector<const std::uint64_t*> inputs;
  for (const auto& bitmap : bitmaps) inputs.push_back(bitmap.data());
  std::uint64_t expected = 0;
  for (std::uint32_t w : word_idx) {
    std::uint64_t word = ~std::uint64_t{0};
    for (const auto& bitmap : bitmaps) word &= bitmap[w];
    for (std::size_t bit = 0; bit < 64; ++bit) expected += (word >> bit) & 1;
  }
  for (const auto& [name, table] : Tables()) {
    EXPECT_EQ(table->and_count_words(inputs.data(), inputs.size(),
                                     word_idx.data(), word_idx.size()),
              expected)
        << label << " " << name;
  }
}

TEST(SimdCountTest, AndCountWordsMatchesBruteForce) {
  const std::size_t word_counts[] = {0, 1, 63, 64, 65, 3125};
  std::mt19937_64 rng(23);
  for (std::size_t n = 1; n <= 5; ++n) {
    for (std::size_t words : word_counts) {
      std::vector<std::vector<std::uint64_t>> bitmaps(
          n, std::vector<std::uint64_t>(words));
      for (auto& bitmap : bitmaps) {
        for (auto& word : bitmap) word = rng() | rng();
      }
      // Index lists: empty, one word (the last), about 8% of the words,
      // every word, and an unsorted one that repeats words.
      std::vector<std::pair<const char*, std::vector<std::uint32_t>>> lists;
      lists.emplace_back("empty", std::vector<std::uint32_t>{});
      if (words > 0) {
        const auto last = static_cast<std::uint32_t>(words - 1);
        lists.emplace_back("one", std::vector<std::uint32_t>{last});
        std::vector<std::uint32_t> sparse;
        std::vector<std::uint32_t> all;
        for (std::uint32_t w = 0; w < words; ++w) {
          if (rng() % 100 < 8) sparse.push_back(w);
          all.push_back(w);
        }
        lists.emplace_back("8%", sparse);
        lists.emplace_back("all", all);
        std::vector<std::uint32_t> shuffled = all;
        shuffled.insert(shuffled.end(), sparse.begin(), sparse.end());
        shuffled.push_back(last);
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        lists.emplace_back("unsorted+repeats", shuffled);
      }
      for (const auto& [kind, list] : lists) {
        const std::string label = "n=" + std::to_string(n) +
                                  " words=" + std::to_string(words) +
                                  " list=" + kind;
        CheckAndCountWords(bitmaps, list, label);
      }
      // Over the nonzero words of one input, the count equals AndCount's
      // over every word.
      if (words > 0) {
        for (std::size_t w = 0; w < words; ++w) {
          if (rng() % 100 >= 8) bitmaps[0][w] = 0;
        }
        std::vector<std::uint32_t> nonzero;
        for (std::uint32_t w = 0; w < words; ++w) {
          if (bitmaps[0][w] != 0) nonzero.push_back(w);
        }
        std::vector<const std::uint64_t*> inputs;
        for (const auto& bitmap : bitmaps) inputs.push_back(bitmap.data());
        for (const auto& [name, table] : Tables()) {
          EXPECT_EQ(table->and_count_words(inputs.data(), n, nonzero.data(),
                                           nonzero.size()),
                    table->and_count(inputs.data(), n, words, nullptr))
              << "n=" << n << " words=" << words << " " << name;
        }
      }
    }
  }
}

TEST(SimdCountTest, RandomizedEquivalenceAcrossDmaxAndLengths) {
  // dmax 1/4/14 exercise the 4-bit packing (14 is its edge, 15 the first
  // 8-bit one), 200 the 8-bit path with bounds above 127 (signedness
  // trap for cmpgt-based idioms). The inner and mid ranges give odd
  // ends and ends that are not a multiple of 64.
  const int dmaxes[] = {1, 4, 14, 15, 200};
  const std::size_t lengths[] = {0,  1,  2,  3,   31,   32,   33,  63,
                                 64, 65, 127, 129, 1000, 4097, 10000};
  std::uint32_t seed = 7;
  for (int dmax : dmaxes) {
    for (std::size_t rows : lengths) {
      for (std::size_t num_views : {std::size_t{1}, std::size_t{3}}) {
        Fixture f = MakeFixture(num_views, rows, dmax, ++seed);
        const std::string label = "dmax=" + std::to_string(dmax) +
                                  " rows=" + std::to_string(rows) +
                                  " views=" + std::to_string(num_views);
        CheckAllKernels(f, rows, label + " full");
        if (rows >= 3) {
          // Ends that are odd and not a multiple of 64.
          CheckAllKernels(f, rows - 1, label + " short");
          CheckAllKernels(f, rows - rows / 4, label + " mid");
        }
      }
    }
  }
}

TEST(SimdCountTest, AllMatchAndNoMatchEdges) {
  for (int dmax : {1, 14, 15, 200}) {
    const std::size_t rows = 1337;
    // Every level at dmax: bound dmax-? decides everything at once.
    Fixture f;
    f.columns.push_back(
        MakeColumn(dmax, std::vector<Level>(rows, static_cast<Level>(dmax))));
    f.views.push_back(simd::View(f.columns[0]));
    f.bounds.push_back(static_cast<std::uint8_t>(dmax));
    CheckAllKernels(f, rows, "all-match dmax=" + std::to_string(dmax));
    ASSERT_EQ(BruteCount(f, 0, rows), rows);
    f.bounds[0] = static_cast<std::uint8_t>(dmax - 1);
    CheckAllKernels(f, rows, "no-match dmax=" + std::to_string(dmax));
    ASSERT_EQ(BruteCount(f, 0, rows), 0u);
  }
}

TEST(SimdCountTest, ZeroViewsCountsEveryRow) {
  // No view: MaskLeq sets exactly rows [0, end), and AndCount of that
  // bitmap counts them.
  const Fixture none;
  for (std::size_t end : {std::size_t{0}, std::size_t{64}, std::size_t{90},
                          std::size_t{129}}) {
    const std::string label = "zero views end=" + std::to_string(end);
    CheckMaskLeq(none, end, label);
    CheckMaskedAndCount(none, end, end, label);
  }
  for (const auto& [name, table] : Tables()) {
    std::vector<std::uint64_t> words(2);
    EXPECT_EQ(table->mask_leq(nullptr, nullptr, 0, 90, words.data()), 90u)
        << name;
    EXPECT_EQ(words[0], ~std::uint64_t{0}) << name;
    EXPECT_EQ(words[1], (std::uint64_t{1} << 26) - 1) << name;
    const std::uint64_t* inputs[] = {words.data()};
    EXPECT_EQ(table->and_count(inputs, 1, words.size(), nullptr), 90u)
        << name;
  }
}

TEST(SimdCountTest, GridIndicesMatchBruteForce) {
  const int dmaxes[] = {4, 14, 200};
  std::uint32_t seed = 31;
  for (int dmax : dmaxes) {
    const std::size_t base = static_cast<std::size_t>(dmax) + 1;
    for (std::size_t rows : {std::size_t{0}, std::size_t{1}, std::size_t{33},
                             std::size_t{257}, std::size_t{5000}}) {
      Fixture f = MakeFixture(3, rows, dmax, ++seed);
      std::vector<std::uint32_t> strides = {
          1, static_cast<std::uint32_t>(base),
          static_cast<std::uint32_t>(base * base)};
      for (auto [begin, end] :
           {std::pair<std::size_t, std::size_t>{0, rows},
            std::pair<std::size_t, std::size_t>{rows / 3, rows}}) {
        if (begin > end) continue;
        std::vector<std::uint32_t> expected(end - begin);
        for (std::size_t row = begin; row < end; ++row) {
          std::uint32_t idx = 0;
          for (std::size_t i = 0; i < 3; ++i) {
            idx += static_cast<std::uint32_t>(
                       simd::ViewLevel(f.views[i], row)) *
                   strides[i];
          }
          expected[row - begin] = idx;
        }
        std::vector<std::uint32_t> scalar_out(end - begin, 0xFFFFFFFF);
        kScalarKernels.grid_indices(f.views.data(), strides.data(), 3, begin,
                                    end, scalar_out.data());
        ASSERT_EQ(scalar_out, expected) << "dmax=" << dmax << " rows=" << rows
                                        << " begin=" << begin;
        if (simd::CpuSupportsAvx2()) {
          std::vector<std::uint32_t> avx2_out(end - begin, 0xFFFFFFFF);
          Avx2Kernels()->grid_indices(f.views.data(), strides.data(), 3,
                                      begin, end, avx2_out.data());
          EXPECT_EQ(avx2_out, expected) << "dmax=" << dmax << " rows=" << rows
                                        << " begin=" << begin;
        }
      }
    }
  }
}

TEST(SimdCountTest, ParseSimdMode) {
  simd::SimdMode mode = simd::SimdMode::kAuto;
  EXPECT_TRUE(simd::ParseSimdMode("scalar", &mode));
  EXPECT_EQ(mode, simd::SimdMode::kScalar);
  EXPECT_TRUE(simd::ParseSimdMode("avx2", &mode));
  EXPECT_EQ(mode, simd::SimdMode::kAvx2);
  EXPECT_TRUE(simd::ParseSimdMode("auto", &mode));
  EXPECT_EQ(mode, simd::SimdMode::kAuto);
  EXPECT_FALSE(simd::ParseSimdMode("sse9", &mode));
  EXPECT_FALSE(simd::ParseSimdMode("", &mode));
  EXPECT_EQ(mode, simd::SimdMode::kAuto);  // untouched on failure
}

TEST(SimdCountTest, DispatchPublishesInfoMetric) {
  simd::SetSimdMode(simd::SimdMode::kScalar);
  EXPECT_STREQ(simd::ActiveSimdDispatch(), "scalar");
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  bool found = false;
  for (const auto& info : snapshot.infos) {
    if (info.name == "simd.dispatch") {
      found = true;
      EXPECT_EQ(info.label, "mode");
      EXPECT_EQ(info.value, "scalar");
    }
  }
  EXPECT_TRUE(found);
  // Forcing avx2 must resolve to avx2 on capable hosts and fall back
  // to scalar (not crash) elsewhere.
  simd::SetSimdMode(simd::SimdMode::kAvx2);
  EXPECT_STREQ(simd::ActiveSimdDispatch(),
               simd::CpuSupportsAvx2() ? "avx2" : "scalar");
  simd::internal::ResetDispatchForTest();
}

TEST(SimdCountTest, EnvironmentVariableSelectsDispatch) {
  const char* saved = std::getenv("DD_SIMD");
  const std::string saved_value = saved == nullptr ? "" : saved;
  setenv("DD_SIMD", "scalar", 1);
  simd::internal::ResetDispatchForTest();
  EXPECT_STREQ(simd::ActiveSimdDispatch(), "scalar");
  // An invalid value degrades to auto with a warning.
  setenv("DD_SIMD", "bogus", 1);
  simd::internal::ResetDispatchForTest();
  EXPECT_STREQ(simd::ActiveSimdDispatch(),
               simd::CpuSupportsAvx2() ? "avx2" : "scalar");
  if (saved == nullptr) {
    unsetenv("DD_SIMD");
  } else {
    setenv("DD_SIMD", saved_value.c_str(), 1);
  }
  simd::internal::ResetDispatchForTest();
}

// ---------------------------------------------------------------------
// Determination bit-identity: DD_SIMD=scalar and auto runs must agree
// exactly — thresholds, utilities, counts, provider stats — at every
// thread count (the ISSUE-10 acceptance bar). Mirrors the contract of
// ParallelDeterminismTest (tests/parallel_test.cc).

void ExpectSameResult(const DetermineResult& a, const DetermineResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.patterns.size(), b.patterns.size()) << label;
  for (std::size_t p = 0; p < a.patterns.size(); ++p) {
    EXPECT_EQ(a.patterns[p].pattern.lhs, b.patterns[p].pattern.lhs) << label;
    EXPECT_EQ(a.patterns[p].pattern.rhs, b.patterns[p].pattern.rhs) << label;
    EXPECT_EQ(a.patterns[p].utility, b.patterns[p].utility) << label;
    EXPECT_EQ(a.patterns[p].measures.xy_count, b.patterns[p].measures.xy_count)
        << label;
    EXPECT_EQ(a.patterns[p].measures.lhs_count,
              b.patterns[p].measures.lhs_count)
        << label;
  }
  EXPECT_EQ(a.prior_mean_cq, b.prior_mean_cq) << label;
  EXPECT_EQ(a.provider_stats.lhs_evaluations, b.provider_stats.lhs_evaluations)
      << label;
  EXPECT_EQ(a.provider_stats.xy_evaluations, b.provider_stats.xy_evaluations)
      << label;
  EXPECT_EQ(a.provider_stats.rows_scanned, b.provider_stats.rows_scanned)
      << label;
}

TEST(SimdCountTest, DeterminationBitIdenticalAcrossDispatchAndThreads) {
  if (!simd::CpuSupportsAvx2()) {
    GTEST_SKIP() << "no AVX2: scalar vs auto are the same kernels";
  }
  MatchingRelation m = testutil::RandomMatching(3, 7, 900, 4242);
  const RuleSpec rule{{"a0", "a1"}, {"a2"}};
  std::vector<std::size_t> thread_counts = {1, 2, 7};
  if (DefaultThreads() > 1) thread_counts.push_back(DefaultThreads());
  for (const char* provider : {"scan", "grid"}) {
    for (std::size_t threads : thread_counts) {
      DetermineOptions options;
      options.provider = provider;
      options.top_l = 3;
      options.threads = threads;
      simd::SetSimdMode(simd::SimdMode::kScalar);
      auto scalar_result = DetermineThresholds(m, rule, options);
      ASSERT_TRUE(scalar_result.ok());
      simd::SetSimdMode(simd::SimdMode::kAuto);
      auto auto_result = DetermineThresholds(m, rule, options);
      ASSERT_TRUE(auto_result.ok());
      ExpectSameResult(*scalar_result, *auto_result,
                       std::string(provider) + " threads=" +
                           std::to_string(threads));
    }
  }
  simd::internal::ResetDispatchForTest();
}

}  // namespace
}  // namespace dd
