#include "core/simd_count.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>

#include "obs/log.h"
#include "obs/metrics.h"

namespace dd::simd {

namespace {

// The row predicate of the scalar MaskLeq. The result is
// order-independent, so the vector kernel (no early exit) masks
// identically.
inline bool RowSatisfies(const ColumnView* views, const std::uint8_t* bounds,
                         std::size_t num_views, std::size_t row) {
  for (std::size_t i = 0; i < num_views; ++i) {
    if (ViewLevel(views[i], row) > bounds[i]) return false;
  }
  return true;
}

std::uint64_t MaskLeqScalar(const ColumnView* views,
                            const std::uint8_t* bounds, std::size_t num_views,
                            std::size_t end, std::uint64_t* words) {
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < MaskWords(end); ++w) {
    const std::size_t first = w * 64;
    const std::size_t last = std::min(end, first + 64);
    std::uint64_t word = 0;
    for (std::size_t row = first; row < last; ++row) {
      if (RowSatisfies(views, bounds, num_views, row)) {
        word |= std::uint64_t{1} << (row - first);
      }
    }
    words[w] = word;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

std::uint64_t AndCountScalar(const std::uint64_t* const* inputs,
                             std::size_t n, std::size_t words,
                             std::uint64_t* out) {
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = inputs[0][w];
    for (std::size_t i = 1; i < n; ++i) word &= inputs[i][w];
    if (out != nullptr) out[w] = word;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

std::uint64_t AndCountWordsScalar(const std::uint64_t* const* inputs,
                                  std::size_t n, const std::uint32_t* word_idx,
                                  std::size_t count) {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t w = word_idx[k];
    std::uint64_t word = inputs[0][w];
    for (std::size_t i = 1; i < n; ++i) word &= inputs[i][w];
    total += static_cast<std::uint64_t>(std::popcount(word));
  }
  return total;
}

void GridIndicesScalar(const ColumnView* views, const std::uint32_t* strides,
                       std::size_t num_views, std::size_t begin,
                       std::size_t end, std::uint32_t* out) {
  for (std::size_t row = begin; row < end; ++row) {
    std::uint32_t idx = 0;
    for (std::size_t i = 0; i < num_views; ++i) {
      idx += static_cast<std::uint32_t>(ViewLevel(views[i], row)) * strides[i];
    }
    out[row - begin] = idx;
  }
}

// ---- Dispatch state ----
//
// Resolution happens once under a mutex; afterwards every kernel call
// is one acquire load of the table pointer. SetSimdMode clears the
// resolved state so a later call re-resolves (and re-publishes the
// info metric) under the new mode.

std::mutex g_resolve_mu;
std::atomic<const internal::KernelTable*> g_active{nullptr};
std::atomic<const char*> g_active_name{nullptr};
std::atomic<int> g_requested{static_cast<int>(SimdMode::kAuto)};
std::atomic<bool> g_explicit{false};

const internal::KernelTable* Resolve() {
  std::lock_guard<std::mutex> lock(g_resolve_mu);
  if (const internal::KernelTable* table =
          g_active.load(std::memory_order_acquire);
      table != nullptr) {
    return table;
  }

  SimdMode mode = static_cast<SimdMode>(g_requested.load());
  if (!g_explicit.load()) {
    if (const char* env = std::getenv("DD_SIMD");
        env != nullptr && env[0] != '\0') {
      if (ParseSimdMode(env, &mode)) {
        g_requested.store(static_cast<int>(mode));
      } else {
        DD_LOG(WARN) << "DD_SIMD=" << env
                        << " is not auto|avx2|scalar; using auto";
      }
    }
  }

  const internal::KernelTable* avx2 =
      CpuSupportsAvx2() ? internal::Avx2Kernels() : nullptr;
  const internal::KernelTable* table = &internal::kScalarKernels;
  const char* name = "scalar";
  switch (mode) {
    case SimdMode::kScalar:
      break;
    case SimdMode::kAvx2:
      if (avx2 == nullptr) {
        DD_LOG(WARN) << "--simd=avx2 requested but this CPU/build lacks "
                           "avx2+bmi2+popcnt; falling back to scalar kernels";
      } else {
        table = avx2;
        name = "avx2";
      }
      break;
    case SimdMode::kAuto:
      if (avx2 != nullptr) {
        table = avx2;
        name = "avx2";
      }
      break;
  }

  obs::MetricsRegistry::Global().SetInfo("simd.dispatch", "mode", name);
  DD_LOG(INFO) << "simd dispatch resolved: " << name
               << " (requested "
               << (mode == SimdMode::kAuto
                       ? "auto"
                       : mode == SimdMode::kAvx2 ? "avx2" : "scalar")
               << ")";
  g_active_name.store(name, std::memory_order_release);
  g_active.store(table, std::memory_order_release);
  return table;
}

}  // namespace

bool ParseSimdMode(std::string_view text, SimdMode* mode) {
  if (text == "auto") {
    *mode = SimdMode::kAuto;
  } else if (text == "avx2") {
    *mode = SimdMode::kAvx2;
  } else if (text == "scalar") {
    *mode = SimdMode::kScalar;
  } else {
    return false;
  }
  return true;
}

void SetSimdMode(SimdMode mode) {
  std::lock_guard<std::mutex> lock(g_resolve_mu);
  g_requested.store(static_cast<int>(mode));
  g_explicit.store(true);
  g_active.store(nullptr, std::memory_order_release);
  g_active_name.store(nullptr, std::memory_order_release);
}

SimdMode RequestedSimdMode() {
  return static_cast<SimdMode>(g_requested.load());
}

const char* ActiveSimdDispatch() {
  if (const char* name = g_active_name.load(std::memory_order_acquire);
      name != nullptr) {
    return name;
  }
  Resolve();
  return g_active_name.load(std::memory_order_acquire);
}

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2") &&
         __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

std::uint64_t MaskLeq(const ColumnView* views, const std::uint8_t* bounds,
                      std::size_t num_views, std::size_t end,
                      std::uint64_t* words) {
  return internal::ActiveKernels().mask_leq(views, bounds, num_views, end,
                                            words);
}

std::uint64_t AndCount(const std::uint64_t* const* inputs, std::size_t n,
                       std::size_t words, std::uint64_t* out) {
  return internal::ActiveKernels().and_count(inputs, n, words, out);
}

std::uint64_t AndCountWords(const std::uint64_t* const* inputs, std::size_t n,
                            const std::uint32_t* word_idx, std::size_t count) {
  return internal::ActiveKernels().and_count_words(inputs, n, word_idx, count);
}

void GridIndices(const ColumnView* views, const std::uint32_t* strides,
                 std::size_t num_views, std::size_t begin, std::size_t end,
                 std::uint32_t* out) {
  internal::ActiveKernels().grid_indices(views, strides, num_views, begin, end,
                                         out);
}

namespace internal {

const KernelTable kScalarKernels = {MaskLeqScalar, AndCountScalar,
                                    AndCountWordsScalar, GridIndicesScalar};

const KernelTable& ActiveKernels() {
  if (const KernelTable* table = g_active.load(std::memory_order_acquire);
      table != nullptr) {
    return *table;
  }
  return *Resolve();
}

void ResetDispatchForTest() {
  std::lock_guard<std::mutex> lock(g_resolve_mu);
  g_requested.store(static_cast<int>(SimdMode::kAuto));
  g_explicit.store(false);
  g_active.store(nullptr, std::memory_order_release);
  g_active_name.store(nullptr, std::memory_order_release);
}

}  // namespace internal

}  // namespace dd::simd
