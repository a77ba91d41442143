// SIMD counting kernels over packed level columns and row bitmaps, with
// runtime dispatch.
//
// The determination hot loops reduce to four primitives:
//
//   MaskLeq      rows r in [0, end) with level_i(r) <= bounds[i] for
//                every column view i, written as a row bitmap (one
//                uint64 word per 64 rows, bit b of word w = row 64w + b)
//                and counted — ScanMeasureProvider builds its level
//                bitmap index with it, one view and one bound per
//                bitmap;
//   AndCount     the popcount of the AND of n row bitmaps, optionally
//                stored — a ϕ[X] mask (ScanMeasureProvider SetLhs) or a
//                ϕ[XY] count (CountXY over a dense mask) straight
//                from that index;
//   AndCountWords  the same popcount over a listed subset of the words
//                only — CountXY when the ϕ[X] mask is sparse, over the
//                mask's nonzero words (ScanMeasureProvider records them
//                at SetLhs);
//   GridIndices  per-row linearized grid cell sum_i level_i(r)*strides[i]
//                (the histogram pass of grid::AddRowsToHistograms, which
//                GridMeasureProvider and the streaming exact build share).
//
// Each primitive has a scalar implementation and an AVX2 one (compiled
// in simd_count_avx2.cc with -mavx2 -mbmi2 -mpopcnt on that TU only);
// both produce bit-identical results — the counts and bitmap words are
// exact, and GridIndices outputs are order-preserving — so dispatch
// never changes determination output, only speed. The active kernel
// table is resolved once, lazily, from (in precedence order) the
// programmatic SetSimdMode (ddtool --simd), the DD_SIMD environment
// variable, and CPUID: auto picks AVX2 when the CPU has avx2+bmi2+
// popcnt, scalar otherwise; forcing avx2 on an unsupported CPU warns
// and falls back to scalar. The resolved choice is published as the
// `simd.dispatch` info metric (obs/metrics.h), so the JSON run report
// records which kernels actually ran.
//
// Bounds are uint8: levels are <= dmax <= 255, and callers resolve
// negative bounds (no row) and bounds >= dmax (every row) before
// calling. Views must stay valid for the call; begin/end are row
// indices into columns of at least `end` rows.

#ifndef DD_CORE_SIMD_COUNT_H_
#define DD_CORE_SIMD_COUNT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "matching/packed_column.h"

namespace dd::simd {

// A borrowed, read-only view of one packed level column. The data
// pointer addresses packed words: two levels per byte when packed4
// (low nibble = even row, the PackedColumn layout), one byte per level
// otherwise.
struct ColumnView {
  const std::uint8_t* data = nullptr;
  bool packed4 = false;
};

inline ColumnView View(const PackedColumn& column) {
  return ColumnView{column.data(), column.packed4()};
}

// Reads one level through a view (the scalar kernels and vector tails
// share this; it must match PackedColumn::Get exactly).
inline Level ViewLevel(const ColumnView& view, std::size_t row) {
  if (view.packed4) {
    const std::uint8_t byte = view.data[row >> 1];
    return (row & 1) ? static_cast<Level>(byte >> 4)
                     : static_cast<Level>(byte & 0x0F);
  }
  return view.data[row];
}

// Number of 64-row words a row bitmap over `rows` rows occupies.
inline std::size_t MaskWords(std::size_t rows) { return (rows + 63) / 64; }

// Writes the bitmap of rows r in [0, end) with ViewLevel(views[i], r)
// <= bounds[i] for every i in [0, num_views) to words[0,
// MaskWords(end)) — bits at rows >= end are 0 — and returns the number
// of set bits. num_views == 0 sets every row.
std::uint64_t MaskLeq(const ColumnView* views, const std::uint8_t* bounds,
                      std::size_t num_views, std::size_t end,
                      std::uint64_t* words);

// Returns the number of set bits in the AND of the n >= 1 bitmaps
// inputs[0..n), each `words` words long, and stores that AND to
// out[0, words) when `out` is non-null; `out` must not overlap an
// input.
std::uint64_t AndCount(const std::uint64_t* const* inputs, std::size_t n,
                       std::size_t words, std::uint64_t* out);

// Returns the sum over k in [0, count) of the popcount of the AND of
// the n >= 1 bitmaps inputs[0..n) at word word_idx[k]. Every index must
// be a valid word of every input. The list may be in any order and may
// repeat an index (a repeated word is counted once per listing); when
// it holds each word of a bitmap's nonzero words exactly once and that
// bitmap is among the inputs, the result equals AndCount over all
// words.
std::uint64_t AndCountWords(const std::uint64_t* const* inputs, std::size_t n,
                            const std::uint32_t* word_idx, std::size_t count);

// out[r - begin] = sum_i ViewLevel(views[i], r) * strides[i] for r in
// [begin, end). Strides are uint32 — grid cell counts are capped well
// below 2^32 (measure_provider.h max_cells); callers with larger grids
// must keep their scalar path.
void GridIndices(const ColumnView* views, const std::uint32_t* strides,
                 std::size_t num_views, std::size_t begin, std::size_t end,
                 std::uint32_t* out);

// ---- Dispatch control ----

enum class SimdMode {
  kAuto,    // pick AVX2 when the CPU supports it
  kAvx2,    // require AVX2 (warns + scalar fallback if unsupported)
  kScalar,  // force the scalar kernels
};

// Parses "auto" / "avx2" / "scalar"; returns false (and leaves *mode
// untouched) on anything else.
bool ParseSimdMode(std::string_view text, SimdMode* mode);

// Programmatic override (ddtool --simd). Takes precedence over the
// DD_SIMD environment variable and resets any previously resolved
// dispatch, so the next kernel call re-resolves and re-publishes the
// simd.dispatch info metric.
void SetSimdMode(SimdMode mode);
SimdMode RequestedSimdMode();

// The resolved kernel set: "avx2" or "scalar". Resolves (and publishes
// the info metric) if no kernel has run yet.
const char* ActiveSimdDispatch();

// True when this build and CPU can run the AVX2 kernels (requires
// avx2 + bmi2 + popcnt).
bool CpuSupportsAvx2();

namespace internal {

// Function-pointer table the public entry points dispatch through.
struct KernelTable {
  std::uint64_t (*mask_leq)(const ColumnView*, const std::uint8_t*,
                            std::size_t, std::size_t, std::uint64_t*);
  std::uint64_t (*and_count)(const std::uint64_t* const*, std::size_t,
                             std::size_t, std::uint64_t*);
  std::uint64_t (*and_count_words)(const std::uint64_t* const*, std::size_t,
                                   const std::uint32_t*, std::size_t);
  void (*grid_indices)(const ColumnView*, const std::uint32_t*, std::size_t,
                       std::size_t, std::size_t, std::uint32_t*);
};

// The always-available scalar kernels (also the reference the
// equivalence tests compare against).
extern const KernelTable kScalarKernels;

// AVX2 kernels, or nullptr when the TU was built for a non-x86 target.
// Availability of the CPU features is checked at dispatch, not here.
const KernelTable* Avx2Kernels();

// Resolved table (lazy). Hot paths call the public wrappers instead.
const KernelTable& ActiveKernels();

// Test hook: forgets both the explicit mode and the resolved table so
// the next resolution re-reads DD_SIMD.
void ResetDispatchForTest();

}  // namespace internal

}  // namespace dd::simd

#endif  // DD_CORE_SIMD_COUNT_H_
