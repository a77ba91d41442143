// AVX2 implementations of the simd_count kernels. This is the ONLY TU
// compiled with -mavx2 -mbmi2 -mpopcnt (see src/core/CMakeLists.txt) so
// the compiler cannot leak AVX2 instructions into code that runs before
// the CPUID dispatch check; everything here executes only after
// CpuSupportsAvx2() returned true.
//
// Comparison idiom: unsigned bytes have no native <= compare, so
// (v <= thr) is computed as max_epu8(v, thr) == thr. Each 64-row block
// becomes one 64-bit row mask per column view — packed4 columns from a
// single 32-byte load whose even/odd nibble masks are interleaved with
// PDEP, 8-bit columns from two loads — and the per-view masks AND
// together so one popcount finishes the whole conjunction for 64 rows.
// MaskLeq stores that word as the row bitmap. AndCount works on such
// bitmaps directly: 256 bits per step, ANDed across the inputs and
// counted with the nibble-lookup popcount (Muła, Kurz and Lemire,
// "Faster Population Counts Using AVX2 Instructions"). AndCountWords
// visits listed words only, so it is an index loop with the popcnt
// instruction this TU may use, unrolled over independent sums; a
// vpgatherqq version measured slower in micro_counting.

#include "core/simd_count.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace dd::simd {
namespace {

inline bool AnyPacked4(const ColumnView* views, std::size_t num_views) {
  for (std::size_t i = 0; i < num_views; ++i) {
    if (views[i].packed4) return true;
  }
  return false;
}

inline bool RowSatisfies(const ColumnView* views, const std::uint8_t* bounds,
                         std::size_t num_views, std::size_t row) {
  for (std::size_t i = 0; i < num_views; ++i) {
    if (ViewLevel(views[i], row) > bounds[i]) return false;
  }
  return true;
}

// v <= thr per byte, as a 32-bit movemask.
inline std::uint32_t LeqMask32(__m256i v, __m256i thr) {
  return static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(v, thr), thr)));
}

// 64-bit satisfaction mask for rows [row, row + 64) of one view; bit b
// = row + b satisfies. `row` must be even for packed4 views.
inline std::uint64_t BlockMask64(const ColumnView& view, std::uint8_t bound,
                                 std::size_t row) {
  const __m256i thr = _mm256_set1_epi8(static_cast<char>(bound));
  if (view.packed4) {
    const __m256i packed = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(view.data + (row >> 1)));
    const __m256i nibble = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(packed, nibble);  // even rows
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(packed, 4), nibble);  // odd rows
    const std::uint64_t mlo = LeqMask32(lo, thr);
    const std::uint64_t mhi = LeqMask32(hi, thr);
    // Byte k of the load holds rows 2k (low nibble) and 2k+1 (high), so
    // the even-row mask spreads to even bits and the odd-row mask to
    // odd bits.
    return _pdep_u64(mlo, 0x5555555555555555ULL) |
           _pdep_u64(mhi, 0xAAAAAAAAAAAAAAAAULL);
  }
  const std::uint64_t m0 = LeqMask32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(view.data + row)),
      thr);
  const std::uint64_t m1 = LeqMask32(
      _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(view.data + row + 32)),
      thr);
  return m0 | (m1 << 32);
}

// Fused conjunction mask across all views for rows [row, row + 64).
inline std::uint64_t ConjunctionMask64(const ColumnView* views,
                                       const std::uint8_t* bounds,
                                       std::size_t num_views,
                                       std::size_t row) {
  std::uint64_t mask = ~std::uint64_t{0};
  for (std::size_t i = 0; i < num_views && mask != 0; ++i) {
    mask &= BlockMask64(views[i], bounds[i], row);
  }
  return mask;
}

// Bitmap word for the partial block [row, end), end - row < 64, row by
// row (a vector load there could read past the column).
inline std::uint64_t TailMask(const ColumnView* views,
                              const std::uint8_t* bounds,
                              std::size_t num_views, std::size_t row,
                              std::size_t end) {
  std::uint64_t word = 0;
  for (std::size_t r = row; r < end; ++r) {
    if (RowSatisfies(views, bounds, num_views, r)) {
      word |= std::uint64_t{1} << (r - row);
    }
  }
  return word;
}

// Blocks start at multiples of 64, so packed4 loads always start on a
// byte.
std::uint64_t MaskLeqAvx2(const ColumnView* views, const std::uint8_t* bounds,
                          std::size_t num_views, std::size_t end,
                          std::uint64_t* words) {
  std::uint64_t count = 0;
  std::size_t row = 0;
  for (; row + 64 <= end; row += 64) {
    const std::uint64_t word = ConjunctionMask64(views, bounds, num_views, row);
    words[row / 64] = word;
    count += static_cast<std::uint64_t>(_mm_popcnt_u64(word));
  }
  if (row < end) {
    const std::uint64_t word =
        TailMask(views, bounds, num_views, row, end);
    words[row / 64] = word;
    count += static_cast<std::uint64_t>(_mm_popcnt_u64(word));
  }
  return count;
}

// Per-byte popcount of a 256-bit vector: a 16-entry nibble lookup
// through vpshufb, applied to the low and the high nibble of each byte.
inline __m256i PopcountBytes(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, nibble);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

std::uint64_t AndCountAvx2(const std::uint64_t* const* inputs, std::size_t n,
                           std::size_t words, std::uint64_t* out) {
  // Byte counts sum into four 64-bit lanes (vpsadbw against zero).
  __m256i lanes = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(inputs[0] + w));
    for (std::size_t i = 1; i < n; ++i) {
      const __m256i next = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(inputs[i] + w));
      v = _mm256_and_si256(v, next);
    }
    if (out != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), v);
    }
    lanes = _mm256_add_epi64(
        lanes, _mm256_sad_epu8(PopcountBytes(v), _mm256_setzero_si256()));
  }
  std::uint64_t count =
      static_cast<std::uint64_t>(_mm256_extract_epi64(lanes, 0)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(lanes, 1)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(lanes, 2)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(lanes, 3));
  for (; w < words; ++w) {
    std::uint64_t word = inputs[0][w];
    for (std::size_t i = 1; i < n; ++i) word &= inputs[i][w];
    if (out != nullptr) out[w] = word;
    count += static_cast<std::uint64_t>(_mm_popcnt_u64(word));
  }
  return count;
}

// AND and popcount of the N bitmaps `in` at word w.
template <std::size_t N>
inline std::uint64_t AndWordCount(const std::uint64_t* const* in,
                                  std::uint32_t w) {
  std::uint64_t word = in[0][w];
  for (std::size_t i = 1; i < N; ++i) word &= in[i][w];
  return static_cast<std::uint64_t>(_mm_popcnt_u64(word));
}

// The index loop for a fixed input count, four words per step into
// four sums so consecutive popcounts do not wait on one another.
template <std::size_t N>
std::uint64_t AndCountWordsN(const std::uint64_t* const* inputs,
                             const std::uint32_t* word_idx,
                             std::size_t count) {
  const std::uint64_t* in[N];
  for (std::size_t i = 0; i < N; ++i) in[i] = inputs[i];
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    s0 += AndWordCount<N>(in, word_idx[k]);
    s1 += AndWordCount<N>(in, word_idx[k + 1]);
    s2 += AndWordCount<N>(in, word_idx[k + 2]);
    s3 += AndWordCount<N>(in, word_idx[k + 3]);
  }
  for (; k < count; ++k) s0 += AndWordCount<N>(in, word_idx[k]);
  return s0 + s1 + s2 + s3;
}

std::uint64_t AndCountWordsAvx2(const std::uint64_t* const* inputs,
                                std::size_t n, const std::uint32_t* word_idx,
                                std::size_t count) {
  switch (n) {
    case 1:
      return AndCountWordsN<1>(inputs, word_idx, count);
    case 2:
      return AndCountWordsN<2>(inputs, word_idx, count);
    case 3:
      return AndCountWordsN<3>(inputs, word_idx, count);
    case 4:
      return AndCountWordsN<4>(inputs, word_idx, count);
    default:  // A ϕ[Y] of four or more bounded attributes.
      return internal::kScalarKernels.and_count_words(inputs, n, word_idx,
                                                      count);
  }
}

// 32 levels of one view as bytes in row order (rows [row, row + 32));
// `row` must be even for packed4 views.
inline __m256i LoadLevels32(const ColumnView& view, std::size_t row) {
  if (!view.packed4) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(view.data + row));
  }
  const __m128i packed = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(view.data + (row >> 1)));
  const __m128i nibble = _mm_set1_epi8(0x0F);
  const __m128i lo = _mm_and_si128(packed, nibble);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(packed, 4), nibble);
  // Interleaving even (lo) and odd (hi) nibbles restores row order.
  return _mm256_set_m128i(_mm_unpackhi_epi8(lo, hi),
                          _mm_unpacklo_epi8(lo, hi));
}

void GridIndicesAvx2(const ColumnView* views, const std::uint32_t* strides,
                     std::size_t num_views, std::size_t begin, std::size_t end,
                     std::uint32_t* out) {
  std::size_t row = begin;
  if (num_views > 0 && AnyPacked4(views, num_views) && (row & 1) != 0 &&
      row < end) {
    std::uint32_t idx = 0;
    for (std::size_t i = 0; i < num_views; ++i) {
      idx += static_cast<std::uint32_t>(ViewLevel(views[i], row)) * strides[i];
    }
    *out++ = idx;
    ++row;
  }
  for (; row + 32 <= end; row += 32, out += 32) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (std::size_t i = 0; i < num_views; ++i) {
      const __m256i bytes = LoadLevels32(views[i], row);
      const __m256i stride = _mm256_set1_epi32(static_cast<int>(strides[i]));
      const __m128i lo16 = _mm256_castsi256_si128(bytes);      // rows 0..15
      const __m128i hi16 = _mm256_extracti128_si256(bytes, 1);  // rows 16..31
      acc0 = _mm256_add_epi32(
          acc0, _mm256_mullo_epi32(_mm256_cvtepu8_epi32(lo16), stride));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_mullo_epi32(
                    _mm256_cvtepu8_epi32(_mm_srli_si128(lo16, 8)), stride));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_mullo_epi32(_mm256_cvtepu8_epi32(hi16), stride));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_mullo_epi32(
                    _mm256_cvtepu8_epi32(_mm_srli_si128(hi16, 8)), stride));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), acc1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16), acc2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 24), acc3);
  }
  for (; row < end; ++row) {
    std::uint32_t idx = 0;
    for (std::size_t i = 0; i < num_views; ++i) {
      idx += static_cast<std::uint32_t>(ViewLevel(views[i], row)) * strides[i];
    }
    *out++ = idx;
  }
}

const internal::KernelTable kAvx2Kernels = {
    MaskLeqAvx2, AndCountAvx2, AndCountWordsAvx2, GridIndicesAvx2};

}  // namespace

namespace internal {

const KernelTable* Avx2Kernels() { return &kAvx2Kernels; }

}  // namespace internal

}  // namespace dd::simd

#else  // !x86

namespace dd::simd::internal {

const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace dd::simd::internal

#endif
