// The Levenshtein kernel behind LevenshteinMetric: Myers' bit-vector
// algorithm (Myers, "A fast bit-vector algorithm for approximate string
// matching based on dynamic programming", JACM 1999) in the multi-word
// block form of Hyyrö ("A bit-vector algorithm for computing Levenshtein
// and Damerau edit distances", 2003). It is exact for any length: a
// pattern of m bytes keeps ceil(m/64) words of column deltas, so one text
// character costs ceil(m/64) word steps.
//
// Every entry point takes a cap and returns cap + 1 as soon as the
// distance provably exceeds it. The bottom-row delta between adjacent
// DP columns is -1, 0 or +1, so after j of n text characters the final
// distance is at least score - (n - j); once score > cap + (n - j) the
// answer is settled. The length difference is checked first for the
// same reason.
//
// Bytes are the unit: a multi-byte (UTF-8) sequence counts one unit per
// byte, which is invisible to level bucketing.
//
// Before the kernel runs, a character-count sketch (CountSketch) can
// settle a pair: the bag distance of Bartolini, Ciaccia & Patella (SPIRE
// 2002), max(|A \ B|, |B \ A|) over the values' byte multisets,
// lower-bounds the edit distance, because one edit shrinks it by at most
// one.
//
// ReferenceDp, the O(|a|·|b|) two-row dynamic program, is the oracle the
// tests and microbenchmarks compare the kernel against; the library does
// not call it.

#ifndef DD_METRIC_LEVENSHTEIN_H_
#define DD_METRIC_LEVENSHTEIN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace dd::lev {

// Reference two-row dynamic program. Exact; O(|a|·|b|) time,
// O(min(|a|,|b|)) space.
std::size_t ReferenceDp(std::string_view a, std::string_view b);

// A pattern whose per-byte match masks (`peq`) are built once, so that
// one value can be compared against many: the one-vs-many shape of the
// value-pair level table. Holds no view of the pattern bytes.
class Pattern {
 public:
  explicit Pattern(std::string_view pattern);

  // Edit distance between the pattern and `text` when it is <= cap,
  // else cap + 1. Not const: the multi-word path reuses the object's
  // block state, so one Pattern serves one thread.
  std::size_t BoundedDistance(std::string_view text, std::size_t cap);

 private:
  std::size_t m_;
  std::size_t words_;
  std::vector<std::uint64_t> peq_;  // peq_[byte * words_ + word]
  std::vector<std::uint64_t> vp_;   // per-block deltas, words_ > 1 only
  std::vector<std::uint64_t> vn_;
};

// Byte counts of one value over 64 classes (byte & 63), each saturating
// at 255: 64 bytes per value, built once and compared many times.
struct alignas(16) CountSketch {
  std::uint8_t counts[64];
};

// The class of a byte in a CountSketch.
constexpr unsigned ByteClass(unsigned char c) { return c & 63u; }

CountSketch Sketch(std::string_view value);

// floor((sum over classes of |a - b| + |m - n|) / 2) for the sketches of
// an m-byte and an n-byte value: their bag distance, which never exceeds
// their edit distance. Folding bytes into classes and saturating counts
// only shrink the sum, so the bound holds for the sketches too.
std::size_t SketchLowerBound(const CountSketch& a, std::size_t m,
                             const CountSketch& b, std::size_t n);

// Edit distance of one pair when it is <= cap, else cap + 1. The
// shorter value is the pattern; when it fits one word its masks live on
// the stack, so the common short-value pair allocates nothing.
std::size_t BoundedDistance(std::string_view a, std::string_view b,
                            std::size_t cap);

}  // namespace dd::lev

#endif  // DD_METRIC_LEVENSHTEIN_H_
