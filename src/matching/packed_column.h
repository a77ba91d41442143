// Bit-packed columnar storage for matching-relation level columns.
//
// Levels are tiny integers bounded by dmax (<= 255, and <= 14 for every
// paper workload), yet the seed stored them one byte each in plain
// std::vector columns. PackedColumn packs a level column to 4 bits per
// level when dmax <= 14 (two levels per byte, low nibble = even row)
// and 8 bits otherwise, in 64-byte-aligned slabs sized geometrically —
// the column acts as its own arena: ResizeRows/Reserve on the owning
// MatchingRelation sizes every slab once up front, so the hot build
// paths never reallocate, and they write a run of rows at a time
// (StoreRun / StoreRunShared). The packed words are exposed raw (data())
// for the SIMD count kernels in core/simd_count.h, whose AVX2 paths
// read 32-byte vectors straight out of the slab.
//
// Invariants the kernels and operator== rely on:
//  * every byte past the last used nibble/byte, up to capacity, is
//    zero (PushBack/Resize/shrink maintain this), so whole-byte
//    compares and vector tails never see garbage;
//  * packing never changes after construction (it is a function of
//    dmax, which is fixed per relation).

#ifndef DD_MATCHING_PACKED_COLUMN_H_
#define DD_MATCHING_PACKED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace dd {

// A bucketed distance level in [0, dmax]. dmax is capped at 255.
using Level = std::uint8_t;

class PackedColumn {
 public:
  // Largest dmax the 4-bit packing holds: levels occupy [0, 14] and
  // nibble value 15 is never a valid level, so padding nibbles (always
  // zero) can never be confused with data by a byte-wise consumer.
  static constexpr int kMaxPacked4Dmax = 14;

  PackedColumn() = default;
  explicit PackedColumn(int dmax) : packed4_(dmax <= kMaxPacked4Dmax) {}

  PackedColumn(const PackedColumn& other);
  PackedColumn& operator=(const PackedColumn& other);
  PackedColumn(PackedColumn&& other) noexcept;
  PackedColumn& operator=(PackedColumn&& other) noexcept;
  ~PackedColumn();

  bool packed4() const { return packed4_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Level Get(std::size_t row) const {
    if (packed4_) {
      const std::uint8_t byte = data_[row >> 1];
      return (row & 1) ? static_cast<Level>(byte >> 4)
                       : static_cast<Level>(byte & 0x0F);
    }
    return data_[row];
  }

  // Plain store; single-writer contexts only (append, compaction).
  void Set(std::size_t row, Level v) {
    if (packed4_) {
      std::uint8_t& byte = data_[row >> 1];
      if (row & 1) {
        byte = static_cast<std::uint8_t>((byte & 0x0F) | (v << 4));
      } else {
        byte = static_cast<std::uint8_t>((byte & 0xF0) | v);
      }
    } else {
      data_[row] = v;
    }
  }

  // Run store: levels[k * stride] into rows [row, row + count), all
  // below size(). Packed, the run's interior bytes are written whole,
  // two levels each; only an odd first row and an unpaired last row
  // share a byte with a row outside the run. StoreRun writes those two
  // nibbles plainly (single writer: append, sort). StoreRunShared
  // merges them with a relaxed CAS, so writers of disjoint row ranges
  // may store concurrently (the parallel builders): a byte straddling
  // two writers' ranges is only ever touched atomically, and every
  // other byte has one writer. 8-bit runs are a plain copy either way.
  // The ParallelFor join publishes the writes to the caller.
  void StoreRun(std::size_t row, const Level* levels, std::size_t count,
                std::size_t stride);
  void StoreRunShared(std::size_t row, const Level* levels,
                      std::size_t count, std::size_t stride);

  void PushBack(Level v);
  // Grows (new rows zero) or shrinks (tail bytes re-zeroed) the column.
  void Resize(std::size_t rows);
  void Reserve(std::size_t rows);

  // Raw packed words for the SIMD kernels. 64-byte aligned.
  const std::uint8_t* data() const { return data_; }
  // Bytes holding live levels: ceil(size/2) packed, size unpacked.
  std::size_t packed_bytes() const {
    return packed4_ ? (size_ + 1) / 2 : size_;
  }
  std::size_t capacity_bytes() const { return cap_bytes_; }

  // One byte per level, for serialization and debugging.
  std::vector<Level> Unpack() const;

  // Semantic equality: same length and the same level at every row
  // (packing is compared too — it only differs when dmax differs).
  bool operator==(const PackedColumn& other) const;
  bool operator!=(const PackedColumn& other) const {
    return !(*this == other);
  }

 private:
  // Reallocates to hold at least `bytes`, preserving contents and the
  // zero-fill invariant.
  void EnsureCapacity(std::size_t bytes);

  // Packed only: stores `v` in row's nibble with a relaxed CAS, leaving
  // the other nibble of the byte as its writer left it (the boundary
  // store of StoreRunShared).
  void MergeNibble(std::size_t row, Level v) {
    std::uint8_t* byte = &data_[row >> 1];
    const int shift = (row & 1) ? 4 : 0;
    const std::uint8_t keep = static_cast<std::uint8_t>(0x0F << (4 - shift));
    std::uint8_t old = __atomic_load_n(byte, __ATOMIC_RELAXED);
    while (true) {
      const std::uint8_t merged =
          static_cast<std::uint8_t>((old & keep) | (v << shift));
      if (__atomic_compare_exchange_n(byte, &old, merged, /*weak=*/true,
                                      __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
        return;
      }
    }
  }

  template <bool kShared>
  void StoreRunImpl(std::size_t row, const Level* levels, std::size_t count,
                    std::size_t stride);

  std::uint8_t* data_ = nullptr;  // 64-byte-aligned slab, zero-filled tail
  std::size_t size_ = 0;          // rows
  std::size_t cap_bytes_ = 0;
  bool packed4_ = false;
};

// GTest failure-message support.
void PrintTo(const PackedColumn& column, std::ostream* os);

}  // namespace dd

#endif  // DD_MATCHING_PACKED_COLUMN_H_
