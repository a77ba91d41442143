#include "matching/packed_column.h"

#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/logging.h"

namespace dd {

namespace {

constexpr std::size_t kAlignment = 64;

std::uint8_t* AllocateSlab(std::size_t bytes) {
  // std::aligned_alloc requires the size to be a multiple of the
  // alignment; rounding up also gives the vector kernels a full final
  // block of zeroed bytes to land loads in.
  const std::size_t rounded = (bytes + kAlignment - 1) & ~(kAlignment - 1);
  void* p = std::aligned_alloc(kAlignment, rounded);
  DD_CHECK(p != nullptr);
  std::memset(p, 0, rounded);
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

PackedColumn::PackedColumn(const PackedColumn& other)
    : size_(other.size_), packed4_(other.packed4_) {
  if (other.cap_bytes_ > 0) {
    data_ = AllocateSlab(other.cap_bytes_);
    cap_bytes_ = (other.cap_bytes_ + kAlignment - 1) & ~(kAlignment - 1);
    std::memcpy(data_, other.data_, other.packed_bytes());
  }
}

PackedColumn& PackedColumn::operator=(const PackedColumn& other) {
  if (this == &other) return *this;
  PackedColumn copy(other);
  *this = std::move(copy);
  return *this;
}

PackedColumn::PackedColumn(PackedColumn&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      cap_bytes_(other.cap_bytes_),
      packed4_(other.packed4_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.cap_bytes_ = 0;
}

PackedColumn& PackedColumn::operator=(PackedColumn&& other) noexcept {
  if (this == &other) return *this;
  std::free(data_);
  data_ = other.data_;
  size_ = other.size_;
  cap_bytes_ = other.cap_bytes_;
  packed4_ = other.packed4_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.cap_bytes_ = 0;
  return *this;
}

PackedColumn::~PackedColumn() { std::free(data_); }

void PackedColumn::EnsureCapacity(std::size_t bytes) {
  if (bytes <= cap_bytes_) return;
  // Geometric growth so the append path (AddTuple) stays amortized
  // O(1); the direct-write build sizes once via Resize and never grows.
  std::size_t want = cap_bytes_ < kAlignment ? kAlignment : cap_bytes_ * 2;
  if (want < bytes) want = bytes;
  std::uint8_t* slab = AllocateSlab(want);
  if (data_ != nullptr) {
    std::memcpy(slab, data_, packed_bytes());
    std::free(data_);
  }
  data_ = slab;
  cap_bytes_ = (want + kAlignment - 1) & ~(kAlignment - 1);
}

void PackedColumn::PushBack(Level v) {
  const std::size_t row = size_;
  EnsureCapacity(packed4_ ? row / 2 + 1 : row + 1);
  ++size_;
  Set(row, v);
}

void PackedColumn::Resize(std::size_t rows) {
  if (rows >= size_) {
    EnsureCapacity(packed4_ ? (rows + 1) / 2 : rows);
    // Grown region is already zero (slabs are zero-filled and shrink
    // re-zeroes), so the new rows read as level 0.
    size_ = rows;
    return;
  }
  // Shrink: restore the zero-fill invariant over the abandoned tail,
  // including the padding nibble of a now-odd final byte. Bytes past
  // the old size are zero already, so the cost is O(rows dropped), not
  // O(capacity) — the incremental delete path shrinks every batch.
  const std::size_t new_bytes = packed4_ ? (rows + 1) / 2 : rows;
  std::memset(data_ + new_bytes, 0, packed_bytes() - new_bytes);
  if (packed4_ && (rows & 1)) {
    data_[rows / 2] &= 0x0F;  // clear the dead high nibble
  }
  size_ = rows;
}

void PackedColumn::Reserve(std::size_t rows) {
  EnsureCapacity(packed4_ ? (rows + 1) / 2 : rows);
}

template <bool kShared>
void PackedColumn::StoreRunImpl(std::size_t row, const Level* levels,
                                std::size_t count, std::size_t stride) {
  DD_CHECK_LE(row + count, size_);
  if (count == 0) return;
  if (!packed4_) {
    std::uint8_t* dst = data_ + row;
    if (stride == 1) {
      std::memcpy(dst, levels, count);
    } else {
      for (std::size_t k = 0; k < count; ++k) dst[k] = levels[k * stride];
    }
    return;
  }
  auto store_nibble = [this](std::size_t r, Level v) {
    if constexpr (kShared) {
      MergeNibble(r, v);
    } else {
      Set(r, v);
    }
  };
  // An odd first row: the high nibble of a byte shared with the row
  // before the run.
  std::size_t k = row & 1;
  if (k == 1) store_nibble(row, levels[0]);
  // Rows row + k onward start on a byte boundary: whole bytes, two
  // levels each, owned by this run alone.
  std::uint8_t* dst = data_ + ((row + k) >> 1);
  const std::size_t bytes = (count - k) / 2;
  const Level* src = levels + k * stride;
  if (stride == 1) {
    for (std::size_t b = 0; b < bytes; ++b) {
      dst[b] = static_cast<std::uint8_t>(src[2 * b] | (src[2 * b + 1] << 4));
    }
  } else {
    for (std::size_t b = 0; b < bytes; ++b) {
      dst[b] = static_cast<std::uint8_t>(src[2 * b * stride] |
                                         (src[(2 * b + 1) * stride] << 4));
    }
  }
  k += 2 * bytes;
  // An unpaired last row: the low nibble of a byte shared with the row
  // after the run.
  if (k < count) store_nibble(row + k, levels[k * stride]);
}

void PackedColumn::StoreRun(std::size_t row, const Level* levels,
                            std::size_t count, std::size_t stride) {
  StoreRunImpl<false>(row, levels, count, stride);
}

void PackedColumn::StoreRunShared(std::size_t row, const Level* levels,
                                  std::size_t count, std::size_t stride) {
  StoreRunImpl<true>(row, levels, count, stride);
}

std::vector<Level> PackedColumn::Unpack() const {
  std::vector<Level> out(size_);
  for (std::size_t row = 0; row < size_; ++row) out[row] = Get(row);
  return out;
}

bool PackedColumn::operator==(const PackedColumn& other) const {
  if (size_ != other.size_) return false;
  if (packed4_ == other.packed4_) {
    // An empty column may own no buffer, and memcmp on a null pointer
    // is undefined even for zero bytes.
    if (packed_bytes() == 0) return true;
    // Zero-filled padding makes whole-byte comparison exact.
    return std::memcmp(data_, other.data_, packed_bytes()) == 0;
  }
  for (std::size_t row = 0; row < size_; ++row) {
    if (Get(row) != other.Get(row)) return false;
  }
  return true;
}

void PrintTo(const PackedColumn& column, std::ostream* os) {
  *os << "PackedColumn(" << (column.packed4() ? "4-bit" : "8-bit") << ", "
      << column.size() << " levels: [";
  const std::size_t show = column.size() < 16 ? column.size() : 16;
  for (std::size_t row = 0; row < show; ++row) {
    if (row > 0) *os << ", ";
    *os << static_cast<int>(column.Get(row));
  }
  if (show < column.size()) *os << ", ...";
  *os << "])";
}

}  // namespace dd
