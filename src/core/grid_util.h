// Shared helpers for the cumulative count grids (GridMeasureProvider's
// Create and Apply, and the streaming exact build): cell-count
// validation, the block histogram pass over level columns, and the
// in-place multidimensional prefix sum that turns a level histogram
// into the "count of tuples with b[A] <= ϕ[A] for all A" grid the O(1)
// CountXY reads.
//
// Grid layout: dims coordinates in [0, base), coordinate d has stride
// base^d (low-order dims first — the same order the provider builds
// its joint index in).

#ifndef DD_CORE_GRID_UTIL_H_
#define DD_CORE_GRID_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "core/simd_count.h"

namespace dd::grid {

// base^dims, or InvalidArgument when it overflows or exceeds
// `max_cells` (the providers' memory bound).
inline Result<std::size_t> GridCells(std::size_t base, std::size_t dims,
                                     std::size_t max_cells) {
  std::size_t cells = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    if (cells > max_cells / base) {
      return Status::InvalidArgument(
          "grid would exceed the max_cells memory bound");
    }
    cells *= base;
  }
  if (cells > max_cells) {
    return Status::InvalidArgument(
        "grid would exceed the max_cells memory bound");
  }
  return cells;
}

// Adds `weight` to the joint and lhs histogram cells of rows [0, n) of
// `views` (dims views, the lhs_dims lhs views first, so the joint
// grid's first lhs strides double as the lhs grid's). Counts wrap: a
// weight of ~0 (that is, -1) removes rows. The cell indices come from
// the vector kernel in blocks; the increments stay scalar — they
// scatter, and grids of up to 2^27 cells make conflicts frequent.
// Callers keep the grid below 2^32 cells (GridCells).
inline void AddRowsToHistograms(const simd::ColumnView* views,
                                std::size_t lhs_dims, std::size_t dims,
                                std::size_t base, std::size_t n,
                                std::uint64_t weight, std::uint64_t* joint,
                                std::uint64_t* lhs_grid) {
  std::vector<std::uint32_t> strides(dims);
  std::uint32_t stride = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    strides[d] = stride;
    stride *= static_cast<std::uint32_t>(base);
  }
  constexpr std::size_t kBlock = 1024;
  std::uint32_t joint_idx[kBlock];
  std::uint32_t lhs_idx[kBlock];
  for (std::size_t row = 0; row < n; row += kBlock) {
    const std::size_t end = std::min(row + kBlock, n);
    simd::GridIndices(views, strides.data(), dims, row, end, joint_idx);
    simd::GridIndices(views, strides.data(), lhs_dims, row, end, lhs_idx);
    for (std::size_t i = 0; i < end - row; ++i) {
      joint[joint_idx[i]] += weight;
      lhs_grid[lhs_idx[i]] += weight;
    }
  }
}

// AddRowsToHistograms over n row-major level rows: grid dim d of row r
// is rows[r * row_width + columns[d]], the lhs_dims lhs dims first. The
// rows are gathered into one-byte-per-level columns a block at a time.
inline void AddLevelRowsToHistograms(const Level* rows, std::size_t n,
                                     std::size_t row_width,
                                     const std::vector<std::size_t>& columns,
                                     std::size_t lhs_dims, std::size_t base,
                                     std::uint64_t weight,
                                     std::uint64_t* joint,
                                     std::uint64_t* lhs_grid) {
  constexpr std::size_t kBlock = 1024;
  const std::size_t dims = columns.size();
  std::vector<Level> block(dims * kBlock);
  std::vector<simd::ColumnView> views(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    DD_CHECK_LT(columns[d], row_width);
    views[d] = simd::ColumnView{block.data() + d * kBlock, /*packed4=*/false};
  }
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t count = std::min(kBlock, n - begin);
    for (std::size_t d = 0; d < dims; ++d) {
      for (std::size_t k = 0; k < count; ++k) {
        block[d * kBlock + k] = rows[(begin + k) * row_width + columns[d]];
      }
    }
    AddRowsToHistograms(views.data(), lhs_dims, dims, base, count, weight,
                        joint, lhs_grid);
  }
}

// In-place cumulative sum along every dimension: afterwards cell ϕ
// holds the sum of the original values over all cells <= ϕ
// component-wise. One pass per dimension (the standard summed-area
// construction), O(dims * cells) adds.
template <typename T>
void PrefixSumAllDims(std::vector<T>* grid, std::size_t dims,
                      std::size_t base) {
  std::vector<T>& cells = *grid;
  std::size_t stride = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    // Along dimension d, cell i accumulates its predecessor i - stride
    // whenever its d-coordinate is non-zero. Visiting i in ascending
    // order makes each run of base cells a running sum.
    const std::size_t block = stride * base;
    for (std::size_t start = 0; start < cells.size(); start += block) {
      for (std::size_t i = start + stride; i < start + block; ++i) {
        cells[i] += cells[i - stride];
      }
    }
    stride = block;
  }
}

}  // namespace dd::grid

#endif  // DD_CORE_GRID_UTIL_H_
