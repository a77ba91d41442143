// The candidate space C_Y (or C_X): the full lattice of threshold-level
// combinations {0..dmax}^dims with the dominance partial order of paper
// Definition 2, an alive-bitmap for pruning, and the processing orders
// studied in the paper (mid-first, top-first) plus two extras.

#ifndef DD_CORE_CANDIDATE_LATTICE_H_
#define DD_CORE_CANDIDATE_LATTICE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/pattern.h"

namespace dd {

// Order in which candidates of C_Y are visited (paper §V):
//   kMidFirst    — middle level-sums first; finds a large Vmax early when
//                  the initial bound is 0 (preferred for DA+PAP).
//   kTopFirst    — largest level-sums first; top patterns dominate the
//                  most candidates, maximizing prune() reach (preferred
//                  for DAP+PAP, which starts with a bound > 0).
//   kBottomFirst — smallest level-sums first (completes the study).
//   kLexicographic — plain index order (baseline).
enum class ProcessingOrder {
  kMidFirst,
  kTopFirst,
  kBottomFirst,
  kLexicographic,
};

const char* ProcessingOrderName(ProcessingOrder order);

// Dense lattice over (dmax+1)^dims cells. Cells are addressed by index
// (mixed-radix encoding, dimension 0 least significant, so dimension d
// has stride (dmax+1)^d) or by Levels. One lattice serves a whole
// determination: Reset() revives every cell for the next ϕ[X].
class CandidateLattice {
 public:
  CandidateLattice(std::size_t dims, int dmax);

  std::size_t dims() const { return dims_; }
  int dmax() const { return dmax_; }
  std::size_t size() const { return alive_.size(); }
  std::size_t alive_count() const { return alive_count_; }

  bool IsAlive(std::size_t idx) const { return alive_[idx] != 0; }

  // Revives every cell, without reallocating.
  void Reset();

  // Kills one cell (idempotent). Returns true when it was alive.
  bool Kill(std::size_t idx);

  // Decodes a cell index into threshold levels.
  Levels LevelsOf(std::size_t idx) const;

  // Same, into `out` (resized to dims()), so a caller that decodes one
  // cell after another reuses one buffer.
  void DecodeInto(std::size_t idx, Levels* out) const;

  // Encodes threshold levels into a cell index.
  std::size_t IndexOf(const Levels& levels) const;

  // The paper's prune(ϕ, q): kills every alive cell dominated by
  // `dominator` (component-wise <=) whose dependent quality is <= q.
  // Returns the number of cells killed. Passing the all-dmax pattern as
  // `dominator` implements the S0 prune (Proposition 1); the current
  // candidate implements S1 (Proposition 2).
  std::size_t Prune(const Levels& dominator, double max_quality) {
    return Prune(dominator, max_quality, [](std::size_t) {});
  }

  // Same, invoking `on_kill(cell_index)` for every cell this call kills,
  // in ascending cell order (the EXPLAIN recorder attributes each pruned
  // candidate to the prune that removed it).
  //
  // The walk checks `dominator` once, returns at once when even the
  // dominator's level sum is below the least sum with Q <= q, and then
  // steps an odometer over the rows (dimension 0 runs) of the sub-box
  // [0, dominator], carrying the row's cell index and level sum, so a
  // row costs one subtraction to find its first cell with a large
  // enough sum and nothing for the cells below it. Each dimension of
  // the odometer starts at the least level from which its sub-box can
  // still reach that sum, so rows with nothing to kill are not walked.
  template <typename OnKill>
  std::size_t Prune(const Levels& dominator, double max_quality,
                    OnKill&& on_kill);

  // Visit order for the whole lattice under `order` (cell indices).
  static std::vector<std::uint32_t> MakeOrder(std::size_t dims, int dmax,
                                              ProcessingOrder order);

 private:
  // Checks `dominator` and returns the least level sum whose Q is
  // <= max_quality.
  long MinPruneSum(const Levels& dominator, double max_quality) const;

  std::size_t dims_;
  int dmax_;
  std::vector<std::size_t> strides_;  // (dmax+1)^d per dimension d
  std::vector<std::uint8_t> alive_;
  std::size_t alive_count_;
  // Prune's scratch: its odometer over dimensions 1..dims-1, and per
  // dimension d the largest level sum dimensions 0..d-1 reach in the box.
  Levels cursor_;
  std::vector<long> reach_;
};

template <typename OnKill>
std::size_t CandidateLattice::Prune(const Levels& dominator,
                                    double max_quality, OnKill&& on_kill) {
  const long min_sum = MinPruneSum(dominator, max_quality);
  if (LevelSum(dominator) < min_sum) return 0;
  long reach = 0;
  for (std::size_t d = 0; d < dims_; ++d) {
    reach_[d] = reach;
    reach += dominator[d];
  }
  std::size_t row = 0;  // index of the row's cell with level 0 in dim 0
  long row_sum = 0;     // level sum of dimensions 1..dims-1
  // Moves dimensions top-1 down to 1, all at level 0, up to the least
  // level from which some cell of their sub-box still reaches min_sum.
  auto seat = [&](std::size_t top) {
    for (std::size_t k = top; k-- > 1;) {
      const long lo = std::clamp(min_sum - row_sum - reach_[k], 0L,
                                 static_cast<long>(dominator[k]));
      cursor_[k] = static_cast<int>(lo);
      row += static_cast<std::size_t>(lo) * strides_[k];
      row_sum += lo;
    }
  };
  seat(dims_);
  const long top0 = dominator[0];
  std::size_t killed = 0;
  for (;;) {
    for (long l0 = std::max(0L, min_sum - row_sum); l0 <= top0; ++l0) {
      const std::size_t idx = row + static_cast<std::size_t>(l0);
      if (alive_[idx] == 0) continue;
      alive_[idx] = 0;
      --alive_count_;
      ++killed;
      on_kill(idx);
    }
    // Advance the odometer over dimensions 1..dims-1.
    std::size_t d = 1;
    while (d < dims_ && cursor_[d] == dominator[d]) {
      row -= static_cast<std::size_t>(cursor_[d]) * strides_[d];
      row_sum -= cursor_[d];
      cursor_[d] = 0;
      ++d;
    }
    if (d == dims_) break;
    ++cursor_[d];
    row += strides_[d];
    ++row_sum;
    seat(d);
  }
  return killed;
}

}  // namespace dd

#endif  // DD_CORE_CANDIDATE_LATTICE_H_
