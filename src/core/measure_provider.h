// MeasureProvider: answers the two counting queries every determination
// algorithm needs against the matching relation M —
//   count(b ⊨ ϕ[X])   (paper formula 1, the LHS support numerator)
//   count(b ⊨ ϕ[XY])  (paper formula 2, the confidence numerator)
// — plus instrumentation counters used by the pruning-rate experiments.
//
// ScanMeasureProvider is the paper-faithful implementation: every count
// is an O(M) pass over the matching tuples (the cost the pruning
// techniques of §V are designed to avoid). It answers each pass from a
// range-encoded level-bitmap index — one "level <= t" row bitmap per
// rule attribute and level — so SetLhs ANDs the ϕ[X] bitmaps into a
// row mask and each CountXY is one AND + popcount of that mask with
// the ϕ[Y] bitmaps, over all M/64 words or, for a sparse mask, over
// its nonzero words only. GridMeasureProvider is an
// extension: a prefix-sum grid over the (dmax+1)^c threshold lattice
// that answers each count in O(1) after an O(M + d^c) build, and folds
// insert/delete deltas of M into that grid in O(|delta|·c + d^c). Both
// providers return identical counts (asserted by property tests).

#ifndef DD_CORE_MEASURE_PROVIDER_H_
#define DD_CORE_MEASURE_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/pattern.h"
#include "core/rule.h"
#include "matching/delta.h"
#include "matching/matching_relation.h"

namespace dd {

struct ProviderStats {
  // Number of evaluated ϕ[X]: every SetLhs call AND every
  // SetLhsWithKnownCount call. A known count makes the scan free, not
  // the evaluation, so all providers count it here — the field is the
  // number of LHS candidates processed, comparable across providers and
  // independent of how cheaply each one answers.
  std::uint64_t lhs_evaluations = 0;
  // Number of CountXY calls (one per evaluated ϕ[Y] candidate).
  std::uint64_t xy_evaluations = 0;
  // Matching tuples touched by QUERY-TIME scans (SetLhs / CountXY)
  // only, in the paper's cost model: the scan provider adds M per
  // SetLhs and per CountXY although it reads its bitmap index rather
  // than the level columns, and 0 for SetLhsWithKnownCount; its index
  // build is not counted. The grid provider answers queries from its
  // prefix-sum grids without touching M, so this stays 0 for it BY
  // CONTRACT even though its construction makes one O(M) histogram
  // pass — build cost is reported through the "grid_build" trace span
  // and the provider.grid_cells gauge instead, keeping this field the
  // per-query scan work that the paper's pruning experiments plot.
  std::uint64_t rows_scanned = 0;
  // Bitmap words the scan provider's AND kernels read at query time:
  // per SetLhs, SetLhsWithKnownCount and CountXY, the number of ANDed
  // bitmaps times the words read from each — all ⌈M/64⌉ of them, or
  // only the ϕ[X] mask's nonzero words when CountXY takes the sparse
  // path. Unlike rows_scanned, this is the work the scan actually does
  // (so a known count's mask rebuild counts too). 0 for the grid
  // provider.
  std::uint64_t words_scanned = 0;
};

class MeasureProvider {
 public:
  virtual ~MeasureProvider() = default;

  // Total number of matching tuples M.
  virtual std::uint64_t total() const = 0;

  // Fixes the current ϕ[X]; subsequent lhs_count()/CountXY() refer to it.
  virtual void SetLhs(const Levels& lhs) = 0;

  // Like SetLhs when the caller already knows count(b ⊨ ϕ[X]) — e.g.
  // DAP's descending-D ordering pass computed every LHS count up front.
  // Implementations that need no per-LHS state beyond the count can
  // skip their scan, but must still count the call in
  // stats_.lhs_evaluations (see ProviderStats); the default just
  // delegates to SetLhs.
  virtual void SetLhsWithKnownCount(const Levels& lhs,
                                    std::uint64_t known_count) {
    (void)known_count;
    SetLhs(lhs);
  }

  // count(b ⊨ ϕ[X]) for the current ϕ[X].
  virtual std::uint64_t lhs_count() const = 0;

  // The current ϕ[X] levels (last SetLhs argument). Observational only —
  // the EXPLAIN recorder reads it to label events; providers that track
  // no LHS state may return an empty vector.
  virtual const Levels& current_lhs() const {
    static const Levels kEmpty;
    return kEmpty;
  }

  // count(b ⊨ ϕ[XY]) for the current ϕ[X] and the given ϕ[Y].
  virtual std::uint64_t CountXY(const Levels& rhs) = 0;

  // ---- Across-LHS parallelism (DESIGN.md §12) ----

  // Thread-private clone for across-LHS parallel determination: shares
  // the (immutable) counting structures with `this` but owns its LHS
  // state and stats. Valid only while the parent is alive and not
  // mutated. Never nullptr. Clones start with zeroed stats; merge them
  // back deterministically with AddStats.
  virtual std::unique_ptr<MeasureProvider> CloneForThread() const = 0;

  // Merges a clone's accumulated stats (field-wise sums, so the merge
  // total is independent of merge order).
  void AddStats(const ProviderStats& other) {
    stats_.lhs_evaluations += other.lhs_evaluations;
    stats_.xy_evaluations += other.xy_evaluations;
    stats_.rows_scanned += other.rows_scanned;
    stats_.words_scanned += other.words_scanned;
  }

  // Stats contract (shared with DaStats/PaStats, see da.h / pa.h):
  // stats ACCUMULATE across every SetLhs/CountXY call for the provider's
  // lifetime and are never reset implicitly. Callers that want a
  // specific window call ResetStats() at its start — the determination
  // facade (determiner.cc) resets after prior estimation so reported
  // stats cover search work only.
  const ProviderStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ProviderStats{}; }

 protected:
  ProviderStats stats_;
};

// Paper-faithful O(M)-per-count provider over a range-encoded
// level-bitmap index (Chan & Ioannidis, SIGMOD 1998), built at
// construction: for each slot (rule.lhs then rule.rhs) and each level
// t in [0, dmax), one row bitmap (simd::MaskLeq layout, MaskWords(M)
// words) of the tuples whose level is <= t. A bound >= dmax needs no
// bitmap (every tuple passes) and a bound < 0 matches no tuple. The
// index takes (|X|+|Y|)·dmax·⌈M/64⌉·8 bytes, is shared by clones and is
// freed with the provider family.
//
// Each SetLhs also lists the ϕ[X] mask's nonzero words when fewer than
// 1 in kSparseWordRatio of its words are nonzero (a sparse mask);
// CountXY then ANDs and counts those words only (simd::AndCountWords)
// instead of the whole mask (simd::AndCount). A mask whose count alone
// puts it past that cut-off is dense and is not listed. The list is
// per clone and takes at most 4 bytes per mask word.
class ScanMeasureProvider : public MeasureProvider {
 public:
  // The sparse-mask cut-off: a ϕ[X] mask is sparse when its nonzero
  // words times this are fewer than its words. In micro_counting's
  // andcount_words_* rows, AndCountWords over 1 in 4 of the words runs
  // 2–4× faster than AndCount over all of them, and the two break even
  // between 1 in 2 and every word listed (DESIGN.md §17).
  static constexpr std::size_t kSparseWordRatio = 4;

  // Builds the index (trace span "scan_index_build", gauge
  // mem.scan_index_bytes). `matching` is not referenced afterwards.
  ScanMeasureProvider(const MatchingRelation& matching,
                      const ResolvedRule& rule);

  std::uint64_t total() const override { return total_; }
  void SetLhs(const Levels& lhs) override;
  // Builds the same ϕ[X] mask as SetLhs, charging no rows, and checks
  // its popcount against `known_count`.
  void SetLhsWithKnownCount(const Levels& lhs,
                            std::uint64_t known_count) override;
  std::uint64_t lhs_count() const override { return lhs_count_; }
  const Levels& current_lhs() const override { return current_lhs_; }
  std::uint64_t CountXY(const Levels& rhs) override;

  std::unique_ptr<MeasureProvider> CloneForThread() const override;

  // Heap bytes of the shared index. Clones share it, so sum this once
  // per provider family. Feeds the mem.scan_index_bytes gauge.
  std::size_t MemoryUsageBytes() const {
    return index_->capacity() * sizeof(std::uint64_t);
  }

 private:
  ScanMeasureProvider() = default;

  // Appends to inputs_ the index bitmaps for `levels` over the slots
  // starting at `first_slot`, skipping bounds >= dmax. Returns false
  // when a bound is negative (no tuple can match).
  bool AppendBitmaps(std::size_t first_slot, const Levels& levels);
  // Evaluates `lhs` into lhs_mask_ and returns its count.
  std::uint64_t BuildLhsMask(const Levels& lhs);
  // Sets lhs_sparse_ for a mask of `count` rows and, when it is sparse,
  // lists its nonzero words in lhs_words_ in one branch-free pass.
  void RecordNonzeroWords(std::uint64_t count);

  std::uint64_t total_ = 0;
  int dmax_ = 0;
  std::size_t words_ = 0;  // MaskWords(total_), the words per bitmap.
  std::size_t lhs_dims_ = 0;
  std::size_t rhs_dims_ = 0;
  // Layout [slot][t][word]; immutable after construction.
  std::shared_ptr<const std::vector<std::uint64_t>> index_;
  Levels current_lhs_;
  std::uint64_t lhs_count_ = 0;
  // The current ϕ[X] as a row bitmap, owned per clone.
  std::vector<std::uint64_t> lhs_mask_;
  // When lhs_sparse_, lhs_words_[0, lhs_word_count_) are the ascending
  // indices of lhs_mask_'s nonzero words (per clone, sized words_ once
  // a sparse mask first appears).
  bool lhs_sparse_ = false;
  std::vector<std::uint32_t> lhs_words_;
  std::size_t lhs_word_count_ = 0;
  // AndCount inputs of the current call (reused to avoid allocation).
  std::vector<const std::uint64_t*> inputs_;
};

// O(1)-per-count provider over inclusive prefix-sum grids. Apply keeps
// them current under matching deltas, so the static, streaming-exact,
// approx-strata and maintenance paths all count through this class.
class GridMeasureProvider : public MeasureProvider {
 public:
  // Fails when the grid (dmax+1)^(|X|+|Y|) would exceed `max_cells`.
  static Result<std::unique_ptr<GridMeasureProvider>> Create(
      const MatchingRelation& matching, ResolvedRule rule,
      std::size_t max_cells = std::size_t{1} << 27);

  // Builds the provider from externally-accumulated PLAIN histograms
  // (one count per exact level combination; lhs dims low-order in
  // `joint`, rhs high-order — the layout Create's histogram pass uses),
  // prefix-summing them in place. This is how the streaming exact build
  // (approx/exact_stream.h) gets O(d^c)-memory determination without
  // ever materializing M: it streams the triangular pair enumeration
  // straight into these histograms. `total` is the number of pairs the
  // histograms cover; sizes must be (dmax+1)^(lhs_dims+rhs_dims) and
  // (dmax+1)^lhs_dims. A later Apply reads delta attribute k as rule
  // slot k (lhs slots first).
  static Result<std::unique_ptr<GridMeasureProvider>> CreateFromHistograms(
      std::vector<std::uint64_t> joint, std::vector<std::uint64_t> lhs_grid,
      std::uint64_t total, int dmax, std::size_t lhs_dims,
      std::size_t rhs_dims);

  // Folds one batch of added/removed matching tuples into the grids in
  // O(|delta|·c + d^c) without re-reading M: histograms the delta (+1
  // per added row, -1 per removed row, wrapping), prefix-sums it and
  // publishes old + delta as fresh grids, so a clone taken before the
  // call keeps its snapshot. The rule's columns index the delta rows.
  void Apply(const MatchingDelta& delta);

  std::uint64_t total() const override { return total_; }
  void SetLhs(const Levels& lhs) override;
  std::uint64_t lhs_count() const override { return lhs_count_; }
  const Levels& current_lhs() const override { return current_lhs_; }
  std::uint64_t CountXY(const Levels& rhs) override;

  // The grids are shared and never written in place (Apply swaps in
  // fresh ones), so a clone is a few scalars plus two shared pointers
  // — across-LHS parallel determination clones freely.
  std::unique_ptr<MeasureProvider> CloneForThread() const override;

  // Heap bytes of the shared cumulative grids. Clones share the same
  // grids, so sum this once per provider family, not per clone. Feeds
  // the mem.grid_bytes gauge (obs/resource.h).
  std::size_t MemoryUsageBytes() const {
    return (joint_->capacity() + lhs_grid_->capacity()) *
           sizeof(std::uint64_t);
  }

 private:
  GridMeasureProvider() = default;

  // Prefix-sums the plain histograms, adds the current grids when
  // there are any, and publishes the sums as fresh shared grids.
  void Publish(std::vector<std::uint64_t> joint,
               std::vector<std::uint64_t> lhs_grid);
  std::size_t JointIndex(const Levels& rhs) const;

  // Every count is <= total_; a negative count from an inconsistent
  // delta stream wraps above it, so reads check this bound.
  std::uint64_t total_ = 0;
  int dmax_ = 0;
  // Matching columns of the grid dims (lhs dims low-order).
  ResolvedRule rule_;
  // Joint cumulative grid over (lhs..., rhs...) levels: cell ϕ holds
  // count(b[A] <= ϕ[A] for all A). lhs dims are low-order. Shared with
  // clones and never written after publication.
  std::shared_ptr<const std::vector<std::uint64_t>> joint_;
  // Marginal cumulative grid over lhs levels only (also shared).
  std::shared_ptr<const std::vector<std::uint64_t>> lhs_grid_;
  Levels current_lhs_;
  std::uint64_t lhs_count_ = 0;
};

// Convenience: builds the provider requested by name ("scan" or
// "grid"). The trailing size_t is ignored; it stays so
// that callers passing a thread count keep compiling. Every count is
// single-threaded: determination parallelism lives across LHS
// candidates (core/da.cc).
Result<std::unique_ptr<MeasureProvider>> MakeMeasureProvider(
    const MatchingRelation& matching, const ResolvedRule& rule,
    std::string_view kind, std::size_t /*ignored*/ = 1);

}  // namespace dd

#endif  // DD_CORE_MEASURE_PROVIDER_H_
