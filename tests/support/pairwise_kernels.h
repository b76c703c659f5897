#ifndef EXPBSI_TESTS_SUPPORT_PAIRWISE_KERNELS_H_
#define EXPBSI_TESTS_SUPPORT_PAIRWISE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "bsi/bsi.h"
#include "bsi/bsi_aggregate.h"
#include "bsi/bsi_compare.h"

namespace expbsi {
namespace pairwise {

// The paper's BSI operators as written in §4.1 (Algorithms 1-3, sumBSI,
// distinctPos): slice-by-slice folds of allocating RoaringBitmap ops over
// the public Bsi API. The library runs only the word-level kernels; these
// are their differential foil (tests) and the baseline the ablation benches
// time them against. Each function returns exactly what its library
// counterpart returns.

// Ripple-carry adder: three allocating container ops per slice.
Bsi Add(const Bsi& x, const Bsi& y);

// Left folds of Add (weighted: shift-add per set weight bit) and of
// OrInPlace over the inputs' existence bitmaps.
Bsi SumBsi(const std::vector<const Bsi*>& inputs);
Bsi WeightedSumBsi(const std::vector<WeightedBsi>& inputs);
RoaringBitmap DistinctPos(const std::vector<const Bsi*>& inputs);

// Two-BSI comparisons (Algorithm 1 for kLt, 2 for kEq, 3 for kNe) and the
// constant-side range searches, with bsi_compare's operand semantics.
RoaringBitmap Compare(const Bsi& x, const Bsi& y, bsi_compare::CmpOp op);
RoaringBitmap Range(const Bsi& x, bsi_compare::RangeOp op, uint64_t k);
// Two full single-bound scans plus an AND (lo <= hi).
RoaringBitmap RangeBetween(const Bsi& x, uint64_t lo, uint64_t hi);

}  // namespace pairwise
}  // namespace expbsi

#endif  // EXPBSI_TESTS_SUPPORT_PAIRWISE_KERNELS_H_
