#ifndef EXPBSI_BSI_BSI_COMPARE_H_
#define EXPBSI_BSI_BSI_COMPARE_H_

#include <cstdint>
#include <vector>

#include "bsi/bsi.h"

namespace expbsi {
namespace bsi_compare {

// Comparison kernels behind Bsi::Lt/Le/Eq/Ne (Algorithms 1-3) and the
// constant-side Range* family: per 2^16 chunk, the slice containers are
// walked via monotone cursors and folded with fused 64-bit word passes
// (word_ops.h, runtime SIMD dispatch) in thread-local scratch buffers; no
// intermediate RoaringBitmap is ever materialized, and sparse chunks (few
// both-present positions) switch to a per-position probing path that rides
// the containers' galloping array intersects.
//
// The paper's slice-by-slice folds of allocating container ops live outside
// the library (tests/support/pairwise_kernels.h); the differential oracle
// checks both against the scalar engine on every dispatch tier.

// Two-BSI comparisons. Results contain only positions present in BOTH
// operands (the paper's zero-means-absent convention). Gt/Ge are handled by
// the callers via operand swap.
enum class CmpOp { kLt, kLe, kEq, kNe };

RoaringBitmap CompareWord(const Bsi& x, const Bsi& y, CmpOp op);

// Constant comparisons over the present positions of x (RangeOp is declared
// in bsi.h). k == 0 follows the zero-means-absent semantics of the
// Bsi::Range* wrappers (e.g. kNe / kGt / kGe return the existence bitmap,
// everything else is empty).

RoaringBitmap RangeWord(const Bsi& x, RangeOp op, uint64_t k);

// RangeWord(x, kLe, k) for every k in [k_lo, k_hi] (1 <= k_lo <= k_hi):
// element k - k_lo holds the present positions with value <= k. Each chunk
// reads each slice once: sparse chunks probe every position's value once
// and hand it to all the constants it passes, dense chunks build each
// slice's word view once and run the top-down partition per constant.
std::vector<RoaringBitmap> RangeLeEach(const Bsi& x, uint64_t k_lo,
                                       uint64_t k_hi);

// Present positions with lo <= value <= hi (lo <= hi, hi >= 1). Partitions
// against both bounds in ONE top-down pass per chunk -- maintaining
// (lt_lo, eq_lo) against lo and (gt_hi, eq_hi) against hi simultaneously
// and combining as existence & ~lt_lo & ~gt_hi -- instead of two full
// single-bound scans.
RoaringBitmap RangeBetweenWord(const Bsi& x, uint64_t lo, uint64_t hi);

}  // namespace bsi_compare
}  // namespace expbsi

#endif  // EXPBSI_BSI_BSI_COMPARE_H_
