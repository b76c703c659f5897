#ifndef EXPBSI_BSI_BSI_AGGREGATE_H_
#define EXPBSI_BSI_BSI_AGGREGATE_H_

#include <vector>

#include "bsi/bsi.h"

namespace expbsi {

// Aggregate functions over BSIs (paper §4.1.3): they fold multiple BSIs into
// one BSI (or one bitmap), unlike the in-BSI aggregates which fold one BSI
// into a number. These are the merge functions of the pre-aggregate tree
// (§4.3, Fig. 6) and of non-decomposable bucket-value states (§4.2).

// sumBSI(X, Y) := X + Y.
inline Bsi SumBsi(const Bsi& x, const Bsi& y) { return Bsi::Add(x, y); }

// Sums a whole list of BSIs without materializing an intermediate BSI: per
// 2^16 chunk, every input slice container is carry-save-added into scratch
// word buffers (one 65536-bit buffer per output bit level, recycled by the
// thread-local scratch arena) and the buffers convert to Roaring containers
// exactly once, so N inputs cost one word pass each instead of N - 1
// ripple-carry passes over a growing accumulator (the paper's pairwise fold,
// kept outside the library in tests/support/pairwise_kernels.h as the
// differential foil and the ablation baseline).
Bsi SumBsi(const std::vector<const Bsi*>& inputs);

// maxBSI(X, Y) := X * (X > Y) + Y * (X <= Y), extended to positions present
// in only one operand (the present value wins, since values are positive and
// absent means zero).
Bsi MaxBsi(const Bsi& x, const Bsi& y);

// minBSI(X, Y): row-wise minimum. Positions present in only one operand are
// absent in the result (min with an absent zero is zero).
Bsi MinBsi(const Bsi& x, const Bsi& y);

// mulBSI(X, Y) := X * Y.
inline Bsi MulBsi(const Bsi& x, const Bsi& y) { return Bsi::Multiply(x, y); }

// distinctPos(X, Y) := (X > 0) OR (Y > 0): the positions where any input has
// a value. Used to merge unique-visitor states across days (§4.2).
inline RoaringBitmap DistinctPos(const Bsi& x, const Bsi& y) {
  return RoaringBitmap::Or(x.existence(), y.existence());
}

// distinctPos over a list of BSIs, accumulated lazily in scratch word
// buffers (each chunk is expanded once, not re-merged per input).
RoaringBitmap DistinctPos(const std::vector<const Bsi*>& inputs);

// Weighted sum of several BSI attributes: S[j] = sum_i w_i * X_i[j], the
// scoring primitive of BSI preference queries (Rinfret 2008; Guzun et al.
// 2015 -- the lineage the paper builds on, §2.3). Positions absent from
// every input stay absent.
struct WeightedBsi {
  const Bsi* bsi = nullptr;
  uint64_t weight = 1;
};
// The carry-save adder of SumBsi takes slice i of an input with weight w at
// level i + b for every set bit b of w -- shift-add without ever
// materializing MultiplyScalar() per input.
Bsi WeightedSumBsi(const std::vector<WeightedBsi>& inputs);

// A BSI restricted to a position mask, without materializing the filtered
// index. Used to aggregate across segments (each segment has its own
// position space, but value-only statistics like quantiles merge cleanly).
struct MaskedBsi {
  const Bsi* bsi = nullptr;
  const RoaringBitmap* mask = nullptr;  // nullptr = no mask (all positions)
};

// Quantile of the multiset of values drawn from all inputs (q as in
// Bsi::Quantile). Slice-descent across every input simultaneously, so the
// cost is O(max_slices * inputs) bitmap ops -- no merge, no sort. The total
// masked cardinality must be non-zero.
uint64_t QuantileOverInputs(const std::vector<MaskedBsi>& inputs, double q);

// Positions holding the k largest values (BSI top-k in the style of the
// preference-query literature the paper cites). Ties at the k-th value are
// broken toward smaller positions so exactly min(k, cardinality) positions
// are returned.
RoaringBitmap TopK(const Bsi& x, uint64_t k);

}  // namespace expbsi

#endif  // EXPBSI_BSI_BSI_AGGREGATE_H_
