#ifndef EXPBSI_BSI_BSI_H_
#define EXPBSI_BSI_BSI_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "roaring/roaring_bitmap.h"

namespace expbsi {

// Bit-sliced index (O'Neil & Quass 1997; Rinfret et al. 2001) over Roaring
// bitmaps: an ordered list of bit-slices B^{s-1}, ..., B^1, B^0 representing a
// non-negative integer value per position (the position is the paper's
// encoded analysis-unit position, §3.4).
//
// Zero-value convention (paper §2.3): a value of zero is "not present".
// Storing value 0 at a position is identical to not storing the position at
// all, and comparison operators only report positions where BOTH operands are
// present. The set of present positions is cached as the existence bitmap
// (`existence()`), which always equals the OR of all slices.
class Bsi {
 public:
  Bsi() = default;

  // Builds from (position, value) pairs. Zero values are skipped; duplicate
  // positions are not allowed.
  static Bsi FromPairs(std::vector<std::pair<uint32_t, uint64_t>> pairs);

  // Builds from a dense vector: position i gets values[i] (zeros skipped).
  static Bsi FromValues(const std::vector<uint64_t>& values);

  // Builds a binary BSI (single slice) from a set of positions, i.e. the
  // indicator column "1 at every position in `positions`".
  static Bsi FromBinary(RoaringBitmap positions);

  // Adopts already-computed slices and their existence bitmap (the kernel
  // output path of the multi-operand aggregates). The caller guarantees
  // `existence` equals the OR of all slices; empty top slices are trimmed.
  static Bsi FromSlices(std::vector<RoaringBitmap> slices,
                        RoaringBitmap existence);

  // --- Inspection -----------------------------------------------------------

  // Value at `pos`; 0 means not present.
  uint64_t Get(uint32_t pos) const;
  bool Exists(uint32_t pos) const { return existence_.Contains(pos); }

  // Bitmap of positions with a non-zero value.
  const RoaringBitmap& existence() const { return existence_; }

  // Number of non-zero positions.
  uint64_t Cardinality() const { return existence_.Cardinality(); }
  bool IsEmpty() const { return existence_.IsEmpty(); }

  int num_slices() const { return static_cast<int>(slices_.size()); }
  // Slice i (bit i); i must be < num_slices().
  const RoaringBitmap& slice(int i) const { return slices_[i]; }

  // Largest representable bit set anywhere, i.e. values < 2^num_slices().

  bool Equals(const Bsi& other) const;
  friend bool operator==(const Bsi& a, const Bsi& b) { return a.Equals(b); }

  // Heap bytes across all slices plus the existence bitmap.
  size_t SizeInBytes() const;

  // --- Arithmetic (paper §2.3) ---------------------------------------------

  // S[j] = X[j] + Y[j] (positions missing from one operand contribute 0).
  // Dispatches on the MultiOpKernel flag (bsi_aggregate.h): the default
  // multi-operand kernel routes through the word-level carry-save adder,
  // the legacy flag selects AddPairwise below.
  static Bsi Add(const Bsi& x, const Bsi& y);

  // The legacy slice-by-slice ripple-carry adder (allocating container ops
  // per slice). Kept as the differential foil and the ablation baseline.
  static Bsi AddPairwise(const Bsi& x, const Bsi& y);

  // *this = Add(*this, other): accumulation form for shift-add loops.
  void AddInPlace(const Bsi& other);

  // S[j] = X[j] - Y[j] where X[j] >= Y[j]; positions where Y[j] > X[j] are
  // clamped to zero (values are non-negative by convention), and positions
  // whose difference is zero become absent.
  static Bsi Subtract(const Bsi& x, const Bsi& y);

  // S[j] = X[j] * Y[j]. General multiplication is O(s_x * s_y); the paper
  // only needs one binary operand in production (MultiplyByBinary below).
  static Bsi Multiply(const Bsi& x, const Bsi& y);

  // S[j] = X[j] if mask contains j else absent. This is the paper's
  // "value * (predicate)" filter step, linear in the slice count.
  static Bsi MultiplyByBinary(const Bsi& x, const RoaringBitmap& mask);

  // S[j] = X[j] + k for present positions (absent stay absent); k >= 0.
  static Bsi AddScalar(const Bsi& x, uint64_t k);

  // S[j] = X[j] * k (shift-add over k's set bits; k = 0 yields empty).
  static Bsi MultiplyScalar(const Bsi& x, uint64_t k);

  // Left-shifts all values by `bits` (multiply by 2^bits).
  static Bsi ShiftLeft(const Bsi& x, int bits);

  // --- Comparisons between two BSIs (Algorithms 1-3 + derived) -------------
  // All return the set of positions j where BOTH X[j] and Y[j] are present
  // and the comparison holds. Implemented by the kernels in bsi_compare.h
  // (word-level with runtime SIMD dispatch by default; the legacy pairwise
  // path stays selectable via the MultiOpKernel flag).

  static RoaringBitmap Lt(const Bsi& x, const Bsi& y);   // Algorithm 1
  static RoaringBitmap Eq(const Bsi& x, const Bsi& y);   // Algorithm 2
  static RoaringBitmap Ne(const Bsi& x, const Bsi& y);   // Algorithm 3
  static RoaringBitmap Gt(const Bsi& x, const Bsi& y) { return Lt(y, x); }
  static RoaringBitmap Le(const Bsi& x, const Bsi& y);
  static RoaringBitmap Ge(const Bsi& x, const Bsi& y) { return Le(y, x); }

  // --- Range searches against a constant (O'Neil & Quass) ------------------
  // Return present positions whose value compares against k.

  RoaringBitmap RangeEq(uint64_t k) const;
  RoaringBitmap RangeNe(uint64_t k) const;
  RoaringBitmap RangeLt(uint64_t k) const;
  RoaringBitmap RangeLe(uint64_t k) const;
  RoaringBitmap RangeGt(uint64_t k) const;
  RoaringBitmap RangeGe(uint64_t k) const;
  // Present positions with lo <= value <= hi.
  RoaringBitmap RangeBetween(uint64_t lo, uint64_t hi) const;

  // --- In-BSI aggregates (single numeric result) ----------------------------

  // Sum of all values: sum_i 2^i * |B^i|.
  uint64_t Sum() const;

  // Sum restricted to positions in `mask`: sum_i 2^i * |B^i AND mask|, in
  // one pass over the mask's chunks without materializing the filtered BSI.
  // Array slices bit-test their values against the chunk's mask words when
  // the mask chunk is a bitmap or holds at least one value per word of its
  // span; bitmap and run slices, array slices >= kGallopRatio times the
  // mask chunk, and sparser masks use Container::AndCardinality.
  // CHECK-fails if the exact total exceeds 2^64 - 1.
  uint64_t SumUnderMask(const RoaringBitmap& mask) const;

  // Mean over present positions; 0 if empty.
  double Average() const;

  // Smallest / largest present value; BSI must be non-empty.
  uint64_t MinValue() const;
  uint64_t MaxValue() const;

  // Value at quantile q in [0, 1] over present values (q=0.5 is the median:
  // the smallest value v with rank >= ceil(q * n)). BSI must be non-empty.
  uint64_t Quantile(double q) const;
  uint64_t Median() const { return Quantile(0.5); }

  // --- Maintenance ----------------------------------------------------------

  // Point update; value 0 removes the position.
  void SetValue(uint32_t pos, uint64_t value);

  // Merges `delta` into this BSI so that afterwards every position holds
  // this[j] + delta[j]. When the existence bitmaps are disjoint (the common
  // ingestion case: late-arriving analysis units appended to a live
  // segment), the merge is a word-level OR per slice -- no carries, no
  // rebuild. Overlapping positions fall back to the carry-save adder.
  void MergeAppend(const Bsi& delta);

  // Run-optimizes every slice (storage form).
  void RunOptimize();

  // Serialization: [num_slices:u32][ebm block][slice blocks], each block
  // length-prefixed with u32.
  void Serialize(std::string* out) const;
  std::string SerializeToString() const;
  static Result<Bsi> Deserialize(std::string_view bytes);

  // Dense decode: vector of (position, value), ascending positions.
  std::vector<std::pair<uint32_t, uint64_t>> ToPairs() const;

 private:
  // Drops empty top slices and rebuilds nothing else; callers must keep
  // existence_ consistent.
  void TrimTopSlices();

  std::vector<RoaringBitmap> slices_;  // slices_[i] = bit i
  RoaringBitmap existence_;            // OR of all slices (cached)
};

}  // namespace expbsi

#endif  // EXPBSI_BSI_BSI_H_
