#include "tests/support/pairwise_kernels.h"

#include <algorithm>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"

namespace expbsi {
namespace pairwise {
namespace {

using bsi_compare::CmpOp;
using bsi_compare::RangeOp;

// Slice i of x, or an empty bitmap above x's top slice.
const RoaringBitmap& SliceOrEmpty(const Bsi& x, int i) {
  static const RoaringBitmap* empty = new RoaringBitmap();
  return i < x.num_slices() ? x.slice(i) : *empty;
}

// Top-down scan partitioning the present positions of x into
// {value < k}, {value == k}, {value > k}.
struct ScalarCompareResult {
  RoaringBitmap lt;
  RoaringBitmap eq;
  RoaringBitmap gt;
};

ScalarCompareResult ScalarCompare(const Bsi& x, uint64_t k) {
  ScalarCompareResult r;
  r.eq = x.existence();
  const int top = std::max(x.num_slices(), BitWidth64(k));
  for (int i = top - 1; i >= 0 && !r.eq.IsEmpty(); --i) {
    const RoaringBitmap& si = SliceOrEmpty(x, i);
    if (((k >> i) & 1) != 0) {
      r.lt.OrInPlace(RoaringBitmap::AndNot(r.eq, si));
      r.eq.AndInPlace(si);
    } else {
      r.gt.OrInPlace(RoaringBitmap::And(r.eq, si));
      r.eq.AndNotInPlace(si);
    }
  }
  return r;
}

}  // namespace

Bsi Add(const Bsi& x, const Bsi& y) {
  if (x.IsEmpty()) return y;
  if (y.IsEmpty()) return x;
  const int s = std::max(x.num_slices(), y.num_slices());
  std::vector<RoaringBitmap> slices;
  slices.reserve(s + 1);
  RoaringBitmap carry;
  for (int i = 0; i < s; ++i) {
    const RoaringBitmap& xi = SliceOrEmpty(x, i);
    const RoaringBitmap& yi = SliceOrEmpty(y, i);
    RoaringBitmap xy = RoaringBitmap::Xor(xi, yi);
    // sum bit = xi ^ yi ^ carry; carry' = (xi & yi) | ((xi ^ yi) & carry).
    RoaringBitmap next_carry = RoaringBitmap::Or(
        RoaringBitmap::And(xi, yi), RoaringBitmap::And(xy, carry));
    slices.push_back(RoaringBitmap::Xor(xy, carry));
    carry = std::move(next_carry);
  }
  if (!carry.IsEmpty()) slices.push_back(std::move(carry));
  return Bsi::FromSlices(std::move(slices),
                         RoaringBitmap::Or(x.existence(), y.existence()));
}

Bsi SumBsi(const std::vector<const Bsi*>& inputs) {
  Bsi acc;
  bool seeded = false;
  for (const Bsi* input : inputs) {
    CHECK(input != nullptr);
    if (input->IsEmpty()) continue;
    if (!seeded) {
      acc = *input;  // one copy to seed, instead of Add(empty, x) per round
      seeded = true;
    } else {
      acc = Add(acc, *input);
    }
  }
  return acc;
}

Bsi WeightedSumBsi(const std::vector<WeightedBsi>& inputs) {
  Bsi acc;
  bool seeded = false;
  for (const WeightedBsi& input : inputs) {
    CHECK(input.bsi != nullptr);
    if (input.weight == 0 || input.bsi->IsEmpty()) continue;
    Bsi term;
    uint64_t bits = input.weight;
    while (bits != 0) {
      const int b = CountTrailingZeros64(bits);
      term = Add(term, Bsi::ShiftLeft(*input.bsi, b));
      bits &= bits - 1;
    }
    if (!seeded) {
      acc = std::move(term);
      seeded = true;
    } else {
      acc = Add(acc, term);
    }
  }
  return acc;
}

RoaringBitmap DistinctPos(const std::vector<const Bsi*>& inputs) {
  RoaringBitmap out;
  for (const Bsi* input : inputs) {
    CHECK(input != nullptr);
    out.OrInPlace(input->existence());
  }
  return out;
}

RoaringBitmap Compare(const Bsi& x, const Bsi& y, CmpOp op) {
  const int s = std::max(x.num_slices(), y.num_slices());
  switch (op) {
    case CmpOp::kLt: {
      // Algorithm 1, ascending slices:
      //   L <- [(Y^i OR L) ANDNOT X^i] OR (Y^i AND L)
      RoaringBitmap lt;
      for (int i = 0; i < s; ++i) {
        const RoaringBitmap& xi = SliceOrEmpty(x, i);
        const RoaringBitmap& yi = SliceOrEmpty(y, i);
        RoaringBitmap keep = RoaringBitmap::And(yi, lt);
        RoaringBitmap gain =
            RoaringBitmap::AndNot(RoaringBitmap::Or(yi, lt), xi);
        lt = RoaringBitmap::Or(gain, keep);
      }
      lt.AndInPlace(x.existence());
      lt.AndInPlace(y.existence());
      return lt;
    }
    case CmpOp::kLe: {
      RoaringBitmap both = RoaringBitmap::And(x.existence(), y.existence());
      both.AndNotInPlace(Compare(y, x, CmpOp::kLt));
      return both;
    }
    case CmpOp::kEq: {
      // Algorithm 2: start from X's existence, peel off differing slices.
      RoaringBitmap eq = x.existence();
      for (int i = 0; i < s && !eq.IsEmpty(); ++i) {
        eq.AndNotInPlace(
            RoaringBitmap::Xor(SliceOrEmpty(x, i), SliceOrEmpty(y, i)));
      }
      return eq;
    }
    case CmpOp::kNe: {
      // Algorithm 3: OR of slice XORs, restricted to both-present positions.
      RoaringBitmap ne;
      for (int i = 0; i < s; ++i) {
        ne.OrInPlace(
            RoaringBitmap::Xor(SliceOrEmpty(x, i), SliceOrEmpty(y, i)));
      }
      ne.AndInPlace(x.existence());
      ne.AndInPlace(y.existence());
      return ne;
    }
  }
  return RoaringBitmap();
}

RoaringBitmap Range(const Bsi& x, RangeOp op, uint64_t k) {
  // k == 0: zero means absent, so every present value is > 0.
  switch (op) {
    case RangeOp::kEq:
      return k == 0 ? RoaringBitmap() : ScalarCompare(x, k).eq;
    case RangeOp::kNe: {
      RoaringBitmap out = x.existence();
      if (k != 0) out.AndNotInPlace(ScalarCompare(x, k).eq);
      return out;
    }
    case RangeOp::kLt:
      return k == 0 ? RoaringBitmap() : ScalarCompare(x, k).lt;
    case RangeOp::kLe: {
      if (k == 0) return RoaringBitmap();
      ScalarCompareResult r = ScalarCompare(x, k);
      r.lt.OrInPlace(r.eq);
      return std::move(r.lt);
    }
    case RangeOp::kGt:
      return k == 0 ? x.existence() : ScalarCompare(x, k).gt;
    case RangeOp::kGe: {
      if (k == 0) return x.existence();
      ScalarCompareResult r = ScalarCompare(x, k);
      r.gt.OrInPlace(r.eq);
      return std::move(r.gt);
    }
  }
  return RoaringBitmap();
}

RoaringBitmap RangeBetween(const Bsi& x, uint64_t lo, uint64_t hi) {
  CHECK_LE(lo, hi);
  RoaringBitmap out = Range(x, RangeOp::kGe, lo);
  out.AndInPlace(Range(x, RangeOp::kLe, hi));
  return out;
}

}  // namespace pairwise
}  // namespace expbsi
