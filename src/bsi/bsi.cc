#include "bsi/bsi.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>

#include "bsi/bsi_aggregate.h"
#include "bsi/bsi_compare.h"
#include "common/bit_util.h"
#include "common/byte_io.h"
#include "common/check.h"
#include "common/scratch_arena.h"
#include "obs/metrics.h"

namespace expbsi {
namespace {

// Shared empty bitmap for "slice beyond the top" accesses.
const RoaringBitmap& EmptyBitmap() {
  static const RoaringBitmap* empty = new RoaringBitmap();
  return *empty;
}

const RoaringBitmap& SliceOrEmpty(const Bsi& x, int i) {
  return i < x.num_slices() ? x.slice(i) : EmptyBitmap();
}

}  // namespace

Bsi Bsi::FromPairs(std::vector<std::pair<uint32_t, uint64_t>> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Bsi out;
  uint64_t all_bits = 0;
  std::vector<uint32_t> present;
  present.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].second == 0) continue;
    CHECK(present.empty() || present.back() != pairs[i].first);
    present.push_back(pairs[i].first);
    all_bits |= pairs[i].second;
  }
  const int num_slices = BitWidth64(all_bits);
  std::vector<std::vector<uint32_t>> slice_positions(num_slices);
  for (const auto& [pos, value] : pairs) {
    uint64_t v = value;
    while (v != 0) {
      const int bit = CountTrailingZeros64(v);
      slice_positions[bit].push_back(pos);
      v &= v - 1;
    }
  }
  out.slices_.reserve(num_slices);
  for (int i = 0; i < num_slices; ++i) {
    out.slices_.push_back(RoaringBitmap::FromSorted(slice_positions[i]));
  }
  out.existence_ = RoaringBitmap::FromSorted(present);
  return out;
}

Bsi Bsi::FromValues(const std::vector<uint64_t>& values) {
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  pairs.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0) {
      pairs.emplace_back(static_cast<uint32_t>(i), values[i]);
    }
  }
  return FromPairs(std::move(pairs));
}

Bsi Bsi::FromSlices(std::vector<RoaringBitmap> slices,
                    RoaringBitmap existence) {
  Bsi out;
  out.slices_ = std::move(slices);
  out.existence_ = std::move(existence);
  out.TrimTopSlices();
  return out;
}

Bsi Bsi::FromBinary(RoaringBitmap positions) {
  Bsi out;
  if (!positions.IsEmpty()) {
    out.existence_ = positions;
    out.slices_.push_back(std::move(positions));
  }
  return out;
}

uint64_t Bsi::Get(uint32_t pos) const {
  if (!existence_.Contains(pos)) return 0;
  uint64_t value = 0;
  for (size_t i = 0; i < slices_.size(); ++i) {
    if (slices_[i].Contains(pos)) value |= uint64_t{1} << i;
  }
  return value;
}

bool Bsi::Equals(const Bsi& other) const {
  if (slices_.size() != other.slices_.size()) return false;
  for (size_t i = 0; i < slices_.size(); ++i) {
    if (!slices_[i].Equals(other.slices_[i])) return false;
  }
  return true;  // existence is derived from slices
}

size_t Bsi::SizeInBytes() const {
  size_t total = existence_.SizeInBytes();
  for (const RoaringBitmap& s : slices_) total += s.SizeInBytes();
  return total;
}

void Bsi::TrimTopSlices() {
  while (!slices_.empty() && slices_.back().IsEmpty()) slices_.pop_back();
}

Bsi Bsi::Add(const Bsi& x, const Bsi& y) {
  if (x.IsEmpty()) return y;
  if (y.IsEmpty()) return x;
  // Two-operand sums ride the word-level carry-save kernel: one fused word
  // pass per input container instead of three allocating container ops per
  // slice.
  return SumBsi({&x, &y});
}

void Bsi::AddInPlace(const Bsi& other) { *this = Add(*this, other); }

Bsi Bsi::Subtract(const Bsi& x, const Bsi& y) {
  if (y.IsEmpty()) return x;
  const int s = std::max(x.num_slices(), y.num_slices());
  Bsi out;
  out.slices_.reserve(s);
  RoaringBitmap borrow;
  for (int i = 0; i < s; ++i) {
    const RoaringBitmap& xi = SliceOrEmpty(x, i);
    const RoaringBitmap& yi = SliceOrEmpty(y, i);
    RoaringBitmap yb = RoaringBitmap::Xor(yi, borrow);
    // diff bit = xi ^ yi ^ borrow;
    // borrow' = ((yi ^ borrow) andnot xi) | (yi & borrow).
    RoaringBitmap next_borrow = RoaringBitmap::Or(
        RoaringBitmap::AndNot(yb, xi), RoaringBitmap::And(yi, borrow));
    out.slices_.push_back(RoaringBitmap::Xor(xi, std::move(yb)));
    borrow = std::move(next_borrow);
  }
  if (!borrow.IsEmpty()) {
    // Positions that went negative: clamp to zero (absent).
    for (RoaringBitmap& slice : out.slices_) slice.AndNotInPlace(borrow);
  }
  out.TrimTopSlices();
  // Existence: positions with a non-zero difference.
  RoaringBitmap exist;
  for (const RoaringBitmap& slice : out.slices_) exist.OrInPlace(slice);
  out.existence_ = std::move(exist);
  return out;
}

Bsi Bsi::MultiplyByBinary(const Bsi& x, const RoaringBitmap& mask) {
  Bsi out;
  out.slices_.reserve(x.slices_.size());
  for (const RoaringBitmap& slice : x.slices_) {
    out.slices_.push_back(RoaringBitmap::And(slice, mask));
  }
  out.TrimTopSlices();
  out.existence_ = RoaringBitmap::And(x.existence_, mask);
  return out;
}

Bsi Bsi::Multiply(const Bsi& x, const Bsi& y) {
  // Schoolbook shift-add over the slices of the narrower operand; each
  // partial product y * x_i is a binary multiply (linear), so the total is
  // O(s_x * s_y) as in the paper.
  const Bsi& narrow = x.num_slices() <= y.num_slices() ? x : y;
  const Bsi& wide = x.num_slices() <= y.num_slices() ? y : x;
  Bsi acc;
  for (int i = 0; i < narrow.num_slices(); ++i) {
    if (narrow.slice(i).IsEmpty()) continue;
    acc.AddInPlace(ShiftLeft(MultiplyByBinary(wide, narrow.slice(i)), i));
  }
  return acc;
}

Bsi Bsi::AddScalar(const Bsi& x, uint64_t k) {
  if (k == 0 || x.IsEmpty()) return x;
  const int kbits = BitWidth64(k);
  const int s = std::max(x.num_slices(), kbits);
  Bsi out;
  out.slices_.reserve(s + 1);
  RoaringBitmap carry;
  for (int i = 0; i < s; ++i) {
    const RoaringBitmap& xi = SliceOrEmpty(x, i);
    // Constant operand: bit i of k is set at every present position.
    const RoaringBitmap& ki =
        ((k >> i) & 1) != 0 ? x.existence_ : EmptyBitmap();
    RoaringBitmap xy = RoaringBitmap::Xor(xi, ki);
    RoaringBitmap next_carry = RoaringBitmap::Or(
        RoaringBitmap::And(xi, ki), RoaringBitmap::And(xy, carry));
    out.slices_.push_back(RoaringBitmap::Xor(xy, carry));
    carry = std::move(next_carry);
  }
  if (!carry.IsEmpty()) out.slices_.push_back(std::move(carry));
  out.TrimTopSlices();
  out.existence_ = x.existence_;
  return out;
}

Bsi Bsi::MultiplyScalar(const Bsi& x, uint64_t k) {
  if (k == 0 || x.IsEmpty()) return Bsi();
  if ((k & (k - 1)) == 0) return ShiftLeft(x, CountTrailingZeros64(k));
  // One carry-save pass over all shifted copies at once, instead of
  // popcount(k) - 1 full adds that each reallocate the accumulator.
  return WeightedSumBsi({{&x, k}});
}

Bsi Bsi::ShiftLeft(const Bsi& x, int bits) {
  CHECK_GE(bits, 0);
  if (bits == 0 || x.IsEmpty()) return x;
  Bsi out;
  out.slices_.reserve(x.slices_.size() + bits);
  for (int i = 0; i < bits; ++i) out.slices_.emplace_back();
  for (const RoaringBitmap& slice : x.slices_) out.slices_.push_back(slice);
  out.existence_ = x.existence_;
  return out;
}

RoaringBitmap Bsi::Lt(const Bsi& x, const Bsi& y) {
  return bsi_compare::CompareWord(x, y, bsi_compare::CmpOp::kLt);
}

RoaringBitmap Bsi::Eq(const Bsi& x, const Bsi& y) {
  return bsi_compare::CompareWord(x, y, bsi_compare::CmpOp::kEq);
}

RoaringBitmap Bsi::Ne(const Bsi& x, const Bsi& y) {
  return bsi_compare::CompareWord(x, y, bsi_compare::CmpOp::kNe);
}

RoaringBitmap Bsi::Le(const Bsi& x, const Bsi& y) {
  return bsi_compare::CompareWord(x, y, bsi_compare::CmpOp::kLe);
}

RoaringBitmap Bsi::RangeEq(uint64_t k) const {
  return bsi_compare::RangeWord(*this, bsi_compare::RangeOp::kEq, k);
}

RoaringBitmap Bsi::RangeNe(uint64_t k) const {
  return bsi_compare::RangeWord(*this, bsi_compare::RangeOp::kNe, k);
}

RoaringBitmap Bsi::RangeLt(uint64_t k) const {
  return bsi_compare::RangeWord(*this, bsi_compare::RangeOp::kLt, k);
}

RoaringBitmap Bsi::RangeLe(uint64_t k) const {
  return bsi_compare::RangeWord(*this, bsi_compare::RangeOp::kLe, k);
}

RoaringBitmap Bsi::RangeGt(uint64_t k) const {
  return bsi_compare::RangeWord(*this, bsi_compare::RangeOp::kGt, k);
}

RoaringBitmap Bsi::RangeGe(uint64_t k) const {
  return bsi_compare::RangeWord(*this, bsi_compare::RangeOp::kGe, k);
}

RoaringBitmap Bsi::RangeBetween(uint64_t lo, uint64_t hi) const {
  CHECK_LE(lo, hi);
  return bsi_compare::RangeBetweenWord(*this, lo, hi);
}

uint64_t Bsi::Sum() const {
  unsigned __int128 total = 0;
  for (size_t i = 0; i < slices_.size(); ++i) {
    total += static_cast<unsigned __int128>(slices_[i].Cardinality()) << i;
  }
  CHECK(total <= ~uint64_t{0});
  return static_cast<uint64_t>(total);
}

uint64_t Bsi::SumUnderMask(const RoaringBitmap& mask) const {
  // Slices at bit 64 and above (only arithmetic overflow builds them) can
  // only carry the total past 2^64 - 1.
  for (int i = 64; i < num_slices(); ++i) {
    CHECK(!RoaringBitmap::Intersects(slices_[i], mask));
  }
  // One walk over the mask's chunks with a monotone cursor per slice. An
  // array slice bit-tests its values against the chunk's mask words. A
  // bitmap mask lends its payload; an array or run mask is set into one
  // scratch buffer at most once per chunk, only when a slice needs it, and
  // only when it holds at least as many values as words in its span:
  // setting and re-zeroing cost about twice the span, and each array slice
  // then saves the mask's length in merge steps. Bitmap and run slices,
  // array slices that dwarf the mask (where the galloping intersect skips
  // most of the slice) and sparse masks keep AndCardinality.
  const int s = std::min(num_slices(), 64);
  std::array<int, 64> cur;
  std::fill_n(cur.begin(), s, 0);
  std::optional<ScratchArena::Lease> scratch;
  unsigned __int128 total = 0;
  for (int m = 0; m < mask.NumContainers(); ++m) {
    const uint16_t key = mask.KeyAt(m);
    const Container& mc = mask.ContainerAt(m);
    const uint64_t* mask_words = mc.BitmapWords();
    bool sparse_mask = false;  // fewer values than words in its span
    bool expanded = false;     // scratch words [span_lo, span_hi) hold it
    int span_lo = 0;
    int span_hi = 0;
    for (int i = 0; i < s; ++i) {
      const RoaringBitmap& slice = slices_[i];
      int& c = cur[i];
      while (c < slice.NumContainers() && slice.KeyAt(c) < key) ++c;
      if (c == slice.NumContainers() || slice.KeyAt(c) != key) continue;
      const Container& sc = slice.ContainerAt(c);
      const bool small_array =
          sc.type() == ContainerType::kArray &&
          sc.Cardinality() < Container::kGallopRatio * mc.Cardinality();
      if (small_array && mask_words == nullptr && !sparse_mask) {
        span_lo = mc.Minimum() >> 6;
        span_hi = (mc.Maximum() >> 6) + 1;
        sparse_mask = mc.Cardinality() < span_hi - span_lo;
        if (!sparse_mask) {
          if (!scratch.has_value()) scratch.emplace();
          mc.UnionInto(scratch->words());
          mask_words = scratch->words();
          expanded = true;
        }
      }
      uint64_t card = 0;
      if (small_array && mask_words != nullptr) {
        sc.ForEach([&card, mask_words](uint16_t v) {
          card += (mask_words[v >> 6] >> (v & 63)) & 1;
        });
      } else {
        card = static_cast<uint64_t>(Container::AndCardinality(sc, mc));
      }
      total += static_cast<unsigned __int128>(card) << i;
    }
    if (expanded) {
      std::fill(scratch->words() + span_lo, scratch->words() + span_hi,
                uint64_t{0});
    }
  }
  CHECK(total <= ~uint64_t{0});
  return static_cast<uint64_t>(total);
}

double Bsi::Average() const {
  const uint64_t n = Cardinality();
  if (n == 0) return 0.0;
  return static_cast<double>(Sum()) / static_cast<double>(n);
}

uint64_t Bsi::MinValue() const {
  CHECK(!IsEmpty());
  RoaringBitmap candidates = existence_;
  uint64_t value = 0;
  for (int i = num_slices() - 1; i >= 0; --i) {
    RoaringBitmap zeros = RoaringBitmap::AndNot(candidates, slices_[i]);
    if (!zeros.IsEmpty()) {
      candidates = std::move(zeros);
    } else {
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

uint64_t Bsi::MaxValue() const {
  CHECK(!IsEmpty());
  RoaringBitmap candidates = existence_;
  uint64_t value = 0;
  for (int i = num_slices() - 1; i >= 0; --i) {
    RoaringBitmap ones = RoaringBitmap::And(candidates, slices_[i]);
    if (!ones.IsEmpty()) {
      candidates = std::move(ones);
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

uint64_t Bsi::Quantile(double q) const {
  CHECK(!IsEmpty());
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  const uint64_t n = Cardinality();
  uint64_t rank = static_cast<uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
  if (rank > n) rank = n;
  RoaringBitmap candidates = existence_;
  uint64_t value = 0;
  uint64_t remaining = rank;
  for (int i = num_slices() - 1; i >= 0; --i) {
    RoaringBitmap zeros = RoaringBitmap::AndNot(candidates, slices_[i]);
    const uint64_t num_zeros = zeros.Cardinality();
    if (remaining <= num_zeros) {
      candidates = std::move(zeros);
    } else {
      remaining -= num_zeros;
      candidates.AndInPlace(slices_[i]);
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

void Bsi::SetValue(uint32_t pos, uint64_t value) {
  const int kbits = BitWidth64(value);
  while (num_slices() < kbits) slices_.emplace_back();
  for (int i = 0; i < num_slices(); ++i) {
    if (((value >> i) & 1) != 0) {
      slices_[i].Add(pos);
    } else {
      slices_[i].Remove(pos);
    }
  }
  if (value != 0) {
    existence_.Add(pos);
  } else {
    existence_.Remove(pos);
  }
  TrimTopSlices();
}

void Bsi::MergeAppend(const Bsi& delta) {
  static obs::Counter& disjoint = obs::GetCounter("kernel.merge_appends");
  static obs::Counter& overlap =
      obs::GetCounter("kernel.merge_append_overlaps");
  if (delta.IsEmpty()) return;
  if (IsEmpty()) {
    *this = delta;
    return;
  }
  if (RoaringBitmap::Intersects(existence_, delta.existence_)) {
    // Overlapping positions need real addition: delegate to the adder so
    // the result is exactly Add(*this, delta).
    overlap.Add();
    *this = Add(*this, delta);
    return;
  }
  // Disjoint existence means no position has a bit set in both operands'
  // slices, so slice-wise OR is carry-free addition.
  disjoint.Add();
  while (num_slices() < delta.num_slices()) slices_.emplace_back();
  for (int i = 0; i < delta.num_slices(); ++i) {
    slices_[i].OrInPlace(delta.slices_[i]);
  }
  existence_.OrInPlace(delta.existence_);
}

void Bsi::RunOptimize() {
  existence_.RunOptimize();
  for (RoaringBitmap& slice : slices_) slice.RunOptimize();
}

void Bsi::Serialize(std::string* out) const {
  PutU32(out, static_cast<uint32_t>(slices_.size()));
  std::string block = existence_.SerializeToString();
  PutU32(out, static_cast<uint32_t>(block.size()));
  out->append(block);
  for (const RoaringBitmap& slice : slices_) {
    block = slice.SerializeToString();
    PutU32(out, static_cast<uint32_t>(block.size()));
    out->append(block);
  }
}

std::string Bsi::SerializeToString() const {
  std::string out;
  Serialize(&out);
  return out;
}

Result<Bsi> Bsi::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  uint32_t num_slices = 0;
  if (!r.ReadU32(&num_slices)) return Status::Corruption("bsi: truncated");
  if (num_slices > 64) return Status::Corruption("bsi: too many slices");
  // Each block carries a 4-byte length prefix; reject a slice count the
  // remaining bytes cannot hold before looping.
  if (r.remaining() / sizeof(uint32_t) < static_cast<size_t>(num_slices) + 1) {
    return Status::Corruption("bsi: slice count exceeds payload");
  }
  Bsi out;
  out.slices_.reserve(num_slices);
  for (uint32_t i = 0; i <= num_slices; ++i) {
    uint32_t len = 0;
    std::string_view block;
    if (!r.ReadU32(&len)) return Status::Corruption("bsi: truncated block");
    if (!r.ReadBytes(len, &block)) {
      return Status::Corruption("bsi: truncated block body");
    }
    Result<RoaringBitmap> bm = RoaringBitmap::Deserialize(block);
    if (!bm.ok()) return bm.status();
    if (i == 0) {
      out.existence_ = std::move(bm).value();
    } else {
      out.slices_.push_back(std::move(bm).value());
    }
  }
  if (!r.empty()) return Status::Corruption("bsi: trailing bytes");
  return out;
}

std::vector<std::pair<uint32_t, uint64_t>> Bsi::ToPairs() const {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  out.reserve(Cardinality());
  existence_.ForEach([this, &out](uint32_t pos) {
    out.emplace_back(pos, Get(pos));
  });
  return out;
}

}  // namespace expbsi
