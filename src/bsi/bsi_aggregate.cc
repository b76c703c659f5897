#include "bsi/bsi_aggregate.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/scratch_arena.h"
#include "common/word_ops.h"
#include "obs/metrics.h"
#include "roaring/union_accumulator.h"

namespace expbsi {
namespace {

// One operand of the word-level carry-save sum: `container` holds the bits
// of weight 2^level within chunk `key`. Containers are borrowed from the
// input BSIs' slices and must stay alive until WordCsaSum() returns.
struct SliceRef {
  uint16_t key;
  uint16_t level;
  const Container* container;
};

// Below this cardinality an array container is added with per-value carry
// chains; at or above it, the container is expanded to a word buffer and
// added with the full-width vector passes (a whole-buffer pass costs about
// as much as a few hundred scalar chains, memset included).
constexpr int kScalarAddMaxCardinality = 256;

// Dirty word window of one accumulator level: [lo, hi) words of the chunk
// buffer may hold bits; everything outside is guaranteed zero. Rank-encoded
// positions concentrate a segment's population in the first few words of a
// chunk, so at small scale the window is a fraction of the 1024-word buffer
// and conversion/cleanup can skip the untouched tail.
struct WordWindow {
  uint32_t lo = ScratchArena::kScratchWords;
  uint32_t hi = 0;

  bool empty() const { return lo >= hi; }
  void Widen(uint32_t w_lo, uint32_t w_hi) {
    lo = std::min(lo, w_lo);
    hi = std::max(hi, w_hi);
  }
};

// Carry-save full-adder step over only [lo, hi): the fixed-width SIMD pass
// always sweeps all 1024 words, which dwarfs the real work when an input
// container's values span a handful of words. The plain loop autovectorizes;
// the dispatch-table pass is still used for full-width bitmap inputs.
bool RangedCsaPass(uint64_t* acc, const uint64_t* bits, uint64_t* carry,
                   uint32_t lo, uint32_t hi) {
  uint64_t any = 0;
  for (uint32_t w = lo; w < hi; ++w) {
    const uint64_t c = acc[w] & bits[w];
    acc[w] ^= bits[w];
    carry[w] = c;
    any |= c;
  }
  return any != 0;
}

// Carry-save accumulation on raw 64-bit words. Each 2^16 chunk keeps one
// scratch word buffer per output bit level; every input container is added
// into the buffers with word-wise carry propagation
//
//   carry = acc[lvl] & bits; acc[lvl] ^= bits; bits = carry; ++lvl;
//
// executed as whole-buffer passes over flat 1024-word arrays (which the
// compiler autovectorizes) with two ping-pong carry buffers, or as per-value
// scalar chains for small array containers. The total work is amortized
// O(1) passes per input container, since a carry at level l+1 happens at
// most once per bit set at level l. No intermediate bitmap is ever
// materialized: the buffers convert to Roaring containers exactly once per
// chunk, and the buffers themselves are recycled thread-locally by the
// scratch arena, so steady-state summation allocates only the result. The
// sum is exact regardless of the order refs are added in.
Bsi WordCsaSum(std::vector<SliceRef> refs, RoaringBitmap existence) {
  constexpr size_t kWords = ScratchArena::kScratchWords;
  static_assert(kWords == WordOps::kWords);
  const WordOps& word_ops = ActiveWordOps();  // runtime SIMD dispatch
  std::sort(refs.begin(), refs.end(),
            [](const SliceRef& a, const SliceRef& b) { return a.key < b.key; });
  std::vector<ScratchArena::Lease> acc;  // one 65536-bit buffer per level
  std::vector<WordWindow> win;           // dirty word window per level
  ScratchArena::Lease ping, pong;        // carry propagation scratch
  std::vector<RoaringBitmap> slices;
  // Kernel work accounting, kept in plain locals through the hot loops and
  // published to the registry once per call at the bottom.
  uint64_t n_chunks = 0;
  uint64_t n_word_passes = 0;
  uint64_t n_words_processed = 0;
  uint64_t n_scalar_adds = 0;
  size_t i = 0;
  while (i < refs.size()) {
    const uint16_t key = refs[i].key;
    ++n_chunks;
    size_t used = 0;  // highest accumulator level written for this chunk
    for (; i < refs.size() && refs[i].key == key; ++i) {
      const SliceRef& ref = refs[i];
      const uint64_t* bits = ref.container->BitmapWords();
      if (bits == nullptr &&
          ref.container->Cardinality() < kScalarAddMaxCardinality) {
        // Sparse container: per-value scalar carry chains.
        n_scalar_adds += static_cast<uint64_t>(ref.container->Cardinality());
        ref.container->ForEach([&acc, &win, &used, &ref](uint16_t v) {
          const int w = v >> 6;
          uint64_t b = uint64_t{1} << (v & 63);
          size_t lvl = ref.level;
          do {
            // The first write can start several levels up (high slice, or a
            // shifted weighted operand), so grow to lvl, not just by one.
            while (lvl >= acc.size()) {
              acc.emplace_back();  // zeroed on lease
              win.emplace_back();
            }
            win[lvl].Widen(w, w + 1);
            uint64_t* aw = acc[lvl].words() + w;
            const uint64_t carry = *aw & b;
            *aw ^= b;
            b = carry;
            ++lvl;
          } while (b != 0);
          used = std::max(used, lvl - 1);
        });
        continue;
      }
      // Word window spanned by this container's bits. Bitmap containers lend
      // their full payload and take the full-width dispatch-table pass;
      // array/run containers expand into (and sweep) only their value span.
      uint32_t b_lo = 0;
      uint32_t b_hi = kWords;
      if (bits == nullptr) {
        b_lo = static_cast<uint32_t>(ref.container->Minimum() >> 6);
        b_hi = static_cast<uint32_t>(ref.container->Maximum() >> 6) + 1;
        std::fill(ping.words() + b_lo, ping.words() + b_hi, uint64_t{0});
        ref.container->UnionInto(ping.words());
        bits = ping.words();
      }
      const bool full_width = b_hi - b_lo == kWords;
      // Full adder: sum into acc[lvl], carries into the scratch buffer not
      // currently holding `bits`, until they die out. Carries never escape
      // the input's window, so ranged passes stay ranged.
      uint64_t* carry_buf = bits == ping.words() ? pong.words() : ping.words();
      for (size_t lvl = ref.level;; ++lvl) {
        while (lvl >= acc.size()) {
          acc.emplace_back();
          win.emplace_back();
        }
        win[lvl].Widen(b_lo, b_hi);
        ++n_word_passes;
        n_words_processed += b_hi - b_lo;
        const bool carry_alive =
            full_width
                ? word_ops.csa_pass(acc[lvl].words(), bits, carry_buf)
                : RangedCsaPass(acc[lvl].words(), bits, carry_buf, b_lo, b_hi);
        if (!carry_alive) {
          used = std::max(used, lvl);
          break;
        }
        bits = carry_buf;
        carry_buf = bits == ping.words() ? pong.words() : ping.words();
      }
    }
    for (size_t lvl = 0; lvl <= used && lvl < acc.size(); ++lvl) {
      if (win[lvl].empty()) continue;
      Container c = Container::FromWordsRange(
          acc[lvl].words(), static_cast<int>(win[lvl].lo),
          static_cast<int>(win[lvl].hi));
      if (!c.IsEmpty()) {
        if (slices.size() <= lvl) slices.resize(lvl + 1);
        slices[lvl].AppendContainer(key, std::move(c));
      }
      std::fill(acc[lvl].words() + win[lvl].lo, acc[lvl].words() + win[lvl].hi,
                uint64_t{0});
      win[lvl] = WordWindow();
    }
  }
  static obs::Counter& m_calls = obs::GetCounter("kernel.csa_calls");
  static obs::Counter& m_containers = obs::GetCounter("kernel.csa_containers");
  static obs::Counter& m_chunks = obs::GetCounter("kernel.csa_chunks");
  static obs::Counter& m_passes = obs::GetCounter("kernel.csa_word_passes");
  static obs::Counter& m_words = obs::GetCounter("kernel.csa_words_processed");
  static obs::Counter& m_scalar = obs::GetCounter("kernel.csa_scalar_adds");
  m_calls.Add();
  m_containers.Add(refs.size());
  m_chunks.Add(n_chunks);
  m_passes.Add(n_word_passes);
  m_words.Add(n_words_processed);
  m_scalar.Add(n_scalar_adds);
  // Values are positive wherever present, so the sum's existence bitmap is
  // exactly the union of the inputs' existence bitmaps.
  return Bsi::FromSlices(std::move(slices), std::move(existence));
}

}  // namespace

Bsi SumBsi(const std::vector<const Bsi*>& inputs) {
  if (inputs.empty()) return Bsi();
  if (inputs.size() == 1) {
    CHECK(inputs[0] != nullptr);
    return *inputs[0];
  }
  std::vector<SliceRef> refs;
  UnionAccumulator existence;
  uint64_t n_slices = 0;
  for (const Bsi* input : inputs) {
    CHECK(input != nullptr);
    if (input->IsEmpty()) continue;
    existence.Add(input->existence());
    n_slices += static_cast<uint64_t>(input->num_slices());
    for (int s = 0; s < input->num_slices(); ++s) {
      const RoaringBitmap& slice = input->slice(s);
      for (int c = 0; c < slice.NumContainers(); ++c) {
        refs.push_back({slice.KeyAt(c), static_cast<uint16_t>(s),
                        &slice.ContainerAt(c)});
      }
    }
  }
  static obs::Counter& m_slices = obs::GetCounter("kernel.sum_slices_touched");
  m_slices.Add(n_slices);
  return WordCsaSum(std::move(refs), existence.Finish());
}

Bsi MaxBsi(const Bsi& x, const Bsi& y) {
  // Positions where x wins: x > y (both present) plus x-only positions.
  RoaringBitmap x_wins = Bsi::Gt(x, y);
  x_wins.OrInPlace(RoaringBitmap::AndNot(x.existence(), y.existence()));
  // y takes every other present position (y >= x or y-only).
  RoaringBitmap y_wins = RoaringBitmap::AndNot(y.existence(), x_wins);
  // The two masks are disjoint, so Add is a plain merge.
  return Bsi::Add(Bsi::MultiplyByBinary(x, x_wins),
                  Bsi::MultiplyByBinary(y, y_wins));
}

Bsi MinBsi(const Bsi& x, const Bsi& y) {
  const RoaringBitmap both = RoaringBitmap::And(x.existence(), y.existence());
  RoaringBitmap x_wins = Bsi::Lt(x, y);  // x < y, both present
  RoaringBitmap y_wins = RoaringBitmap::AndNot(both, x_wins);
  return Bsi::Add(Bsi::MultiplyByBinary(x, x_wins),
                  Bsi::MultiplyByBinary(y, y_wins));
}

RoaringBitmap DistinctPos(const std::vector<const Bsi*>& inputs) {
  UnionAccumulator acc;
  for (const Bsi* input : inputs) {
    CHECK(input != nullptr);
    acc.Add(input->existence());
  }
  return acc.Finish();
}

Bsi WeightedSumBsi(const std::vector<WeightedBsi>& inputs) {
  if (inputs.empty()) return Bsi();
  std::vector<SliceRef> refs;
  UnionAccumulator existence;
  for (const WeightedBsi& input : inputs) {
    CHECK(input.bsi != nullptr);
    if (input.weight == 0 || input.bsi->IsEmpty()) continue;
    existence.Add(input.bsi->existence());
    // w * X = sum over set bits b of w of (X << b): slice s of X lands at
    // adder level s + b. No per-input MultiplyScalar materialization.
    uint64_t w = input.weight;
    while (w != 0) {
      const int b = CountTrailingZeros64(w);
      for (int s = 0; s < input.bsi->num_slices(); ++s) {
        const RoaringBitmap& slice = input.bsi->slice(s);
        for (int c = 0; c < slice.NumContainers(); ++c) {
          refs.push_back({slice.KeyAt(c), static_cast<uint16_t>(s + b),
                          &slice.ContainerAt(c)});
        }
      }
      w &= w - 1;
    }
  }
  return WordCsaSum(std::move(refs), existence.Finish());
}

uint64_t QuantileOverInputs(const std::vector<MaskedBsi>& inputs, double q) {
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  // Candidates per input: present positions within the mask.
  std::vector<RoaringBitmap> candidates;
  candidates.reserve(inputs.size());
  uint64_t n = 0;
  int max_slices = 0;
  for (const MaskedBsi& input : inputs) {
    CHECK(input.bsi != nullptr);
    RoaringBitmap c = input.mask == nullptr
                          ? input.bsi->existence()
                          : RoaringBitmap::And(input.bsi->existence(),
                                               *input.mask);
    n += c.Cardinality();
    max_slices = std::max(max_slices, input.bsi->num_slices());
    candidates.push_back(std::move(c));
  }
  CHECK_GT(n, 0u);
  uint64_t rank = static_cast<uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
  if (rank > n) rank = n;

  uint64_t value = 0;
  uint64_t remaining = rank;
  for (int i = max_slices - 1; i >= 0; --i) {
    // Count candidates whose bit i is zero, across every input.
    uint64_t num_zeros = 0;
    std::vector<RoaringBitmap> zeros(inputs.size());
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (i < inputs[s].bsi->num_slices()) {
        zeros[s] =
            RoaringBitmap::AndNot(candidates[s], inputs[s].bsi->slice(i));
      } else {
        zeros[s] = candidates[s];  // missing high slices are all-zero
      }
      num_zeros += zeros[s].Cardinality();
    }
    if (remaining <= num_zeros) {
      candidates = std::move(zeros);
    } else {
      remaining -= num_zeros;
      value |= uint64_t{1} << i;
      for (size_t s = 0; s < inputs.size(); ++s) {
        if (i < inputs[s].bsi->num_slices()) {
          candidates[s].AndInPlace(inputs[s].bsi->slice(i));
        } else {
          candidates[s].Clear();
        }
      }
    }
  }
  return value;
}

RoaringBitmap TopK(const Bsi& x, uint64_t k) {
  if (k == 0 || x.IsEmpty()) return RoaringBitmap();
  if (k >= x.Cardinality()) return x.existence();
  // Slice descent: G holds positions certainly in the top-k, E the still
  // undecided candidates at the current prefix.
  RoaringBitmap certain;
  RoaringBitmap candidates = x.existence();
  for (int i = x.num_slices() - 1; i >= 0; --i) {
    RoaringBitmap with_bit = RoaringBitmap::And(candidates, x.slice(i));
    const uint64_t n = certain.Cardinality() + with_bit.Cardinality();
    if (n > k) {
      candidates = std::move(with_bit);
    } else if (n < k) {
      certain.OrInPlace(with_bit);
      candidates.AndNotInPlace(x.slice(i));
    } else {
      certain.OrInPlace(with_bit);
      return certain;
    }
  }
  // Ties at the k-th value: take the smallest positions among candidates.
  uint64_t need = k - certain.Cardinality();
  candidates.ForEach([&certain, &need](uint32_t pos) {
    if (need > 0) {
      certain.Add(pos);
      --need;
    }
  });
  return certain;
}

}  // namespace expbsi
