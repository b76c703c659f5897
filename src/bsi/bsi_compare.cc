#include "bsi/bsi_compare.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/scratch_arena.h"
#include "common/word_ops.h"
#include "obs/metrics.h"

namespace expbsi {
namespace bsi_compare {
namespace {

constexpr size_t kWords = WordOps::kWords;

// Chunks with at most this many both-present positions skip the word engine
// and probe values per position instead: reconstructing a handful of values
// with binary container probes is cheaper than sweeping 8 KiB buffers per
// slice, and the probe count rides the galloping array intersects that
// produced the (small) position set in the first place.
constexpr int kSparseCompareMax = 512;

// Shared empty bitmap for "slice beyond the top" accesses (pairwise path).
const RoaringBitmap& EmptyBitmap() {
  static const RoaringBitmap* empty = new RoaringBitmap();
  return *empty;
}

const RoaringBitmap& SliceOrEmpty(const Bsi& x, int i) {
  return i < x.num_slices() ? x.slice(i) : EmptyBitmap();
}

// Monotone cursor over one BSI's slice container lists: At(s, key) returns
// the container of slice s in chunk `key` (or nullptr), amortized O(1) as
// long as keys are requested in ascending order. This is how the word
// kernels find each chunk's slice containers without per-chunk binary
// searches.
class SliceCursor {
 public:
  explicit SliceCursor(const Bsi& b) : b_(b), cur_(b.num_slices(), 0) {}

  const Container* At(int s, uint16_t key) {
    const RoaringBitmap& slice = b_.slice(s);
    int& c = cur_[s];
    while (c < slice.NumContainers() && slice.KeyAt(c) < key) ++c;
    if (c < slice.NumContainers() && slice.KeyAt(c) == key) {
      return &slice.ContainerAt(c);
    }
    return nullptr;
  }

 private:
  const Bsi& b_;
  std::vector<int> cur_;
};

// Read-only word view of a container: dense containers lend their bitmap
// payload directly; array/run containers expand into `scratch` (re-zeroed
// by WordsInto, so the lease can be reused across calls).
const uint64_t* WordsOf(const Container& c, ScratchArena::Lease& scratch) {
  return c.WordsInto(scratch.words());
}

void EmitWords(RoaringBitmap* out, uint16_t key, const uint64_t* words) {
  Container c = Container::FromWords(words);
  if (!c.IsEmpty()) out->AppendContainer(key, std::move(c));
}

// Appends the sorted positions `hits` of chunk `key`, if any.
void EmitHits(RoaringBitmap* out, uint16_t key,
              const std::vector<uint16_t>& hits) {
  if (hits.empty()) return;
  out->AppendContainer(
      key, Container::FromSorted(hits.data(), static_cast<int>(hits.size())));
}

// Reconstructs the value at position `low` from per-chunk slice containers.
uint64_t ProbeValue(const std::vector<const Container*>& slices, int n,
                    uint16_t low) {
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    if (slices[i] != nullptr && slices[i]->Contains(low)) {
      v |= uint64_t{1} << i;
    }
  }
  return v;
}

struct CompareCounters {
  uint64_t chunks_word = 0;
  uint64_t chunks_sparse = 0;
  uint64_t word_passes = 0;
  uint64_t probes = 0;

  void PublishCompare() const {
    static obs::Counter& m_calls = obs::GetCounter("kernel.compare_calls");
    static obs::Counter& m_word =
        obs::GetCounter("kernel.compare_chunks_word");
    static obs::Counter& m_sparse =
        obs::GetCounter("kernel.compare_chunks_sparse");
    static obs::Counter& m_passes =
        obs::GetCounter("kernel.compare_word_passes");
    static obs::Counter& m_probes = obs::GetCounter("kernel.compare_probes");
    m_calls.Add();
    m_word.Add(chunks_word);
    m_sparse.Add(chunks_sparse);
    m_passes.Add(word_passes);
    m_probes.Add(probes);
  }

  void PublishRange() const {
    static obs::Counter& m_calls = obs::GetCounter("kernel.range_calls");
    static obs::Counter& m_word = obs::GetCounter("kernel.range_chunks_word");
    static obs::Counter& m_sparse =
        obs::GetCounter("kernel.range_chunks_sparse");
    static obs::Counter& m_passes =
        obs::GetCounter("kernel.range_word_passes");
    static obs::Counter& m_probes = obs::GetCounter("kernel.range_probes");
    m_calls.Add();
    m_word.Add(chunks_word);
    m_sparse.Add(chunks_sparse);
    m_passes.Add(word_passes);
    m_probes.Add(probes);
  }
};

// Top-down three-way partition of one chunk against the constant k (which
// must fit in s bits), in word space. `eq` enters as the chunk's present
// positions and leaves holding those whose value equals k so far; `acc`
// (zeroed by the caller) gathers the positions < k when need_lt, else > k
// when need_gt, else nothing. words(i) is slice i's word view or nullptr.
// Returns whether eq is still non-empty; it exits early once eq dies.
template <typename SliceWords>
bool PartitionAgainst(const WordOps& ops, int s, uint64_t k, bool need_lt,
                      bool need_gt, SliceWords&& words, uint64_t* acc,
                      uint64_t* eq, CompareCounters* counters) {
  for (int i = s - 1; i >= 0; --i) {
    const uint64_t* sw = words(i);
    bool alive;
    if (((k >> i) & 1) != 0) {
      if (sw == nullptr) {
        // Slice is all-zero but k's bit is set: every survivor is < k.
        if (need_lt) ops.or_pass(acc, eq);
        return false;
      }
      ++counters->word_passes;
      alive = need_lt ? ops.scalar_one_pass(acc, eq, sw)
                      : ops.and_pass(eq, sw);
    } else {
      if (sw == nullptr) continue;  // all-zero slice, clear bit: no-op
      ++counters->word_passes;
      alive = need_gt ? ops.scalar_zero_pass(acc, eq, sw)
                      : ops.andnot_pass(eq, sw);
    }
    if (!alive) return false;
  }
  return true;
}

}  // namespace

RoaringBitmap CompareWord(const Bsi& x, const Bsi& y, CmpOp op) {
  RoaringBitmap out;
  if (x.IsEmpty() || y.IsEmpty()) return out;
  const WordOps& ops = ActiveWordOps();
  const RoaringBitmap& ex = x.existence();
  const RoaringBitmap& ey = y.existence();
  const int sx = x.num_slices();
  const int sy = y.num_slices();
  const int s = std::max(sx, sy);
  SliceCursor xcur(x);
  SliceCursor ycur(y);
  std::vector<const Container*> xc(s);
  std::vector<const Container*> yc(s);
  ScratchArena::Lease maskbuf, accbuf, xbuf, ybuf, resbuf;
  std::vector<uint16_t> hits;
  CompareCounters counters;

  int ia = 0;
  int ib = 0;
  while (ia < ex.NumContainers() && ib < ey.NumContainers()) {
    if (ex.KeyAt(ia) < ey.KeyAt(ib)) {
      ++ia;
      continue;
    }
    if (ey.KeyAt(ib) < ex.KeyAt(ia)) {
      ++ib;
      continue;
    }
    const uint16_t key = ex.KeyAt(ia);
    // Both-present mask for the chunk; And() gallops internally when the
    // container mix is skewed (big bitmap vs small array).
    Container both = Container::And(ex.ContainerAt(ia), ey.ContainerAt(ib));
    ++ia;
    ++ib;
    if (both.IsEmpty()) continue;
    for (int i = 0; i < s; ++i) {
      xc[i] = i < sx ? xcur.At(i, key) : nullptr;
      yc[i] = i < sy ? ycur.At(i, key) : nullptr;
    }

    if (both.Cardinality() <= kSparseCompareMax) {
      ++counters.chunks_sparse;
      counters.probes += static_cast<uint64_t>(both.Cardinality());
      hits.clear();
      both.ForEach([&](uint16_t v) {
        const uint64_t xv = ProbeValue(xc, sx, v);
        const uint64_t yv = ProbeValue(yc, sy, v);
        bool pass = false;
        switch (op) {
          case CmpOp::kLt:
            pass = xv < yv;
            break;
          case CmpOp::kLe:
            pass = xv <= yv;
            break;
          case CmpOp::kEq:
            pass = xv == yv;
            break;
          case CmpOp::kNe:
            pass = xv != yv;
            break;
        }
        if (pass) hits.push_back(v);
      });
      EmitHits(&out, key, hits);
      continue;
    }

    ++counters.chunks_word;
    const uint64_t* mask = WordsOf(both, maskbuf);
    uint64_t* acc = accbuf.words();
    if (op == CmpOp::kLt || op == CmpOp::kLe) {
      // Algorithm 1, ascending slices, all in word space. kLe runs the same
      // recurrence with the operands swapped (computing Gt) and complements
      // against the mask at the end.
      const bool swap = op == CmpOp::kLe;
      std::fill_n(acc, kWords, 0);
      for (int i = 0; i < s; ++i) {
        const Container* cx = swap ? yc[i] : xc[i];
        const Container* cy = swap ? xc[i] : yc[i];
        if (cx == nullptr && cy == nullptr) continue;
        ++counters.word_passes;
        if (cx == nullptr) {
          ops.or_pass(acc, WordsOf(*cy, ybuf));  // X^i = 0: L <- Y^i | L
        } else if (cy == nullptr) {
          ops.andnot_pass(acc, WordsOf(*cx, xbuf));  // Y^i = 0: L <- L & ~X^i
        } else {
          ops.lt_pass(acc, WordsOf(*cx, xbuf), WordsOf(*cy, ybuf));
        }
      }
      if (op == CmpOp::kLt) {
        ops.and_pass(acc, mask);
        EmitWords(&out, key, acc);
      } else {
        std::memcpy(resbuf.words(), mask, kWords * sizeof(uint64_t));
        ops.andnot_pass(resbuf.words(), acc);
        EmitWords(&out, key, resbuf.words());
      }
      continue;
    }

    // Algorithm 2/3: peel differing slices off the both-present mask, with
    // a chunk-level early exit the moment eq dies.
    std::memcpy(acc, mask, kWords * sizeof(uint64_t));
    bool alive = true;
    for (int i = 0; i < s && alive; ++i) {
      if (xc[i] == nullptr && yc[i] == nullptr) continue;
      ++counters.word_passes;
      if (xc[i] == nullptr) {
        alive = ops.andnot_pass(acc, WordsOf(*yc[i], ybuf));
      } else if (yc[i] == nullptr) {
        alive = ops.andnot_pass(acc, WordsOf(*xc[i], xbuf));
      } else {
        alive = ops.eq_pass(acc, WordsOf(*xc[i], xbuf), WordsOf(*yc[i], ybuf));
      }
    }
    if (op == CmpOp::kEq) {
      if (alive) EmitWords(&out, key, acc);
    } else {  // kNe = mask & ~eq
      if (!alive) {
        out.AppendContainer(key, std::move(both));
      } else {
        std::memcpy(resbuf.words(), mask, kWords * sizeof(uint64_t));
        ops.andnot_pass(resbuf.words(), acc);
        EmitWords(&out, key, resbuf.words());
      }
    }
  }
  counters.PublishCompare();
  return out;
}

RoaringBitmap ComparePairwise(const Bsi& x, const Bsi& y, CmpOp op) {
  switch (op) {
    case CmpOp::kLt: {
      // Algorithm 1, ascending slices:
      //   L <- [(Y^i OR L) ANDNOT X^i] OR (Y^i AND L)
      const int s = std::max(x.num_slices(), y.num_slices());
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
      RoaringBitmap both =
          RoaringBitmap::And(x.existence(), y.existence());
      both.AndNotInPlace(ComparePairwise(y, x, CmpOp::kLt));
      return both;
    }
    case CmpOp::kEq: {
      // Algorithm 2: start from X's existence, peel off differing slices.
      RoaringBitmap eq = x.existence();
      const int s = std::max(x.num_slices(), y.num_slices());
      for (int i = 0; i < s && !eq.IsEmpty(); ++i) {
        eq.AndNotInPlace(
            RoaringBitmap::Xor(SliceOrEmpty(x, i), SliceOrEmpty(y, i)));
      }
      return eq;
    }
    case CmpOp::kNe: {
      // Algorithm 3: OR of slice XORs, restricted to both-present positions.
      RoaringBitmap ne;
      const int s = std::max(x.num_slices(), y.num_slices());
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

RoaringBitmap RangeWord(const Bsi& x, RangeOp op, uint64_t k) {
  RoaringBitmap out;
  if (x.IsEmpty()) return out;
  if (k == 0) {
    // Zero means absent: every present value is > 0.
    switch (op) {
      case RangeOp::kNe:
      case RangeOp::kGt:
      case RangeOp::kGe:
        return x.existence();
      default:
        return out;
    }
  }
  const int s = x.num_slices();
  if (BitWidth64(k) > s) {
    // k is above every representable value: all present values are < k.
    switch (op) {
      case RangeOp::kLt:
      case RangeOp::kLe:
      case RangeOp::kNe:
        return x.existence();
      default:
        return out;
    }
  }
  const WordOps& ops = ActiveWordOps();
  const bool need_lt = op == RangeOp::kLt || op == RangeOp::kLe;
  const bool need_gt = op == RangeOp::kGt || op == RangeOp::kGe;
  SliceCursor cur(x);
  std::vector<const Container*> sc(s);
  ScratchArena::Lease maskbuf, eqbuf, accbuf, sbuf, resbuf;
  std::vector<uint16_t> hits;
  CompareCounters counters;
  const RoaringBitmap& ex = x.existence();

  for (int c = 0; c < ex.NumContainers(); ++c) {
    const uint16_t key = ex.KeyAt(c);
    const Container& exc = ex.ContainerAt(c);
    for (int i = 0; i < s; ++i) sc[i] = cur.At(i, key);

    if (exc.Cardinality() <= kSparseCompareMax) {
      ++counters.chunks_sparse;
      counters.probes += static_cast<uint64_t>(exc.Cardinality());
      hits.clear();
      exc.ForEach([&](uint16_t v) {
        const uint64_t val = ProbeValue(sc, s, v);
        bool pass = false;
        switch (op) {
          case RangeOp::kEq:
            pass = val == k;
            break;
          case RangeOp::kNe:
            pass = val != k;
            break;
          case RangeOp::kLt:
            pass = val < k;
            break;
          case RangeOp::kLe:
            pass = val <= k;
            break;
          case RangeOp::kGt:
            pass = val > k;
            break;
          case RangeOp::kGe:
            pass = val >= k;
            break;
        }
        if (pass) hits.push_back(v);
      });
      EmitHits(&out, key, hits);
      continue;
    }

    // Top-down three-way partition in word space, tracking only the
    // accumulator the operator needs; early exit the moment eq dies.
    ++counters.chunks_word;
    const uint64_t* mask = WordsOf(exc, maskbuf);
    uint64_t* eq = eqbuf.words();
    std::memcpy(eq, mask, kWords * sizeof(uint64_t));
    uint64_t* acc = accbuf.words();  // lt for kLt/kLe, gt for kGt/kGe
    if (need_lt || need_gt) std::fill_n(acc, kWords, 0);
    const bool alive = PartitionAgainst(
        ops, s, k, need_lt, need_gt,
        [&](int i) {
          return sc[i] != nullptr ? WordsOf(*sc[i], sbuf) : nullptr;
        },
        acc, eq, &counters);
    switch (op) {
      case RangeOp::kLt:
      case RangeOp::kGt:
        EmitWords(&out, key, acc);
        break;
      case RangeOp::kLe:
      case RangeOp::kGe:
        if (alive) ops.or_pass(acc, eq);
        EmitWords(&out, key, acc);
        break;
      case RangeOp::kEq:
        if (alive) EmitWords(&out, key, eq);
        break;
      case RangeOp::kNe:
        if (!alive) {
          out.AppendContainer(key, exc);  // eq died: every position differs
        } else {
          std::memcpy(resbuf.words(), mask, kWords * sizeof(uint64_t));
          ops.andnot_pass(resbuf.words(), eq);
          EmitWords(&out, key, resbuf.words());
        }
        break;
    }
  }
  counters.PublishRange();
  return out;
}

std::vector<RoaringBitmap> RangeLeEach(const Bsi& x, uint64_t k_lo,
                                       uint64_t k_hi) {
  CHECK_GE(k_lo, uint64_t{1});
  CHECK_LE(k_lo, k_hi);
  std::vector<RoaringBitmap> out(k_hi - k_lo + 1);
  if (x.IsEmpty()) return out;
  const int s = x.num_slices();
  const RoaringBitmap& ex = x.existence();
  // Constants at or above 2^s bound every present value (RangeWord's
  // shortcut); only the ones below need a scan.
  uint64_t n = out.size();
  if (s < 64 && k_hi >> s != 0) {
    const uint64_t top = uint64_t{1} << s;
    n = k_lo >= top ? 0 : top - k_lo;
    for (uint64_t j = n; j < out.size(); ++j) out[j] = ex;
  }
  if (n == 0) return out;

  const WordOps& ops = ActiveWordOps();
  SliceCursor cur(x);
  std::vector<const Container*> sc(s);
  std::vector<const uint64_t*> sw(s);
  // Leased on the first dense chunk: one per slice, then mask, eq and lt.
  std::vector<ScratchArena::Lease> bufs;
  std::vector<std::vector<uint16_t>> hits(n);
  CompareCounters counters;

  for (int c = 0; c < ex.NumContainers(); ++c) {
    const uint16_t key = ex.KeyAt(c);
    const Container& exc = ex.ContainerAt(c);
    for (int i = 0; i < s; ++i) sc[i] = cur.At(i, key);

    if (exc.Cardinality() <= kSparseCompareMax) {
      // Probe each position's value once; it passes every constant >= it.
      ++counters.chunks_sparse;
      counters.probes += static_cast<uint64_t>(exc.Cardinality());
      for (std::vector<uint16_t>& h : hits) h.clear();
      exc.ForEach([&](uint16_t v) {
        const uint64_t val = ProbeValue(sc, s, v);
        for (uint64_t j = val > k_lo ? val - k_lo : 0; j < n; ++j) {
          hits[j].push_back(v);
        }
      });
      for (uint64_t j = 0; j < n; ++j) EmitHits(&out[j], key, hits[j]);
      continue;
    }

    // Each slice's word view is built once per chunk; the <= partition
    // then runs once per constant over those views.
    ++counters.chunks_word;
    if (bufs.empty()) bufs.resize(s + 3);
    for (int i = 0; i < s; ++i) {
      sw[i] = sc[i] != nullptr ? WordsOf(*sc[i], bufs[i]) : nullptr;
    }
    const uint64_t* mask = WordsOf(exc, bufs[s]);
    uint64_t* eq = bufs[s + 1].words();
    uint64_t* lt = bufs[s + 2].words();
    const int w_lo = exc.Minimum() >> 6;
    const int w_hi = (exc.Maximum() >> 6) + 1;
    for (uint64_t j = 0; j < n; ++j) {
      const uint64_t k = k_lo + j;
      std::memcpy(eq, mask, kWords * sizeof(uint64_t));
      std::fill_n(lt, kWords, 0);
      if (PartitionAgainst(
              ops, s, k, /*need_lt=*/true, /*need_gt=*/false,
              [&sw](int i) { return sw[i]; }, lt, eq, &counters)) {
        ops.or_pass(lt, eq);
      }
      // lt lies inside the chunk's positions: convert only their words.
      Container le = Container::FromWordsRange(lt, w_lo, w_hi);
      if (!le.IsEmpty()) out[j].AppendContainer(key, std::move(le));
    }
  }
  counters.PublishRange();
  return out;
}

namespace {

// Shared top-down scan for the legacy constant comparisons: partitions the
// present positions of x into {value < k}, {value == k}, {value > k}.
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

RoaringBitmap RangePairwise(const Bsi& x, RangeOp op, uint64_t k) {
  switch (op) {
    case RangeOp::kEq: {
      if (k == 0) return RoaringBitmap();  // zero means absent
      return ScalarCompare(x, k).eq;
    }
    case RangeOp::kNe: {
      if (k == 0) return x.existence();
      RoaringBitmap out = x.existence();
      out.AndNotInPlace(ScalarCompare(x, k).eq);
      return out;
    }
    case RangeOp::kLt: {
      if (k == 0) return RoaringBitmap();
      return ScalarCompare(x, k).lt;
    }
    case RangeOp::kLe: {
      if (k == 0) return RoaringBitmap();
      ScalarCompareResult r = ScalarCompare(x, k);
      r.lt.OrInPlace(r.eq);
      return std::move(r.lt);
    }
    case RangeOp::kGt: {
      if (k == 0) return x.existence();
      return ScalarCompare(x, k).gt;
    }
    case RangeOp::kGe: {
      if (k == 0) return x.existence();
      ScalarCompareResult r = ScalarCompare(x, k);
      r.gt.OrInPlace(r.eq);
      return std::move(r.gt);
    }
  }
  return RoaringBitmap();
}

RoaringBitmap RangeBetweenPairwise(const Bsi& x, uint64_t lo, uint64_t hi) {
  // The legacy double scan: two full ScalarCompare passes plus an AND.
  RoaringBitmap out = RangePairwise(x, RangeOp::kGe, lo);
  out.AndInPlace(RangePairwise(x, RangeOp::kLe, hi));
  return out;
}

RoaringBitmap RangeBetweenWord(const Bsi& x, uint64_t lo, uint64_t hi) {
  RoaringBitmap out;
  if (x.IsEmpty() || hi == 0) return out;
  // Degenerate bounds collapse to a single-sided scan.
  if (lo <= 1) return RangeWord(x, RangeOp::kLe, hi);  // values are >= 1
  const int s = x.num_slices();
  if (BitWidth64(lo) > s) return out;  // no value reaches lo
  if (BitWidth64(hi) > s) return RangeWord(x, RangeOp::kGe, lo);

  const WordOps& ops = ActiveWordOps();
  SliceCursor cur(x);
  std::vector<const Container*> sc(s);
  ScratchArena::Lease maskbuf, eqlobuf, eqhibuf, ltlobuf, gthibuf, sbuf,
      resbuf;
  std::vector<uint16_t> hits;
  CompareCounters counters;
  const RoaringBitmap& ex = x.existence();

  for (int c = 0; c < ex.NumContainers(); ++c) {
    const uint16_t key = ex.KeyAt(c);
    const Container& exc = ex.ContainerAt(c);
    for (int i = 0; i < s; ++i) sc[i] = cur.At(i, key);

    if (exc.Cardinality() <= kSparseCompareMax) {
      ++counters.chunks_sparse;
      counters.probes += static_cast<uint64_t>(exc.Cardinality());
      hits.clear();
      exc.ForEach([&](uint16_t v) {
        const uint64_t val = ProbeValue(sc, s, v);
        if (lo <= val && val <= hi) hits.push_back(v);
      });
      EmitHits(&out, key, hits);
      continue;
    }

    // Single-pass three-way partition against BOTH bounds: track
    // (lt_lo, eq_lo) against lo and (gt_hi, eq_hi) against hi down the same
    // slice walk, then combine as mask & ~lt_lo & ~gt_hi.
    ++counters.chunks_word;
    const uint64_t* mask = WordsOf(exc, maskbuf);
    uint64_t* eq_lo = eqlobuf.words();
    uint64_t* eq_hi = eqhibuf.words();
    uint64_t* lt_lo = ltlobuf.words();
    uint64_t* gt_hi = gthibuf.words();
    std::memcpy(eq_lo, mask, kWords * sizeof(uint64_t));
    std::memcpy(eq_hi, mask, kWords * sizeof(uint64_t));
    std::fill_n(lt_lo, kWords, 0);
    std::fill_n(gt_hi, kWords, 0);
    bool alive_lo = true;
    bool alive_hi = true;
    for (int i = s - 1; i >= 0 && (alive_lo || alive_hi); --i) {
      const uint64_t* sw = sc[i] != nullptr ? WordsOf(*sc[i], sbuf) : nullptr;
      if (alive_lo) {
        if (((lo >> i) & 1) != 0) {
          if (sw == nullptr) {
            ops.or_pass(lt_lo, eq_lo);
            alive_lo = false;
          } else {
            ++counters.word_passes;
            alive_lo = ops.scalar_one_pass(lt_lo, eq_lo, sw);
          }
        } else if (sw != nullptr) {
          ++counters.word_passes;
          alive_lo = ops.andnot_pass(eq_lo, sw);  // gt_lo is never needed
        }
      }
      if (alive_hi) {
        if (((hi >> i) & 1) != 0) {
          if (sw == nullptr) {
            alive_hi = false;  // eq_hi &= 0; gt_hi gains nothing
          } else {
            ++counters.word_passes;
            alive_hi = ops.and_pass(eq_hi, sw);  // lt_hi is never needed
          }
        } else if (sw != nullptr) {
          ++counters.word_passes;
          alive_hi = ops.scalar_zero_pass(gt_hi, eq_hi, sw);
        }
      }
    }
    ops.mask_andnot2_pass(resbuf.words(), mask, lt_lo, gt_hi);
    EmitWords(&out, key, resbuf.words());
  }
  counters.PublishRange();
  return out;
}

}  // namespace bsi_compare
}  // namespace expbsi
