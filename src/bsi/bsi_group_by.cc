#include "bsi/bsi_group_by.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/scratch_arena.h"

namespace expbsi {
namespace {

// Word view of a slice that has no container in the chunk.
alignas(64) constexpr uint64_t kZeroWords[Container::kWordsPerBitmap] = {};

// Read-only word views of one chunk's containers: dense containers lend their
// bitmap payload; array and run containers expand into a scratch lease (the
// bsi_compare.cc WordsOf idiom). Leases are taken on demand and reused by the
// next chunk after Reset().
class ChunkWords {
 public:
  void Reset() { used_ = 0; }

  const uint64_t* Of(const Container* c) {
    if (c == nullptr) return kZeroWords;
    if (const uint64_t* words = c->BitmapWords()) return words;
    if (used_ == leases_.size()) leases_.emplace_back();
    return c->WordsInto(leases_[used_++].words());
  }

  // Views slices [first, first + views->size()) of `b` at `key`.
  void Slices(const Bsi& b, int first, uint16_t key,
              std::vector<const uint64_t*>* views) {
    for (size_t i = 0; i < views->size(); ++i) {
      (*views)[i] = Of(b.slice(first + static_cast<int>(i)).FindContainer(key));
    }
  }

 private:
  std::vector<ScratchArena::Lease> leases_;
  size_t used_ = 0;
};

// The integer whose bit i is bit t of word w of views[i].
uint64_t BitsAt(const std::vector<const uint64_t*>& views, int w, int t) {
  uint64_t v = 0;
  for (size_t i = 0; i < views.size(); ++i) {
    v |= ((views[i][w] >> t) & 1) << i;
  }
  return v;
}

// Calls emit(bucket_id, position, value) in ascending position order for
// every position of `universe` whose stored bucket_id + 1 lies in
// [1, num_buckets] and, when `value` is non-null, that `value` holds (value 0
// in count mode). One pass per 2^16 chunk: each set bit of
// mask & bucket existence (& value existence) reads its bucket id and value
// from the slice words at that position. CHECK-fails where a grouped
// position's value has a bit at 2^64 or above.
template <typename Emit>
void ScatterByBucket(const Bsi& bucket_plus_one, int num_buckets,
                     const RoaringBitmap& universe, const Bsi* value,
                     Emit&& emit) {
  // Stored ids above num_buckets with a bit at or above id_slices are
  // dropped by the high-slice test; the rest by the range test.
  const int id_slices = BitWidth64(static_cast<uint64_t>(num_buckets));
  const int bucket_slices = bucket_plus_one.num_slices();
  const int value_slices = value == nullptr ? 0 : value->num_slices();
  std::vector<const uint64_t*> id_words(std::min(id_slices, bucket_slices));
  std::vector<const uint64_t*> high_id_words(
      std::max(bucket_slices - id_slices, 0));
  std::vector<const uint64_t*> value_words(std::min(value_slices, 64));
  std::vector<const uint64_t*> high_value_words(
      std::max(value_slices - 64, 0));
  ChunkWords views;
  for (int m = 0; m < universe.NumContainers(); ++m) {
    const uint16_t key = universe.KeyAt(m);
    const Container* bucketed = bucket_plus_one.existence().FindContainer(key);
    if (bucketed == nullptr) continue;
    const Container* valued = nullptr;
    if (value != nullptr) {
      valued = value->existence().FindContainer(key);
      if (valued == nullptr) continue;
    }
    const Container& mc = universe.ContainerAt(m);
    views.Reset();
    const uint64_t* mask = views.Of(&mc);
    const uint64_t* present = views.Of(bucketed);
    const uint64_t* has_value = value != nullptr ? views.Of(valued) : nullptr;
    views.Slices(bucket_plus_one, 0, key, &id_words);
    views.Slices(bucket_plus_one, id_slices, key, &high_id_words);
    if (value != nullptr) {
      views.Slices(*value, 0, key, &value_words);
      views.Slices(*value, 64, key, &high_value_words);
    }
    const uint32_t base = uint32_t{key} << 16;
    const int w_hi = (mc.Maximum() >> 6) + 1;
    for (int w = mc.Minimum() >> 6; w < w_hi; ++w) {
      uint64_t bits = mask[w] & present[w];
      if (has_value != nullptr) bits &= has_value[w];
      for (const uint64_t* h : high_id_words) bits &= ~h[w];
      while (bits != 0) {
        const int t = CountTrailingZeros64(bits);
        bits &= bits - 1;
        const uint64_t bucket_id = BitsAt(id_words, w, t) - 1;
        if (bucket_id >= static_cast<uint64_t>(num_buckets)) continue;
        for (const uint64_t* h : high_value_words) {
          CHECK_EQ((h[w] >> t) & 1, 0u);
        }
        emit(static_cast<int>(bucket_id),
             base | static_cast<uint32_t>((w << 6) | t),
             BitsAt(value_words, w, t));
      }
    }
  }
}

}  // namespace

void PartitionByBucket(
    const Bsi& bucket_plus_one, int num_buckets, const RoaringBitmap& universe,
    const std::function<void(int, const RoaringBitmap&)>& visit) {
  CHECK_GT(num_buckets, 0);
  std::vector<std::vector<uint32_t>> members(num_buckets);
  ScatterByBucket(bucket_plus_one, num_buckets, universe, nullptr,
                  [&members](int bucket_id, uint32_t pos, uint64_t) {
                    members[bucket_id].push_back(pos);
                  });
  for (int b = 0; b < num_buckets; ++b) {
    if (!members[b].empty()) visit(b, RoaringBitmap::FromSorted(members[b]));
  }
}

std::vector<uint64_t> GroupSumByBucket(const Bsi& value,
                                       const Bsi& bucket_plus_one,
                                       int num_buckets,
                                       const RoaringBitmap& universe) {
  CHECK_GT(num_buckets, 0);
  std::vector<uint64_t> sums(num_buckets, 0);
  ScatterByBucket(bucket_plus_one, num_buckets, universe, &value,
                  [&sums](int bucket_id, uint32_t, uint64_t v) {
                    // Bsi::SumUnderMask's contract, per bucket: an exact
                    // total above 2^64 - 1 is a CHECK failure.
                    CHECK(!__builtin_add_overflow(sums[bucket_id], v,
                                                  &sums[bucket_id]));
                  });
  return sums;
}

std::vector<uint64_t> GroupCountByBucket(const Bsi& bucket_plus_one,
                                         int num_buckets,
                                         const RoaringBitmap& universe) {
  CHECK_GT(num_buckets, 0);
  std::vector<uint64_t> counts(num_buckets, 0);
  ScatterByBucket(bucket_plus_one, num_buckets, universe, nullptr,
                  [&counts](int bucket_id, uint32_t, uint64_t) {
                    ++counts[bucket_id];
                  });
  return counts;
}

}  // namespace expbsi
