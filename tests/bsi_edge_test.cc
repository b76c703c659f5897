// Edge-case coverage for the in-BSI aggregates, paired with the scalar
// oracle (RefColumn) so each behavior is pinned down by two independent
// implementations: empty input, a single position, all-equal values, values
// at the 64-bit slice boundary, the documented abort-on-overflow contract
// of Sum / SumUnderMask, and SumUnderMask's scratch-buffer hygiene.

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "obs/metrics.h"
#include "reference/ref_column.h"
#include "roaring/roaring_bitmap.h"

namespace expbsi {
namespace {

using Pairs = std::vector<std::pair<uint32_t, uint64_t>>;

TEST(BsiEdgeTest, EmptyBsiAggregates) {
  const Bsi empty;
  const RefColumn ref;
  EXPECT_EQ(empty.Cardinality(), 0u);
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_EQ(empty.Sum(), 0u);
  EXPECT_EQ(ref.Sum(), 0u);
  EXPECT_EQ(empty.Average(), 0.0);
  EXPECT_EQ(ref.Average(), 0.0);
  EXPECT_EQ(empty.SumUnderMask(RoaringBitmap::FromSorted({1, 2, 3})), 0u);
  EXPECT_TRUE(empty.RangeGe(0).IsEmpty());
  EXPECT_TRUE(empty.RangeLe(~uint64_t{0}).IsEmpty());
}

TEST(BsiEdgeTest, EmptyBsiOrderStatisticsAbort) {
  // Min / Max / Quantile have no meaningful value on an empty index; both
  // implementations CHECK-fail rather than invent one.
  const Bsi empty;
  const RefColumn ref;
  EXPECT_DEATH(empty.MinValue(), "CHECK failed");
  EXPECT_DEATH(empty.MaxValue(), "CHECK failed");
  EXPECT_DEATH(empty.Median(), "CHECK failed");
  EXPECT_DEATH(ref.MinValue(), "CHECK failed");
  EXPECT_DEATH(ref.MaxValue(), "CHECK failed");
  EXPECT_DEATH(ref.Median(), "CHECK failed");
}

TEST(BsiEdgeTest, SinglePositionAggregates) {
  const Pairs pairs = {{12345, 42}};
  const Bsi bsi = Bsi::FromPairs(pairs);
  EXPECT_EQ(bsi.Cardinality(), 1u);
  EXPECT_EQ(bsi.Sum(), 42u);
  EXPECT_EQ(bsi.MinValue(), 42u);
  EXPECT_EQ(bsi.MaxValue(), 42u);
  // Every quantile of a one-element multiset is that element.
  for (const double q : {0.0, 0.001, 0.5, 0.999, 1.0}) {
    EXPECT_EQ(bsi.Quantile(q), 42u) << "q=" << q;
  }
  EXPECT_EQ(bsi.SumUnderMask(RoaringBitmap::FromSorted({12345})), 42u);
  EXPECT_EQ(bsi.SumUnderMask(RoaringBitmap::FromSorted({12344})), 0u);
}

TEST(BsiEdgeTest, AllEqualValues) {
  Pairs pairs;
  for (uint32_t pos = 100; pos < 600; ++pos) pairs.push_back({pos, 7});
  const Bsi bsi = Bsi::FromPairs(pairs);
  EXPECT_EQ(bsi.Sum(), 7u * 500u);
  EXPECT_EQ(bsi.MinValue(), 7u);
  EXPECT_EQ(bsi.MaxValue(), 7u);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(bsi.Quantile(q), 7u) << "q=" << q;
  }
  EXPECT_EQ(bsi.RangeEq(7).Cardinality(), 500u);
  EXPECT_TRUE(bsi.RangeNe(7).IsEmpty());
  EXPECT_TRUE(bsi.RangeLt(7).IsEmpty());
  EXPECT_TRUE(bsi.RangeGt(7).IsEmpty());
}

TEST(BsiEdgeTest, SixtyFourBitSliceBoundary) {
  // Values straddling the top slice: 2^63 - 1 (63 low slices), 2^63 (slice
  // 64 alone), 2^64 - 1 (all 64 slices). Round-trip, aggregates and range
  // searches must all be exact, and the oracle must agree.
  const uint64_t kBelow = (uint64_t{1} << 63) - 1;
  const uint64_t kBit63 = uint64_t{1} << 63;
  const uint64_t kMax = ~uint64_t{0};
  const Pairs pairs = {{10, kBelow}, {20, kBit63}, {30, kMax}};
  const Bsi bsi = Bsi::FromPairs(pairs);
  const RefColumn ref = RefColumn::FromPairs(pairs);

  EXPECT_EQ(bsi.num_slices(), 64);
  EXPECT_EQ(bsi.Get(10), kBelow);
  EXPECT_EQ(bsi.Get(20), kBit63);
  EXPECT_EQ(bsi.Get(30), kMax);
  EXPECT_EQ(bsi.ToPairs(), pairs);

  EXPECT_EQ(bsi.MinValue(), kBelow);
  EXPECT_EQ(bsi.MaxValue(), kMax);
  EXPECT_EQ(bsi.Quantile(0.5), kBit63);
  EXPECT_EQ(ref.MinValue(), kBelow);
  EXPECT_EQ(ref.MaxValue(), kMax);
  EXPECT_EQ(ref.Quantile(0.5), kBit63);

  EXPECT_EQ(bsi.RangeGe(kBit63).ToVector(),
            (std::vector<uint32_t>{20, 30}));
  EXPECT_EQ(bsi.RangeEq(kMax).ToVector(), (std::vector<uint32_t>{30}));
  EXPECT_EQ(bsi.RangeLt(kBit63).ToVector(), (std::vector<uint32_t>{10}));
  EXPECT_EQ(bsi.RangeBetween(kBelow, kBit63).ToVector(),
            (std::vector<uint32_t>{10, 20}));

  // A single max-value position sums fine (the accumulator is 128-bit).
  EXPECT_EQ(Bsi::FromPairs({{0, kMax}}).Sum(), kMax);
  EXPECT_EQ(RefColumn::FromPairs({{0, kMax}}).Sum(), kMax);
}

TEST(BsiEdgeTest, SumOverflowAborts) {
  // Sum / SumUnderMask promise an exact uint64 result; when the true total
  // exceeds 2^64 - 1 they CHECK-fail instead of silently wrapping. Two
  // positions of 2^63 are the smallest such total.
  const Pairs pairs = {{1, uint64_t{1} << 63}, {2, uint64_t{1} << 63}};
  const Bsi bsi = Bsi::FromPairs(pairs);
  const RefColumn ref = RefColumn::FromPairs(pairs);
  EXPECT_DEATH(bsi.Sum(), "CHECK failed");
  EXPECT_DEATH(ref.Sum(), "CHECK failed");
  const RoaringBitmap both = RoaringBitmap::FromSorted({1, 2});
  EXPECT_DEATH(bsi.SumUnderMask(both), "CHECK failed");
  // Under a mask covering one position the total fits: no abort.
  EXPECT_EQ(bsi.SumUnderMask(RoaringBitmap::FromSorted({1})),
            uint64_t{1} << 63);
  // One position below the boundary keeps the total representable.
  const Bsi fits =
      Bsi::FromPairs({{1, uint64_t{1} << 63}, {2, (uint64_t{1} << 63) - 1}});
  EXPECT_EQ(fits.Sum(), ~uint64_t{0});
}

TEST(BsiEdgeTest, SumUnderMaskAboveSixtyFourSlices) {
  // Arithmetic can grow a BSI past 64 slices. Such a slice only matters to
  // a masked sum when the mask reaches it, and then the total overflows.
  const Bsi wide = Bsi::ShiftLeft(Bsi::FromPairs({{3, 1}, {8, 5}}), 70);
  ASSERT_EQ(wide.num_slices(), 73);
  EXPECT_EQ(wide.SumUnderMask(RoaringBitmap::FromSorted({1, 2, 9})), 0u);
  EXPECT_DEATH(wide.SumUnderMask(RoaringBitmap::FromSorted({8})),
               "CHECK failed");
}

#if !defined(EXPBSI_NO_METRICS)
TEST(BsiEdgeTest, SumUnderMaskScratchFreedOnThreadExit) {
  // The masked sum bit-tests array slices against the mask's words, which
  // an array mask sets into a leased scratch buffer. Serving runs one
  // handler thread per connection, so a buffer that outlived its thread
  // would leak 8 KiB per connection: every thread's pool must be returned
  // when the thread exits.
  const Bsi bsi = Bsi::FromPairs({{1, 5}, {9, 3}, {40, 6}, {70, 1}});
  const RoaringBitmap mask = RoaringBitmap::FromSorted({1, 9, 50, 70});
  ASSERT_EQ(bsi.slice(0).ContainerAt(0).type(), ContainerType::kArray);
  ASSERT_EQ(mask.ContainerAt(0).type(), ContainerType::kArray);
  const obs::Gauge& pooled = obs::GetGauge("arena.pooled_bytes");
  const obs::Counter& leases = obs::GetCounter("arena.leases");
  const double pooled_before = pooled.Value();
  const uint64_t leases_before = leases.Value();
  constexpr int kThreads = 256;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    std::thread([&] {
      if (bsi.SumUnderMask(mask) != 5 + 3 + 1) wrong.fetch_add(1);
    }).join();
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(leases.Value() - leases_before, uint64_t{kThreads});
  EXPECT_EQ(pooled.Value(), pooled_before);
}
#endif  // !EXPBSI_NO_METRICS

}  // namespace
}  // namespace expbsi
