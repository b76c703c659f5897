#include "bsi/bsi_group_by.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace expbsi {
namespace {

using testing_util::ToPairVector;

struct GroupCase {
  uint64_t seed;
  int num_buckets;
  int num_positions;
};

class BsiGroupByTest : public ::testing::TestWithParam<GroupCase> {};

TEST_P(BsiGroupByTest, SumsAndCountsMatchNaive) {
  const GroupCase& param = GetParam();
  Rng rng(param.seed);
  // Every position gets a bucket; a subset gets a value; the universe is a
  // random subset of positions (the "exposed" mask of a scorecard).
  std::map<uint32_t, uint64_t> bucket_of;
  std::map<uint32_t, uint64_t> value_of;
  RoaringBitmap universe;
  for (int i = 0; i < param.num_positions; ++i) {
    const uint32_t pos = static_cast<uint32_t>(rng.NextBounded(1u << 20));
    bucket_of[pos] = rng.NextBounded(param.num_buckets);
    if (rng.NextBernoulli(0.6)) value_of[pos] = 1 + rng.NextBounded(1000);
    if (rng.NextBernoulli(0.7)) universe.Add(pos);
  }
  std::vector<std::pair<uint32_t, uint64_t>> bucket_pairs;
  for (const auto& [pos, b] : bucket_of) bucket_pairs.emplace_back(pos, b + 1);
  Bsi bucket = Bsi::FromPairs(bucket_pairs);
  Bsi value = Bsi::FromPairs(ToPairVector(value_of));

  std::vector<uint64_t> expect_sums(param.num_buckets, 0);
  std::vector<uint64_t> expect_counts(param.num_buckets, 0);
  for (const auto& [pos, b] : bucket_of) {
    if (!universe.Contains(pos)) continue;
    ++expect_counts[b];
    auto it = value_of.find(pos);
    if (it != value_of.end()) expect_sums[b] += it->second;
  }

  EXPECT_EQ(GroupSumByBucket(value, bucket, param.num_buckets, universe),
            expect_sums);
  EXPECT_EQ(GroupCountByBucket(bucket, param.num_buckets, universe),
            expect_counts);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BsiGroupByTest,
    ::testing::Values(GroupCase{71, 4, 2000},     // few buckets
                      GroupCase{72, 1024, 20000}, // the paper's bucket count
                      GroupCase{73, 1000, 20000}, // non-power-of-two
                      GroupCase{74, 1, 500},      // single bucket
                      GroupCase{75, 1024, 100})); // buckets >> positions

TEST(BsiGroupByTest, PartitionVisitsDisjointMasks) {
  Rng rng(76);
  std::vector<std::pair<uint32_t, uint64_t>> bucket_pairs;
  for (uint32_t pos = 0; pos < 5000; ++pos) {
    bucket_pairs.emplace_back(pos, 1 + rng.NextBounded(16));
  }
  Bsi bucket = Bsi::FromPairs(bucket_pairs);
  RoaringBitmap universe;
  universe.AddRange(0, 5000);
  RoaringBitmap seen;
  uint64_t total = 0;
  PartitionByBucket(bucket, 16, universe,
                    [&seen, &total](int bucket_id, const RoaringBitmap& mask) {
                      EXPECT_GE(bucket_id, 0);
                      EXPECT_LT(bucket_id, 16);
                      EXPECT_FALSE(RoaringBitmap::Intersects(seen, mask));
                      seen.OrInPlace(mask);
                      total += mask.Cardinality();
                    });
  EXPECT_EQ(total, 5000u);
}

TEST(BsiGroupByTest, UniverseOutsideBucketAssignmentIsIgnored) {
  Bsi bucket = Bsi::FromPairs({{1, 1}, {2, 2}});  // buckets 0 and 1
  Bsi value = Bsi::FromPairs({{1, 10}, {2, 20}, {3, 30}});
  RoaringBitmap universe;
  universe.AddRange(0, 10);  // includes position 3, which has no bucket
  const std::vector<uint64_t> sums =
      GroupSumByBucket(value, bucket, 2, universe);
  EXPECT_EQ(sums, (std::vector<uint64_t>{10, 20}));
}

// The three group-bys against a naive scan of (position -> stored bucket
// id + 1) and (position -> value) maps. Stored ids outside [1, num_buckets]
// group nowhere.
void ExpectGroupByMatchesNaive(const Bsi& bucket, const Bsi& value,
                               const std::map<uint32_t, uint64_t>& stored_of,
                               const std::map<uint32_t, uint64_t>& value_of,
                               const RoaringBitmap& universe, int num_buckets,
                               const std::string& ctx) {
  std::vector<uint64_t> sums(num_buckets, 0);
  std::vector<uint64_t> counts(num_buckets, 0);
  std::vector<std::vector<uint32_t>> members(num_buckets);
  for (const auto& [pos, stored] : stored_of) {
    if (!universe.Contains(pos)) continue;
    if (stored < 1 || stored > static_cast<uint64_t>(num_buckets)) continue;
    const uint64_t b = stored - 1;
    ++counts[b];
    members[b].push_back(pos);
    auto it = value_of.find(pos);
    if (it != value_of.end()) sums[b] += it->second;
  }
  EXPECT_EQ(GroupSumByBucket(value, bucket, num_buckets, universe), sums)
      << ctx;
  EXPECT_EQ(GroupCountByBucket(bucket, num_buckets, universe), counts) << ctx;

  std::vector<int> visited;
  std::vector<std::vector<uint32_t>> got(num_buckets);
  PartitionByBucket(bucket, num_buckets, universe,
                    [&](int bucket_id, const RoaringBitmap& mask) {
                      visited.push_back(bucket_id);
                      got[bucket_id] = mask.ToVector();
                    });
  std::vector<int> want_visited;
  for (int b = 0; b < num_buckets; ++b) {
    if (!members[b].empty()) want_visited.push_back(b);
  }
  EXPECT_EQ(visited, want_visited) << ctx << " (ascending, non-empty only)";
  EXPECT_EQ(got, members) << ctx;
}

TEST(BsiGroupByTest, OutOfRangeBucketIdsAreDropped) {
  // Stored 9 is bucket 8 of 4: dropped, not aliased into bucket 0 by its
  // low bits (9 = 0b1001).
  const std::map<uint32_t, uint64_t> stored_of = {{1, 1}, {2, 9}};
  const std::map<uint32_t, uint64_t> value_of = {{1, 10}, {2, 20}};
  const Bsi bucket = Bsi::FromPairs(ToPairVector(stored_of));
  const Bsi value = Bsi::FromPairs(ToPairVector(value_of));
  RoaringBitmap universe;
  universe.AddRange(0, 10);
  EXPECT_EQ(GroupSumByBucket(value, bucket, 4, universe),
            (std::vector<uint64_t>{10, 0, 0, 0}));
  EXPECT_EQ(GroupCountByBucket(bucket, 4, universe),
            (std::vector<uint64_t>{1, 0, 0, 0}));
  std::vector<std::pair<int, std::vector<uint32_t>>> visits;
  PartitionByBucket(bucket, 4, universe,
                    [&visits](int bucket_id, const RoaringBitmap& mask) {
                      visits.emplace_back(bucket_id, mask.ToVector());
                    });
  EXPECT_EQ(visits, (std::vector<std::pair<int, std::vector<uint32_t>>>{
                        {0, {1}}}));
}

TEST(BsiGroupByTest, EdgeShapesMatchNaive) {
  // Non-power-of-two bucket count: 5 is in range; 6 and 7 share its bit
  // width, 8 and 1 << 40 reach past it.
  const std::map<uint32_t, uint64_t> stored_of = {
      {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, uint64_t{1} << 40}, {5, 1}, {6, 3}};
  const std::map<uint32_t, uint64_t> value_of = {
      {0, 7}, {1, 11}, {2, 13}, {3, 17}, {4, 19}, {5, 23}, {7, 29}};
  const Bsi bucket = Bsi::FromPairs(ToPairVector(stored_of));
  const Bsi value = Bsi::FromPairs(ToPairVector(value_of));
  RoaringBitmap all;
  all.AddRange(0, 8);
  for (const int buckets : {1, 2, 3, 5, 7, 8, 1023, 1024}) {
    ExpectGroupByMatchesNaive(bucket, value, stored_of, value_of, all, buckets,
                              "buckets=" + std::to_string(buckets));
  }
  // Empty mask, and a mask disjoint from the bucket column.
  ExpectGroupByMatchesNaive(bucket, value, stored_of, value_of,
                            RoaringBitmap(), 5, "empty mask");
  RoaringBitmap elsewhere;
  elsewhere.AddRange(1u << 20, (1u << 20) + 100);
  ExpectGroupByMatchesNaive(bucket, value, stored_of, value_of, elsewhere, 5,
                            "disjoint mask");
  // An empty value BSI sums to zero but still counts.
  ExpectGroupByMatchesNaive(bucket, Bsi(), stored_of, {}, all, 5,
                            "empty value");
}

TEST(BsiGroupByTest, ValuesNearTwoToTheSixtyThreeSumExactly) {
  const uint64_t top = uint64_t{1} << 63;
  // Bucket 0 totals exactly 2^64 - 1, the largest sum that does not
  // overflow; bucket 1 holds one 64-slice value.
  const std::map<uint32_t, uint64_t> stored_of = {
      {10, 1}, {70000, 1}, {200000, 2}, {200001, 2}};
  const std::map<uint32_t, uint64_t> value_of = {
      {10, top - 1}, {70000, top}, {200000, top + 12345}, {200001, 1}};
  const Bsi bucket = Bsi::FromPairs(ToPairVector(stored_of));
  const Bsi value = Bsi::FromPairs(ToPairVector(value_of));
  ASSERT_EQ(value.num_slices(), 64);
  RoaringBitmap universe;
  for (const auto& [pos, v] : stored_of) universe.Add(pos);
  ExpectGroupByMatchesNaive(bucket, value, stored_of, value_of, universe, 2,
                            "near 2^63");
  EXPECT_EQ(GroupSumByBucket(value, bucket, 2, universe)[0], ~uint64_t{0});
}

TEST(BsiGroupByDeathTest, PerBucketOverflowChecks) {
  const uint64_t top = uint64_t{1} << 63;
  const Bsi bucket = Bsi::FromPairs({{1, 1}, {2, 1}, {3, 2}});
  const Bsi value = Bsi::FromPairs({{1, top}, {2, top}, {3, 1}});
  RoaringBitmap universe;
  universe.AddRange(0, 4);
  // 2^63 + 2^63 = 2^64 in bucket 0.
  EXPECT_DEATH(GroupSumByBucket(value, bucket, 2, universe), "CHECK failed");
  // The same values in different buckets do not overflow.
  const Bsi spread = Bsi::FromPairs({{1, 1}, {2, 2}, {3, 2}});
  EXPECT_EQ(GroupSumByBucket(value, spread, 2, universe),
            (std::vector<uint64_t>{top, top + 1}));

  // A value with a bit at 2^64 (only arithmetic overflow builds one) fails
  // where it is grouped, as Bsi::SumUnderMask does, and is ignored where its
  // bucket id is out of range.
  std::vector<RoaringBitmap> slices(65);
  slices[0].Add(1);
  slices[64].Add(2);
  RoaringBitmap present;
  present.Add(1);
  present.Add(2);
  const Bsi wide = Bsi::FromSlices(std::move(slices), present);
  ASSERT_EQ(wide.num_slices(), 65);
  const Bsi grouped = Bsi::FromPairs({{1, 1}, {2, 2}});
  EXPECT_DEATH(GroupSumByBucket(wide, grouped, 2, universe), "CHECK failed");
  const Bsi dropped = Bsi::FromPairs({{1, 1}, {2, 3}});
  EXPECT_EQ(GroupSumByBucket(wide, dropped, 2, universe),
            (std::vector<uint64_t>{1, 0}));
}

constexpr uint32_t kRunLength = 1000;

// Positions of chunk `key` whose containers take `shape`: 2,000 scattered
// positions below 2^14 (array), about every other position (bitmap), or 8
// runs of kRunLength (run, once run-optimized).
std::vector<uint32_t> ChunkPositions(ContainerType shape, uint32_t key,
                                     Rng& rng) {
  const uint32_t base = key << 16;
  std::vector<uint32_t> out;
  switch (shape) {
    case ContainerType::kArray:
      for (const uint32_t low : testing_util::RandomSet(rng, 2000, 1u << 14)) {
        out.push_back(base + low);
      }
      break;
    case ContainerType::kBitmap:
      for (uint32_t low = 0; low < (1u << 16); ++low) {
        if (rng.NextBernoulli(0.5)) out.push_back(base + low);
      }
      break;
    case ContainerType::kRun:
      for (uint32_t r = 0; r < 8; ++r) {
        const uint32_t start =
            r * 8000 + static_cast<uint32_t>(rng.NextBounded(4000));
        for (uint32_t low = start; low < start + kRunLength; ++low) {
          out.push_back(base + low);
        }
      }
      break;
  }
  return out;
}

// A column over chunks `keys` in `shape`, one draw(rng) per position, or
// per run in the run shape so that every slice is a union of whole runs.
// Columns of one shape share their positions in a chunk (the layout is
// seeded by the key), as a bucket column and a metric do.
template <typename Draw>
std::map<uint32_t, uint64_t> ShapedColumn(ContainerType shape,
                                          const std::vector<uint32_t>& keys,
                                          Rng& rng, Draw draw) {
  std::map<uint32_t, uint64_t> out;
  for (const uint32_t key : keys) {
    Rng layout(0xC0FFEE + key);
    const std::vector<uint32_t> positions = ChunkPositions(shape, key, layout);
    uint64_t v = 0;
    for (size_t i = 0; i < positions.size(); ++i) {
      if (shape != ContainerType::kRun || i % kRunLength == 0) v = draw(rng);
      out[positions[i]] = v;
    }
  }
  return out;
}

struct ShapeCase {
  ContainerType mask;
  ContainerType columns;  // bucket column and value BSI
};

class BsiGroupByShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(BsiGroupByShapeTest, ContainerShapesAcrossChunksMatchNaive) {
  const ShapeCase& param = GetParam();
  constexpr int kBuckets = 1000;
  Rng rng(0x6B0C + 3 * static_cast<uint64_t>(param.mask) +
          static_cast<uint64_t>(param.columns));
  // Chunk 0 and 6 hold all three; chunk 1 has no values, chunk 2 no bucket
  // ids, chunk 3 only the mask, and chunk 4 everything but the mask.
  const std::map<uint32_t, uint64_t> stored_of = ShapedColumn(
      param.columns, {0, 1, 4, 6}, rng, [](Rng& r) -> uint64_t {
        // One id in 20 is out of range, some far past the bucket bit width.
        if (r.NextBernoulli(0.05)) {
          return kBuckets + 1 + r.NextBounded(uint64_t{1} << 20);
        }
        return 1 + r.NextBounded(kBuckets);
      });
  // One draw in 10 is 0, i.e. absent from the value BSI.
  const std::map<uint32_t, uint64_t> value_of = ShapedColumn(
      param.columns, {0, 2, 4, 6}, rng, [](Rng& r) -> uint64_t {
        return r.NextBernoulli(0.1) ? 0 : 1 + r.NextBounded(uint64_t{1} << 20);
      });
  RoaringBitmap universe;
  for (const uint32_t key : {0u, 1u, 2u, 3u, 6u}) {
    for (const uint32_t pos : ChunkPositions(param.mask, key, rng)) {
      universe.Add(pos);
    }
  }
  Bsi bucket = Bsi::FromPairs(ToPairVector(stored_of));
  Bsi value = Bsi::FromPairs(ToPairVector(value_of));
  if (param.mask == ContainerType::kRun) universe.RunOptimize();
  if (param.columns == ContainerType::kRun) {
    bucket.RunOptimize();
    value.RunOptimize();
  }
  // The shapes under test are the ones the kernel sees.
  ASSERT_EQ(universe.FindContainer(0)->type(), param.mask);
  ASSERT_EQ(bucket.slice(0).FindContainer(0)->type(), param.columns);
  ASSERT_EQ(value.slice(0).FindContainer(0)->type(), param.columns);
  ASSERT_GT(RoaringBitmap::AndCardinality(
                universe,
                RoaringBitmap::And(bucket.existence(), value.existence())),
            100u);

  ExpectGroupByMatchesNaive(bucket, value, stored_of, value_of, universe,
                            kBuckets, "shapes");
}

INSTANTIATE_TEST_SUITE_P(
    MaskByColumn, BsiGroupByShapeTest,
    ::testing::Values(ShapeCase{ContainerType::kArray, ContainerType::kArray},
                      ShapeCase{ContainerType::kArray, ContainerType::kBitmap},
                      ShapeCase{ContainerType::kArray, ContainerType::kRun},
                      ShapeCase{ContainerType::kBitmap, ContainerType::kArray},
                      ShapeCase{ContainerType::kBitmap, ContainerType::kBitmap},
                      ShapeCase{ContainerType::kBitmap, ContainerType::kRun},
                      ShapeCase{ContainerType::kRun, ContainerType::kArray},
                      ShapeCase{ContainerType::kRun, ContainerType::kBitmap},
                      ShapeCase{ContainerType::kRun, ContainerType::kRun}));

}  // namespace
}  // namespace expbsi
