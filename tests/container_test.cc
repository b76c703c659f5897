#include "roaring/container.h"

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/rng.h"

namespace expbsi {
namespace {

Container FromValues(const std::set<uint16_t>& values) {
  std::vector<uint16_t> sorted(values.begin(), values.end());
  return Container::FromSorted(sorted.data(), static_cast<int>(sorted.size()));
}

std::set<uint16_t> ToSet(const Container& c) {
  std::set<uint16_t> out;
  c.ForEach([&out](uint16_t v) { out.insert(v); });
  return out;
}

TEST(ContainerTest, EmptyContainer) {
  Container c;
  EXPECT_TRUE(c.IsEmpty());
  EXPECT_EQ(c.Cardinality(), 0);
  EXPECT_FALSE(c.Contains(0));
  EXPECT_FALSE(c.Contains(65535));
  EXPECT_EQ(c.type(), ContainerType::kArray);
}

TEST(ContainerTest, AddContainsRemove) {
  Container c;
  c.Add(5);
  c.Add(100);
  c.Add(5);  // duplicate
  EXPECT_EQ(c.Cardinality(), 2);
  EXPECT_TRUE(c.Contains(5));
  EXPECT_TRUE(c.Contains(100));
  EXPECT_FALSE(c.Contains(6));
  c.Remove(5);
  EXPECT_FALSE(c.Contains(5));
  EXPECT_EQ(c.Cardinality(), 1);
  c.Remove(5);  // absent removal is a no-op
  EXPECT_EQ(c.Cardinality(), 1);
}

TEST(ContainerTest, ArrayToBitmapPromotion) {
  Container c;
  for (int i = 0; i < Container::kArrayMaxCardinality + 1; ++i) {
    c.Add(static_cast<uint16_t>(i));
  }
  EXPECT_EQ(c.type(), ContainerType::kBitmap);
  EXPECT_EQ(c.Cardinality(), Container::kArrayMaxCardinality + 1);
  for (int i = 0; i <= Container::kArrayMaxCardinality; ++i) {
    EXPECT_TRUE(c.Contains(static_cast<uint16_t>(i)));
  }
}

TEST(ContainerTest, BitmapToArrayDemotionOnRemove) {
  Container c;
  for (int i = 0; i < Container::kArrayMaxCardinality + 1; ++i) {
    c.Add(static_cast<uint16_t>(i));
  }
  ASSERT_EQ(c.type(), ContainerType::kBitmap);
  c.Remove(0);
  EXPECT_EQ(c.type(), ContainerType::kArray);
  EXPECT_EQ(c.Cardinality(), Container::kArrayMaxCardinality);
}

TEST(ContainerTest, AddRangeOnEmptyMakesRun) {
  Container c;
  c.AddRange(10, 1000);
  EXPECT_EQ(c.type(), ContainerType::kRun);
  EXPECT_EQ(c.Cardinality(), 990);
  EXPECT_TRUE(c.Contains(10));
  EXPECT_TRUE(c.Contains(999));
  EXPECT_FALSE(c.Contains(9));
  EXPECT_FALSE(c.Contains(1000));
}

TEST(ContainerTest, AddRangeFullDomain) {
  Container c;
  c.AddRange(0, 65536);
  EXPECT_EQ(c.Cardinality(), 65536);
  EXPECT_TRUE(c.Contains(0));
  EXPECT_TRUE(c.Contains(65535));
}

TEST(ContainerTest, RunOptimizeChoosesRunWhenDense) {
  Container c;
  for (int i = 100; i < 60000; ++i) c.Add(static_cast<uint16_t>(i));
  ASSERT_EQ(c.type(), ContainerType::kBitmap);
  c.RunOptimize();
  EXPECT_EQ(c.type(), ContainerType::kRun);
  EXPECT_EQ(c.Cardinality(), 59900);
  EXPECT_TRUE(c.Contains(100));
  EXPECT_TRUE(c.Contains(59999));
  EXPECT_FALSE(c.Contains(99));
}

TEST(ContainerTest, RunOptimizeKeepsArrayWhenSparse) {
  Container c;
  for (int i = 0; i < 100; ++i) c.Add(static_cast<uint16_t>(i * 601));
  c.RunOptimize();
  EXPECT_EQ(c.type(), ContainerType::kArray);
}

TEST(ContainerTest, RunAddAfterOptimizeConvertsBack) {
  Container c;
  c.AddRange(0, 100);
  ASSERT_EQ(c.type(), ContainerType::kRun);
  c.Add(500);
  EXPECT_TRUE(c.Contains(500));
  EXPECT_TRUE(c.Contains(50));
  EXPECT_EQ(c.Cardinality(), 101);
}

TEST(ContainerTest, RankSelectMinimumMaximum) {
  Container c;
  for (uint16_t v : {5, 10, 20, 300}) c.Add(v);
  EXPECT_EQ(c.Rank(4), 0);
  EXPECT_EQ(c.Rank(5), 1);
  EXPECT_EQ(c.Rank(15), 2);
  EXPECT_EQ(c.Rank(65535), 4);
  EXPECT_EQ(c.Select(0), 5);
  EXPECT_EQ(c.Select(3), 300);
  EXPECT_EQ(c.Minimum(), 5);
  EXPECT_EQ(c.Maximum(), 300);
}

TEST(ContainerTest, EqualsAcrossRepresentations) {
  Container run;
  run.AddRange(0, 5000);
  Container bitmap;
  for (int i = 0; i < 5000; ++i) bitmap.Add(static_cast<uint16_t>(i));
  ASSERT_NE(run.type(), bitmap.type());
  EXPECT_TRUE(run.Equals(bitmap));
  EXPECT_TRUE(bitmap.Equals(run));
  bitmap.Remove(1234);
  EXPECT_FALSE(run.Equals(bitmap));
}

TEST(ContainerTest, SerializeRoundTripAllTypes) {
  std::vector<Container> cases;
  {
    Container array;
    for (uint16_t v : {1, 5, 9, 60000}) array.Add(v);
    cases.push_back(array);
  }
  {
    Container bitmap;
    for (int i = 0; i < 5000; ++i) bitmap.Add(static_cast<uint16_t>(i * 13));
    cases.push_back(bitmap);
  }
  {
    Container run;
    run.AddRange(100, 50000);
    cases.push_back(run);
  }
  for (const Container& original : cases) {
    std::string bytes;
    original.Serialize(&bytes);
    ByteReader reader(bytes);
    Result<Container> parsed = Container::Deserialize(&reader);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed.value().Equals(original));
    EXPECT_TRUE(reader.empty());
  }
}

TEST(ContainerTest, DeserializeRejectsCorruption) {
  Container c;
  c.Add(42);
  std::string bytes;
  c.Serialize(&bytes);
  // Truncated payload.
  ByteReader truncated(std::string_view(bytes).substr(0, bytes.size() - 1));
  EXPECT_FALSE(Container::Deserialize(&truncated).ok());
  // Bad type byte.
  std::string bad_type = bytes;
  bad_type[0] = 7;
  ByteReader bad_type_reader(bad_type);
  EXPECT_FALSE(Container::Deserialize(&bad_type_reader).ok());
}

// ---------------------------------------------------------------------------
// Property tests: every (op, representation pair) against std::set algebra.

enum class Repr { kArray, kBitmap, kRun };

struct OpCase {
  uint64_t seed;
  Repr repr_a;
  Repr repr_b;
};

class ContainerOpTest : public ::testing::TestWithParam<OpCase> {
 protected:
  // Generates a set shaped so FromValues lands on the requested
  // representation, then coerces explicitly where needed.
  static std::pair<Container, std::set<uint16_t>> Make(Rng& rng, Repr repr) {
    std::set<uint16_t> values;
    switch (repr) {
      case Repr::kArray:
        for (int i = 0; i < 600; ++i) {
          values.insert(static_cast<uint16_t>(rng.NextBounded(65536)));
        }
        break;
      case Repr::kBitmap:
        for (int i = 0; i < 9000; ++i) {
          values.insert(static_cast<uint16_t>(rng.NextBounded(30000)));
        }
        break;
      case Repr::kRun: {
        // A few dense runs.
        for (int r = 0; r < 5; ++r) {
          const uint32_t start =
              static_cast<uint32_t>(rng.NextBounded(60000));
          const uint32_t len = 200 + static_cast<uint32_t>(
                                         rng.NextBounded(2000));
          for (uint32_t v = start; v < std::min(start + len, 65536u); ++v) {
            values.insert(static_cast<uint16_t>(v));
          }
        }
        break;
      }
    }
    Container c = FromValues(values);
    if (repr == Repr::kRun) c.RunOptimize();
    return {std::move(c), std::move(values)};
  }
};

TEST_P(ContainerOpTest, MatchesSetAlgebra) {
  const OpCase& param = GetParam();
  Rng rng(param.seed);
  auto [a, set_a] = Make(rng, param.repr_a);
  auto [b, set_b] = Make(rng, param.repr_b);

  std::set<uint16_t> expect_and, expect_or, expect_xor, expect_andnot;
  std::set_intersection(set_a.begin(), set_a.end(), set_b.begin(),
                        set_b.end(),
                        std::inserter(expect_and, expect_and.begin()));
  std::set_union(set_a.begin(), set_a.end(), set_b.begin(), set_b.end(),
                 std::inserter(expect_or, expect_or.begin()));
  std::set_symmetric_difference(
      set_a.begin(), set_a.end(), set_b.begin(), set_b.end(),
      std::inserter(expect_xor, expect_xor.begin()));
  std::set_difference(set_a.begin(), set_a.end(), set_b.begin(), set_b.end(),
                      std::inserter(expect_andnot, expect_andnot.begin()));

  EXPECT_EQ(ToSet(Container::And(a, b)), expect_and);
  EXPECT_EQ(ToSet(Container::Or(a, b)), expect_or);
  EXPECT_EQ(ToSet(Container::Xor(a, b)), expect_xor);
  EXPECT_EQ(ToSet(Container::AndNot(a, b)), expect_andnot);
  EXPECT_EQ(Container::AndCardinality(a, b),
            static_cast<int>(expect_and.size()));
  EXPECT_EQ(Container::Intersects(a, b), !expect_and.empty());

  // Cardinality bookkeeping after ops.
  EXPECT_EQ(Container::And(a, b).Cardinality(),
            static_cast<int>(expect_and.size()));
  EXPECT_EQ(Container::Or(a, b).Cardinality(),
            static_cast<int>(expect_or.size()));
  EXPECT_EQ(Container::Xor(a, b).Cardinality(),
            static_cast<int>(expect_xor.size()));
  EXPECT_EQ(Container::AndNot(a, b).Cardinality(),
            static_cast<int>(expect_andnot.size()));
}

std::vector<OpCase> AllReprPairs() {
  std::vector<OpCase> cases;
  uint64_t seed = 1000;
  for (Repr a : {Repr::kArray, Repr::kBitmap, Repr::kRun}) {
    for (Repr b : {Repr::kArray, Repr::kBitmap, Repr::kRun}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back(OpCase{seed++, a, b});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllRepresentationPairs, ContainerOpTest,
                         ::testing::ValuesIn(AllReprPairs()));

// OrInPlaceWith against Container::Or on copies, across receiver and delta
// shapes: the in-place paths (bitmap receiver of an array delta, backward
// array merge, including deltas above the receiver's maximum) and the
// fallbacks, including unions that land exactly on and just past the 4,096
// array limit.
TEST(ContainerTest, OrInPlaceWithMatchesOrAcrossShapes) {
  auto recount = [](const Container& c) {
    int n = 0;
    c.ForEach([&n](uint16_t) { ++n; });
    return n;
  };
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    // Receivers stay inside [2000, 60000) so every delta has room below
    // and above them.
    auto random_set = [&rng](int count, uint32_t lo, uint32_t hi) {
      std::set<uint16_t> values;
      while (static_cast<int>(values.size()) < count) {
        values.insert(static_cast<uint16_t>(lo + rng.NextBounded(hi - lo)));
      }
      return values;
    };
    std::set<uint16_t> run_values;
    for (uint32_t start : {3000u, 20000u, 41000u}) {
      for (uint32_t v = start; v < start + 1500; ++v) {
        run_values.insert(static_cast<uint16_t>(v));
      }
    }
    const std::vector<std::pair<const char*, std::set<uint16_t>>> receivers =
        {{"array", random_set(1400, 2000, 60000)},
         {"array4090", random_set(4090, 2000, 60000)},
         {"bitmap", random_set(9000, 2000, 30000)},
         {"run", run_values}};
    for (const auto& [receiver_name, receiver_values] : receivers) {
      Container receiver = FromValues(receiver_values);
      if (std::string_view(receiver_name) == "run") receiver.RunOptimize();
      const std::vector<uint16_t> present(receiver_values.begin(),
                                          receiver_values.end());
      auto fresh = [&](int count, uint32_t lo, uint32_t hi) {
        std::set<uint16_t> values;
        while (static_cast<int>(values.size()) < count) {
          const auto v =
              static_cast<uint16_t>(lo + rng.NextBounded(hi - lo));
          if (receiver_values.count(v) == 0) values.insert(v);
        }
        return values;
      };
      auto existing = [&](int count) {
        std::set<uint16_t> values;
        while (static_cast<int>(values.size()) < count) {
          values.insert(present[rng.NextBounded(present.size())]);
        }
        return values;
      };
      auto merged = [](std::set<uint16_t> a, const std::set<uint16_t>& b) {
        a.insert(b.begin(), b.end());
        return a;
      };
      const uint32_t above = static_cast<uint32_t>(present.back()) + 1;
      std::vector<std::pair<std::string, Container>> deltas;
      for (int count : {6, 7, 64}) {
        const std::string n = std::to_string(count);
        deltas.emplace_back("above" + n,
                            FromValues(fresh(count, above, 65536)));
        deltas.emplace_back("below" + n,
                            FromValues(fresh(count, 0, present.front())));
        deltas.emplace_back("interleaved" + n,
                            FromValues(fresh(count, 0, 65536)));
      }
      std::set<uint16_t> from_max = fresh(8, above, 65536);
      from_max.insert(present.back());
      deltas.emplace_back("from_max", FromValues(from_max));
      deltas.emplace_back(
          "some_duplicates",
          FromValues(merged(existing(32), fresh(32, 0, 65536))));
      deltas.emplace_back("all_duplicates", FromValues(existing(64)));
      deltas.emplace_back("bitmap", FromValues(random_set(5000, 0, 65536)));
      Container run_delta;
      run_delta.AddRange(10000, 12000);
      run_delta.AddRange(50000, 50300);
      deltas.emplace_back("run", run_delta);

      for (const auto& [delta_name, delta] : deltas) {
        SCOPED_TRACE(std::string(receiver_name) + " |= " + delta_name +
                     " seed " + std::to_string(seed));
        const Container want = Container::Or(receiver, delta);
        Container got = receiver;
        got.OrInPlaceWith(delta);
        // ToArray, not ToSet: an array left unsorted must fail too.
        EXPECT_EQ(got.ToArray(), want.ToArray());
        EXPECT_EQ(got.Cardinality(), recount(got));
        EXPECT_EQ(got.Cardinality(), want.Cardinality());
        EXPECT_EQ(got.type(), want.type());
        if (got.type() == ContainerType::kArray) {
          EXPECT_LE(got.Cardinality(), Container::kArrayMaxCardinality);
        } else if (got.type() == ContainerType::kBitmap) {
          EXPECT_GT(got.Cardinality(), Container::kArrayMaxCardinality);
        }
      }
    }
  }
}

// Rank/Select consistency on random data across representations.
class ContainerRankSelectTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainerRankSelectTest, RankSelectAgree) {
  Rng rng(GetParam());
  std::set<uint16_t> values;
  const int n = 1 + static_cast<int>(rng.NextBounded(8000));
  for (int i = 0; i < n; ++i) {
    values.insert(static_cast<uint16_t>(rng.NextBounded(65536)));
  }
  Container c = FromValues(values);
  if (GetParam() % 2 == 0) c.RunOptimize();
  std::vector<uint16_t> sorted(values.begin(), values.end());
  for (int i = 0; i < static_cast<int>(sorted.size()); i += 37) {
    EXPECT_EQ(c.Select(i), sorted[i]);
    EXPECT_EQ(c.Rank(sorted[i]), i + 1);
  }
  EXPECT_EQ(c.Minimum(), sorted.front());
  EXPECT_EQ(c.Maximum(), sorted.back());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainerRankSelectTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace expbsi
