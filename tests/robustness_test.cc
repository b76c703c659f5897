// Failure-injection and fuzz-style robustness tests: corrupt bytes must
// surface as Corruption Status values (never crashes or silent garbage),
// and random query strings must produce InvalidArgument (never crashes).

#include <string>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "common/rng.h"
#include "engine/experiment_data.h"
#include "expdata/bsi_builder.h"
#include "expdata/generator.h"
#include "query/parser.h"
#include "roaring/roaring_bitmap.h"
#include "storage/block_compressor.h"
#include "tests/test_util.h"

namespace expbsi {
namespace {

// Applies `n` random single-byte mutations to a copy of `bytes`.
std::string Mutate(Rng& rng, const std::string& bytes, int n) {
  std::string out = bytes;
  for (int i = 0; i < n && !out.empty(); ++i) {
    out[rng.NextBounded(out.size())] =
        static_cast<char>(rng.NextBounded(256));
  }
  return out;
}

class SerializationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializationFuzzTest, RoaringDeserializeNeverCrashes) {
  Rng rng(GetParam());
  RoaringBitmap bm;
  for (int i = 0; i < 5000; ++i) {
    bm.Add(static_cast<uint32_t>(rng.NextBounded(1u << 24)));
  }
  bm.AddRange(1u << 20, (1u << 20) + 10000);
  bm.RunOptimize();
  const std::string bytes = bm.SerializeToString();
  for (int round = 0; round < 50; ++round) {
    // Mutations: bit flips, truncations, or both.
    std::string mutated = Mutate(rng, bytes, 1 + rng.NextBounded(8));
    if (rng.NextBernoulli(0.3)) {
      mutated = mutated.substr(0, rng.NextBounded(mutated.size() + 1));
    }
    Result<RoaringBitmap> parsed = RoaringBitmap::Deserialize(mutated);
    if (parsed.ok()) {
      // If it parsed, the object must at least be internally consistent.
      parsed.value().Cardinality();
      parsed.value().ToVector();
    }
  }
}

TEST_P(SerializationFuzzTest, BsiDeserializeNeverCrashes) {
  Rng rng(GetParam() + 1000);
  Bsi bsi = Bsi::FromPairs(testing_util::ToPairVector(
      testing_util::RandomValueMap(rng, 3000, 100000, 1u << 18)));
  const std::string bytes = bsi.SerializeToString();
  for (int round = 0; round < 50; ++round) {
    std::string mutated = Mutate(rng, bytes, 1 + rng.NextBounded(8));
    if (rng.NextBernoulli(0.3)) {
      mutated = mutated.substr(0, rng.NextBounded(mutated.size() + 1));
    }
    Result<Bsi> parsed = Bsi::Deserialize(mutated);
    if (parsed.ok()) {
      parsed.value().Sum();
      parsed.value().Cardinality();
    }
  }
}

TEST_P(SerializationFuzzTest, ExposeBsiDeserializeNeverCrashes) {
  Rng rng(GetParam() + 2000);
  PositionEncoder encoder;
  std::vector<ExposeRow> rows;
  for (UnitId id = 1; id <= 500; ++id) {
    rows.push_back({7, id, id, static_cast<Date>(rng.NextBounded(7))});
  }
  ExposeBsi expose = BuildExposeBsi(rows, encoder, 16);
  std::string bytes;
  expose.Serialize(&bytes);
  for (int round = 0; round < 50; ++round) {
    std::string mutated = Mutate(rng, bytes, 1 + rng.NextBounded(6));
    ExposeBsi::Deserialize(mutated);  // must not crash
  }
}

TEST_P(SerializationFuzzTest, DecompressNeverCrashes) {
  Rng rng(GetParam() + 3000);
  std::string input;
  for (int i = 0; i < 5000; ++i) {
    input += static_cast<char>(rng.NextBounded(8) + 'a');
  }
  const std::string block = CompressBlock(input);
  for (int round = 0; round < 100; ++round) {
    std::string mutated = Mutate(rng, block, 1 + rng.NextBounded(5));
    if (rng.NextBernoulli(0.3)) {
      mutated = mutated.substr(0, rng.NextBounded(mutated.size() + 1));
    }
    Result<std::string> out = DecompressBlock(mutated);
    if (out.ok()) {
      EXPECT_EQ(out.value().size(), input.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(GetParam());
  const std::string huge_literal(400, '9');
  const char* pieces[] = {"select", "sum",    "(",     ")",      "value",
                          "from",   "metric", "where", "and",    ",",
                          "8371",   "date",   "=",     ">=",     "*",
                          "expose", "dim",    "group", "by",     "bucket",
                          "0.5",    "<",      "<=",    "exposed", "offset",
                          // Literals above 2^64 - 1, beyond a double, malformed.
                          "18446744073709551616", huge_literal.c_str(),
                          "1.2.3"};
  for (int round = 0; round < 300; ++round) {
    std::string text;
    const int len = 1 + static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < len; ++i) {
      text += pieces[rng.NextBounded(std::size(pieces))];
      text += ' ';
    }
    ParseQuery(text);  // ok or InvalidArgument, never a crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Values(11, 12));

TEST(ParallelBuildTest, MatchesSerialBuild) {
  DatasetConfig config;
  config.num_users = 5000;
  config.num_segments = 8;
  config.num_days = 4;
  config.seed = 77;
  ExperimentConfig exp;
  exp.strategy_ids = {1, 2};
  exp.arm_effects = {1.0, 1.1};
  MetricConfig m;
  m.metric_id = 5;
  m.value_range = 40;
  Dataset ds = GenerateDataset(config, {exp}, {m}, {});

  const ExperimentBsiData serial = BuildExperimentBsiData(ds, true);
  const ExperimentBsiData parallel =
      BuildExperimentBsiDataParallel(ds, true, 4);
  ASSERT_EQ(serial.segments.size(), parallel.segments.size());
  for (int seg = 0; seg < 8; ++seg) {
    const SegmentBsiData& a = serial.segments[seg];
    const SegmentBsiData& b = parallel.segments[seg];
    ASSERT_EQ(a.expose.size(), b.expose.size());
    for (const auto& [id, expose] : a.expose) {
      const ExposeBsi* other = b.FindExpose(id);
      ASSERT_NE(other, nullptr);
      EXPECT_TRUE(expose.offset.Equals(other->offset));
      EXPECT_EQ(expose.min_expose_date, other->min_expose_date);
    }
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto& [key, metric] : a.metrics) {
      const MetricBsi* other = b.FindMetric(key.first, key.second);
      ASSERT_NE(other, nullptr);
      EXPECT_TRUE(metric.value.Equals(other->value));
    }
  }
}

}  // namespace
}  // namespace expbsi
