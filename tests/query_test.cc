#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi_aggregate.h"
#include "common/rng.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/token.h"
#include "tests/test_util.h"

namespace expbsi {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(TokenizeTest, BasicTokens) {
  Result<std::vector<Token>> tokens =
      Tokenize("SELECT sum(value), count(*) FROM metric(8371, date = 5)");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& ts = tokens.value();
  EXPECT_EQ(ts[0].type, TokenType::kIdentifier);
  EXPECT_EQ(ts[0].text, "select");  // lower-cased
  EXPECT_EQ(ts[1].text, "sum");
  EXPECT_EQ(ts[2].type, TokenType::kLParen);
  EXPECT_EQ(ts.back().type, TokenType::kEnd);
}

TEST(TokenizeTest, OperatorsAndNumbers) {
  Result<std::vector<Token>> tokens = Tokenize(">= <= != <> < > = 0.75 12");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& ts = tokens.value();
  EXPECT_EQ(ts[0].type, TokenType::kGe);
  EXPECT_EQ(ts[1].type, TokenType::kLe);
  EXPECT_EQ(ts[2].type, TokenType::kNe);
  EXPECT_EQ(ts[3].type, TokenType::kNe);
  EXPECT_EQ(ts[4].type, TokenType::kLt);
  EXPECT_EQ(ts[5].type, TokenType::kGt);
  EXPECT_EQ(ts[6].type, TokenType::kEq);
  EXPECT_EQ(ts[7].type, TokenType::kNumber);
  EXPECT_EQ(ts[7].text, "0.75");
  EXPECT_EQ(ts[8].text, "12");
}

TEST(TokenizeTest, DashedIdentifiers) {
  Result<std::vector<Token>> tokens = Tokenize("on_or_before metric-log");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "on_or_before");
  EXPECT_EQ(tokens.value()[1].text, "metric-log");
}

TEST(TokenizeTest, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("select @ from").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// --- Parser ------------------------------------------------------------------

TEST(ParseQueryTest, FullQuery) {
  Result<Query> q = ParseQuery(
      "SELECT sum(value), count(*), quantile(value, 0.9) "
      "FROM metric(8371, date = 5) "
      "WHERE exposed(8764293, on_or_before = 5) AND value > 10 "
      "  AND dim(1, date = 5) = 2 "
      "GROUP BY BUCKET");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Query& query = q.value();
  EXPECT_EQ(query.source, Query::Source::kMetric);
  EXPECT_EQ(query.source_id, 8371u);
  EXPECT_EQ(query.date, 5u);
  ASSERT_EQ(query.aggregates.size(), 3u);
  EXPECT_EQ(query.aggregates[0].func, QueryAggregate::Func::kSum);
  EXPECT_EQ(query.aggregates[1].func, QueryAggregate::Func::kCount);
  EXPECT_EQ(query.aggregates[2].func, QueryAggregate::Func::kQuantile);
  EXPECT_DOUBLE_EQ(query.aggregates[2].quantile_q, 0.9);
  ASSERT_EQ(query.predicates.size(), 3u);
  EXPECT_EQ(query.predicates[0].kind, QueryPredicate::Kind::kExposed);
  EXPECT_EQ(query.predicates[0].strategy_id, 8764293u);
  EXPECT_EQ(query.predicates[1].kind, QueryPredicate::Kind::kValue);
  EXPECT_EQ(query.predicates[1].op, RangeOp::kGt);
  EXPECT_EQ(query.predicates[2].kind, QueryPredicate::Kind::kDimension);
  EXPECT_EQ(query.predicates[2].dimension_id, 1u);
  EXPECT_TRUE(query.group_by_bucket);
}

TEST(ParseQueryTest, ExposeSource) {
  Result<Query> q = ParseQuery(
      "select count(*) from expose(8746325) where offset >= 2 and offset <= 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().source, Query::Source::kExpose);
  EXPECT_EQ(q.value().source_id, 8746325u);
  ASSERT_EQ(q.value().predicates.size(), 2u);
  EXPECT_EQ(q.value().predicates[0].kind, QueryPredicate::Kind::kOffset);
  EXPECT_EQ(q.value().predicates[0].op, RangeOp::kGe);
}

TEST(ParseQueryTest, SyntaxErrors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("select from metric(1, date = 0)").ok());
  EXPECT_FALSE(ParseQuery("select sum(value)").ok());                // no FROM
  EXPECT_FALSE(ParseQuery("select frob(value) from expose(1)").ok());
  EXPECT_FALSE(ParseQuery("select sum(*) from expose(1)").ok());     // * only in count
  EXPECT_FALSE(ParseQuery("select sum(value) from metric(1)").ok()); // no date
  EXPECT_FALSE(
      ParseQuery("select sum(value) from metric(1, date = 0) trailing").ok());
  EXPECT_FALSE(
      ParseQuery("select quantile(value, 1.5) from metric(1, date=0)").ok());
  EXPECT_FALSE(
      ParseQuery("select sum(value) from metric(1, date = 0) where").ok());
}

// --- QuantileOverInputs ------------------------------------------------------

TEST(QuantileOverInputsTest, MatchesMergedQuantile) {
  Rng rng(41);
  auto m1 = testing_util::RandomValueMap(rng, 2000, 10000, 500);
  auto m2 = testing_util::RandomValueMap(rng, 2000, 10000, 500);
  Bsi b1 = Bsi::FromPairs(testing_util::ToPairVector(m1));
  Bsi b2 = Bsi::FromPairs(testing_util::ToPairVector(m2));
  // Reference: all values in one sorted vector.
  std::vector<uint64_t> all;
  for (const auto& [pos, v] : m1) all.push_back(v);
  for (const auto& [pos, v] : m2) all.push_back(v);
  std::sort(all.begin(), all.end());
  for (double q : {0.1, 0.5, 0.9, 1.0}) {
    uint64_t rank = static_cast<uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(all.size()))));
    if (rank > all.size()) rank = all.size();
    EXPECT_EQ(QuantileOverInputs({{&b1, nullptr}, {&b2, nullptr}}, q),
              all[rank - 1])
        << "q=" << q;
  }
}

TEST(QuantileOverInputsTest, RespectsMasks) {
  Bsi b = Bsi::FromValues({10, 20, 30, 40, 50});
  RoaringBitmap mask = RoaringBitmap::FromSorted({2, 3, 4});  // 30, 40, 50
  EXPECT_EQ(QuantileOverInputs({{&b, &mask}}, 0.5), 40u);
  EXPECT_EQ(QuantileOverInputs({{&b, &mask}}, 0.0), 30u);
  EXPECT_EQ(QuantileOverInputs({{&b, &mask}}, 1.0), 50u);
}

// --- End-to-end execution ----------------------------------------------------

class QueryExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_users = 10000;
    config.num_segments = 8;
    config.num_days = 5;
    config.seed = 99;

    ExperimentConfig exp;
    exp.strategy_ids = {21, 22};
    exp.arm_effects = {1.0, 1.1};
    exp.traffic_salt = 13;

    MetricConfig m;
    m.metric_id = 8371;
    m.value_range = 200;
    m.daily_participation = 0.5;

    DimensionConfig d;
    d.dimension_id = 1;
    d.cardinality = 3;

    dataset_ = new Dataset(GenerateDataset(config, {exp}, {m}, {d}));
    bsi_ = new ExperimentBsiData(BuildExperimentBsiData(*dataset_, true));
  }

  static void TearDownTestSuite() {
    delete bsi_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static ExperimentBsiData* bsi_;
};

Dataset* QueryExecTest::dataset_ = nullptr;
ExperimentBsiData* QueryExecTest::bsi_ = nullptr;

TEST_F(QueryExecTest, PlainAggregatesMatchRows) {
  Result<QueryResult> r = RunQuery(
      *bsi_, "select sum(value), count(*), avg(value), min(value), "
             "max(value) from metric(8371, date = 2)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  double sum = 0, count = 0, minv = 1e18, maxv = 0;
  for (const SegmentData& seg : dataset_->segments) {
    for (const MetricRow& row : seg.metrics) {
      if (row.metric_id != 8371 || row.date != 2) continue;
      sum += static_cast<double>(row.value);
      count += 1;
      minv = std::min(minv, static_cast<double>(row.value));
      maxv = std::max(maxv, static_cast<double>(row.value));
    }
  }
  EXPECT_DOUBLE_EQ(r.value().row[0], sum);
  EXPECT_DOUBLE_EQ(r.value().row[1], count);
  EXPECT_DOUBLE_EQ(r.value().row[2], sum / count);
  EXPECT_DOUBLE_EQ(r.value().row[3], minv);
  EXPECT_DOUBLE_EQ(r.value().row[4], maxv);
}

TEST_F(QueryExecTest, MedianMatchesRows) {
  Result<QueryResult> r = RunQuery(
      *bsi_, "select median(value), quantile(value, 0.9) "
             "from metric(8371, date = 1)");
  ASSERT_TRUE(r.ok());
  std::vector<uint64_t> values;
  for (const SegmentData& seg : dataset_->segments) {
    for (const MetricRow& row : seg.metrics) {
      if (row.metric_id == 8371 && row.date == 1) values.push_back(row.value);
    }
  }
  std::sort(values.begin(), values.end());
  const uint64_t n = values.size();
  EXPECT_EQ(r.value().row[0],
            static_cast<double>(values[static_cast<size_t>(
                std::ceil(0.5 * n)) - 1]));
  EXPECT_EQ(r.value().row[1],
            static_cast<double>(values[static_cast<size_t>(
                std::ceil(0.9 * n)) - 1]));
}

TEST_F(QueryExecTest, MultiDayWindowMatchesEngine) {
  // Date-range scan with the per-scan-day expose filter == the engine's
  // multi-day scorecard sums.
  Result<QueryResult> r = RunQuery(
      *bsi_, "select sum(value), uv(value) from metric(8371, date = 0, "
             "to = 4) where exposed(22)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const BucketValues direct = ComputeStrategyMetricBsi(*bsi_, 22, 8371, 0, 4);
  EXPECT_DOUBLE_EQ(r.value().row[0], direct.total_sum());
  const BucketValues uv =
      ComputeStrategyUniqueVisitorsBsi(*bsi_, 22, 8371, 0, 4);
  EXPECT_DOUBLE_EQ(r.value().row[1], uv.total_sum());
}

TEST_F(QueryExecTest, MultiDayCountIsRowCount) {
  Result<QueryResult> r = RunQuery(
      *bsi_, "select count(*), uv(value) from metric(8371, date = 0, to = 4)");
  ASSERT_TRUE(r.ok());
  double rows = 0;
  std::set<UnitId> distinct;
  for (const SegmentData& seg : dataset_->segments) {
    for (const MetricRow& row : seg.metrics) {
      if (row.metric_id == 8371 && row.date <= 4) {
        rows += 1;
        distinct.insert(row.analysis_unit_id);
      }
    }
  }
  EXPECT_DOUBLE_EQ(r.value().row[0], rows);
  EXPECT_DOUBLE_EQ(r.value().row[1], static_cast<double>(distinct.size()));
  // Multi-day count(*) counts (unit, day) rows, so uv <= count.
  EXPECT_LE(r.value().row[1], r.value().row[0]);
}

TEST_F(QueryExecTest, MultiDayQuantileMatchesRows) {
  Result<QueryResult> r = RunQuery(
      *bsi_, "select median(value) from metric(8371, date = 0, to = 3)");
  ASSERT_TRUE(r.ok());
  std::vector<uint64_t> values;
  for (const SegmentData& seg : dataset_->segments) {
    for (const MetricRow& row : seg.metrics) {
      if (row.metric_id == 8371 && row.date <= 3) values.push_back(row.value);
    }
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(r.value().row[0],
            static_cast<double>(values[static_cast<size_t>(
                std::ceil(0.5 * values.size())) - 1]));
}

TEST_F(QueryExecTest, BadDateRangeRejected) {
  EXPECT_FALSE(
      RunQuery(*bsi_, "select sum(value) from metric(8371, date=3, to=1)")
          .ok());
}

TEST_F(QueryExecTest, ScorecardKernelMatchesEngine) {
  // The paper's scorecard SQL expressed in EQL must reproduce
  // ComputeStrategyMetricBsi's single-day numbers.
  Result<QueryResult> r = RunQuery(
      *bsi_, "select sum(value) from metric(8371, date = 3) "
             "where exposed(22, on_or_before = 3)");
  ASSERT_TRUE(r.ok());
  const BucketValues direct =
      ComputeStrategyMetricBsi(*bsi_, 22, 8371, 3, 3);
  EXPECT_DOUBLE_EQ(r.value().row[0], direct.total_sum());
}

TEST_F(QueryExecTest, GroupByBucketMatchesEngine) {
  Result<QueryResult> r = RunQuery(
      *bsi_, "select sum(value), count(*) from metric(8371, date = 3) "
             "where exposed(22, on_or_before = 3) group by bucket");
  ASSERT_TRUE(r.ok());
  const BucketValues direct =
      ComputeStrategyMetricBsi(*bsi_, 22, 8371, 3, 3);
  ASSERT_EQ(r.value().per_bucket.size(), direct.sums.size());
  for (size_t b = 0; b < direct.sums.size(); ++b) {
    EXPECT_DOUBLE_EQ(r.value().per_bucket[b][0], direct.sums[b]);
  }
}

TEST_F(QueryExecTest, ExposeSourceOffsetFilter) {
  // Units first exposed between the 2nd and 5th day (paper §4.1.2).
  Result<QueryResult> r = RunQuery(
      *bsi_,
      "select count(*) from expose(21) where offset >= 2 and offset <= 5");
  ASSERT_TRUE(r.ok());
  double expect = 0;
  for (const SegmentData& seg : dataset_->segments) {
    Date min_date = 0xFFFFFFFF;
    for (const ExposeRow& row : seg.expose) {
      if (row.strategy_id == 21) {
        min_date = std::min(min_date, row.first_expose_date);
      }
    }
    for (const ExposeRow& row : seg.expose) {
      if (row.strategy_id != 21) continue;
      const uint64_t offset = row.first_expose_date - min_date + 1;
      if (offset >= 2 && offset <= 5) expect += 1;
    }
  }
  EXPECT_DOUBLE_EQ(r.value().row[0], expect);
}

TEST_F(QueryExecTest, DimensionAndValuePredicates) {
  Result<QueryResult> r = RunQuery(
      *bsi_, "select sum(value) from metric(8371, date = 2) "
             "where dim(1, date = 2) = 1 and value > 50");
  ASSERT_TRUE(r.ok());
  std::map<UnitId, uint64_t> dim_value;
  for (const SegmentData& seg : dataset_->segments) {
    for (const DimensionRow& row : seg.dimensions) {
      if (row.dimension_id == 1 && row.date == 2) {
        dim_value[row.analysis_unit_id] = row.value;
      }
    }
  }
  double expect = 0;
  for (const SegmentData& seg : dataset_->segments) {
    for (const MetricRow& row : seg.metrics) {
      if (row.metric_id != 8371 || row.date != 2 || row.value <= 50) continue;
      auto it = dim_value.find(row.analysis_unit_id);
      if (it != dim_value.end() && it->second == 1) {
        expect += static_cast<double>(row.value);
      }
    }
  }
  EXPECT_DOUBLE_EQ(r.value().row[0], expect);
}

TEST_F(QueryExecTest, MissingDataIsEmptyNotError) {
  Result<QueryResult> r = RunQuery(
      *bsi_, "select sum(value), count(*) from metric(424242, date = 2)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().row[0], 0.0);
  EXPECT_EQ(r.value().row[1], 0.0);
}

TEST_F(QueryExecTest, ValidationErrors) {
  // offset predicate on a metric source.
  EXPECT_FALSE(RunQuery(*bsi_, "select sum(value) from metric(8371, date=2) "
                               "where offset >= 2")
                   .ok());
  // unsupported grouped aggregate.
  EXPECT_FALSE(RunQuery(*bsi_, "select median(value) from "
                               "metric(8371, date=2) group by bucket")
                   .ok());
}

TEST_F(QueryExecTest, ToStringRendersTable) {
  Result<QueryResult> r =
      RunQuery(*bsi_, "select count(*) from metric(8371, date = 0)");
  ASSERT_TRUE(r.ok());
  const std::string rendered = r.value().ToString();
  EXPECT_NE(rendered.find("count(*)"), std::string::npos);
  EXPECT_NE(rendered.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace expbsi

namespace expbsi {
namespace {

TEST_F(QueryExecTest, DimensionSourceProfile) {
  // Profile the client-type dimension itself: counts per value via EQL.
  Result<QueryResult> all =
      RunQuery(*bsi_, "select count(*), max(value) from dim(1, date = 0)");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  double expect_rows = 0;
  uint64_t expect_max = 0;
  for (const SegmentData& seg : dataset_->segments) {
    for (const DimensionRow& row : seg.dimensions) {
      if (row.dimension_id == 1 && row.date == 0) {
        expect_rows += 1;
        expect_max = std::max(expect_max, row.value);
      }
    }
  }
  EXPECT_DOUBLE_EQ(all.value().row[0], expect_rows);
  EXPECT_DOUBLE_EQ(all.value().row[1], static_cast<double>(expect_max));
  // Value predicates apply to the dimension value.
  Result<QueryResult> ios =
      RunQuery(*bsi_, "select count(*) from dim(1, date = 0) where value = 1");
  ASSERT_TRUE(ios.ok());
  double expect_ios = 0;
  for (const SegmentData& seg : dataset_->segments) {
    for (const DimensionRow& row : seg.dimensions) {
      if (row.dimension_id == 1 && row.date == 0 && row.value == 1) {
        expect_ios += 1;
      }
    }
  }
  EXPECT_DOUBLE_EQ(ios.value().row[0], expect_ios);
}

}  // namespace
}  // namespace expbsi
