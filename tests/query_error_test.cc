// Error-path coverage for RunQuery / ExecuteQuery: every validation rule in
// query/executor.cc and the parser's failure modes, asserting the exact
// error messages (the differential oracle relies on these strings staying
// in sync with src/reference/ref_query.cc, so they are pinned here).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/experiment_data.h"
#include "expdata/generator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "reference/ref_data.h"
#include "reference/ref_query.h"

namespace expbsi {
namespace {

DatasetConfig SmallConfig(bool bucket_equals_segment) {
  DatasetConfig config;
  config.num_users = 50;
  config.num_segments = 2;
  config.bucket_equals_segment = bucket_equals_segment;
  config.num_buckets = 8;
  config.num_days = 3;
  config.seed = 7;
  return config;
}

Dataset SmallDataset(bool bucket_equals_segment) {
  ExperimentConfig experiment;
  experiment.strategy_ids = {100, 101};
  experiment.arm_effects = {1.0, 1.1};
  MetricConfig metric;
  metric.metric_id = 5;
  metric.value_range = 20;
  return GenerateDataset(SmallConfig(bucket_equals_segment), {experiment},
                         {metric}, {});
}

class QueryErrorTest : public ::testing::Test {
 protected:
  QueryErrorTest()
      : dataset_(SmallDataset(/*bucket_equals_segment=*/true)),
        bsi_(BuildExperimentBsiData(dataset_, true)),
        ref_(BuildRefExperimentData(dataset_)) {}

  // Asserts that both engines reject `text` with exactly `message`.
  void ExpectError(const std::string& text, const std::string& message) {
    const Result<QueryResult> got = RunQuery(bsi_, text);
    ASSERT_FALSE(got.ok()) << text;
    EXPECT_EQ(got.status().message(), message) << text;
    const Result<QueryResult> ref_got = RefRunQuery(ref_, text);
    ASSERT_FALSE(ref_got.ok()) << text;
    EXPECT_EQ(ref_got.status().message(), message) << text;
  }

  Dataset dataset_;
  ExperimentBsiData bsi_;
  RefExperimentData ref_;
};

TEST_F(QueryErrorTest, OffsetPredicateRequiresExposeSource) {
  ExpectError(
      "SELECT sum(value) FROM metric(5, date = 0) WHERE offset >= 1",
      "offset predicates require an expose(...) source");
}

TEST_F(QueryErrorTest, GroupByBucketRejectsNonDecomposableAggregates) {
  ExpectError(
      "SELECT median(value) FROM metric(5, date = 0) GROUP BY BUCKET",
      "GROUP BY BUCKET supports sum/count/avg only");
  ExpectError(
      "SELECT uv(value) FROM metric(5, date = 0, to = 2) GROUP BY BUCKET",
      "GROUP BY BUCKET supports sum/count/avg only");
  ExpectError(
      "SELECT min(value) FROM metric(5, date = 1) GROUP BY BUCKET",
      "GROUP BY BUCKET supports sum/count/avg only");
}

TEST_F(QueryErrorTest, GroupByBucketNeedsExposedPredicateWhenBucketed) {
  // With bucket != segment the bucket ids live in the expose log, so the
  // grouped query must name exactly one strategy.
  const Dataset dataset = SmallDataset(/*bucket_equals_segment=*/false);
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const std::string message =
      "GROUP BY BUCKET with bucket != segment requires exactly one "
      "exposed(...) predicate (the bucket ids live in that strategy's "
      "expose log)";
  for (const std::string text :
       {"SELECT sum(value) FROM metric(5, date = 0) GROUP BY BUCKET",
        "SELECT sum(value) FROM metric(5, date = 0) "
        "WHERE exposed(100) AND exposed(101) GROUP BY BUCKET"}) {
    const Result<QueryResult> got = RunQuery(bsi, text);
    ASSERT_FALSE(got.ok()) << text;
    EXPECT_EQ(got.status().message(), message) << text;
    const Result<QueryResult> ref_got = RefRunQuery(ref, text);
    ASSERT_FALSE(ref_got.ok()) << text;
    EXPECT_EQ(ref_got.status().message(), message) << text;
  }
  // One exposed(...) predicate makes the same query valid.
  const std::string valid =
      "SELECT sum(value) FROM metric(5, date = 0) WHERE exposed(100) "
      "GROUP BY BUCKET";
  EXPECT_TRUE(RunQuery(bsi, valid).ok());
  EXPECT_TRUE(RefRunQuery(ref, valid).ok());
}

TEST_F(QueryErrorTest, ParseErrorsSurfaceWithOffsets) {
  // The parser is shared between both executors; a few representative
  // failures, each pinned to its message.
  const Result<QueryResult> missing_from = RunQuery(bsi_, "SELECT sum(value)");
  ASSERT_FALSE(missing_from.ok());
  EXPECT_NE(missing_from.status().message().find("expected 'from'"),
            std::string::npos)
      << missing_from.status().message();

  const Result<QueryResult> garbage = RunQuery(bsi_, "SELEC sum(value)");
  ASSERT_FALSE(garbage.ok());

  const Result<QueryResult> trailing =
      RunQuery(bsi_, "SELECT count(*) FROM expose(100) garbage");
  ASSERT_FALSE(trailing.ok());

  // Error parity with the reference runner on parse failures is automatic
  // (same parser), but assert it once to pin the plumbing.
  const Result<QueryResult> ref_err = RefRunQuery(ref_, "SELEC sum(value)");
  ASSERT_FALSE(ref_err.ok());
  EXPECT_EQ(ref_err.status().message(), garbage.status().message());
}

TEST_F(QueryErrorTest, IntegerLiteralsParseExactly) {
  const std::string where = "SELECT count(*) FROM metric(5, date = 0) WHERE ";
  const auto constant = [&where](const std::string& literal) {
    const Result<Query> q = ParseQuery(where + "value > " + literal);
    EXPECT_TRUE(q.ok()) << literal << ": " << q.status().ToString();
    return q.ok() ? q.value().predicates[0].constant : 0;
  };
  EXPECT_EQ(constant("18446744073709551615"), ~uint64_t{0});
  EXPECT_EQ(constant("9007199254740993"), uint64_t{9007199254740993});
  EXPECT_EQ(constant("0"), 0u);
  // Nothing exceeds 2^64 - 1: both engines select no unit.
  const std::string none = where + "value > 18446744073709551615";
  const Result<QueryResult> got = RunQuery(bsi_, none);
  const Result<QueryResult> ref_got = RefRunQuery(ref_, none);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(ref_got.ok());
  EXPECT_EQ(got.value().row, std::vector<double>{0.0});
  EXPECT_EQ(ref_got.value().row, std::vector<double>{0.0});
  // The quantile argument is a double, converted the same way.
  const Result<Query> q =
      ParseQuery("SELECT quantile(value, 0.25) FROM metric(5, date = 0)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().aggregates[0].quantile_q, 0.25);
}

TEST_F(QueryErrorTest, MalformedOrOutOfRangeLiteralsArePositionedErrors) {
  // Offset 55 is the literal after "... WHERE value > ".
  const std::string where =
      "SELECT count(*) FROM metric(5, date = 0) WHERE value > ";
  ASSERT_EQ(where.size(), 55u);
  ExpectError(where + "18446744073709551616",
              "integer out of range (max 18446744073709551615) at offset 55");
  const Result<QueryResult> huge = RunQuery(bsi_, where + "1" +
                                                      std::string(400, '0'));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(huge.status().message(),
            "integer out of range (max 18446744073709551615) at offset 55");
  ExpectError(where + "1.2.3", "expected non-negative integer at offset 55");
  ExpectError(where + "1.5", "expected non-negative integer at offset 55");
  // Dates and dimension ids are 32-bit: no silent truncation.
  ExpectError("SELECT count(*) FROM metric(5, date = 4294967296)",
              "integer out of range (max 4294967295) at offset 38");
  ExpectError("SELECT count(*) FROM metric(5, date = 0) WHERE "
              "dim(4294967297, date = 0) = 1",
              "integer out of range (max 4294967295) at offset 51");
  ExpectError("SELECT count(*) FROM dim(4294967303, date = 0)",
              "integer out of range (max 4294967295) at offset 25");
  ExpectError("SELECT quantile(value, 1.2.3) FROM metric(5, date = 0)",
              "malformed number at offset 23");
  ExpectError("SELECT quantile(value, 1" + std::string(400, '0') +
                  ") FROM metric(5, date = 0)",
              "number out of range at offset 23");
}

TEST_F(QueryErrorTest, MissingDataIsNotAnError) {
  // Unknown metric / strategy ids are data absence, not query errors: the
  // segments contribute nothing and the aggregates come back zero.
  for (const std::string text :
       {"SELECT sum(value), count(*) FROM metric(99999, date = 0)",
        "SELECT count(*) FROM expose(424242)",
        "SELECT sum(value) FROM metric(5, date = 0) WHERE exposed(424242)"}) {
    const Result<QueryResult> got = RunQuery(bsi_, text);
    ASSERT_TRUE(got.ok()) << text;
    for (const double v : got.value().row) EXPECT_EQ(v, 0.0) << text;
    const Result<QueryResult> ref_got = RefRunQuery(ref_, text);
    ASSERT_TRUE(ref_got.ok()) << text;
    EXPECT_EQ(got.value().row, ref_got.value().row) << text;
  }
}

}  // namespace
}  // namespace expbsi
