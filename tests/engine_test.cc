#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/deepdive.h"
#include "engine/experiment_data.h"
#include "engine/normal_engine.h"
#include "engine/preexperiment.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"

namespace expbsi {
namespace {

// Shared fixture: one generated dataset with a real treatment effect, in
// both normal and BSI representations. Generation is the expensive part, so
// build it once per suite.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_users = 20000;
    config.num_segments = 32;
    config.num_days = 12;
    config.start_date = 100;
    config.seed = 7;

    ExperimentConfig exp;
    exp.strategy_ids = {501, 502, 503};  // control + 2 treatments
    exp.arm_effects = {1.0, 1.12, 0.95};
    exp.traffic_salt = 11;
    exp.expose_day_p = 0.5;

    MetricConfig m1;
    m1.metric_id = 8371;
    m1.value_range = 300;
    m1.daily_participation = 0.4;
    MetricConfig m2;
    m2.metric_id = 8372;
    m2.value_range = 1;  // binary metric
    m2.daily_participation = 0.6;

    DimensionConfig client_type;
    client_type.dimension_id = 1;
    client_type.cardinality = 3;
    DimensionConfig client_version;
    client_version.dimension_id = 2;
    client_version.cardinality = 200;

    dataset_ = new Dataset(GenerateDataset(config, {exp}, {m1, m2},
                                           {client_type, client_version}));
    bsi_ = new ExperimentBsiData(BuildExperimentBsiData(*dataset_, true));
  }

  static void TearDownTestSuite() {
    delete bsi_;
    delete dataset_;
    bsi_ = nullptr;
    dataset_ = nullptr;
  }

  // Experiment runs on days [104, 111]; days [100, 103] are pre-period.
  static constexpr Date kPreLo = 100;
  static constexpr Date kStart = 104;
  static constexpr Date kEnd = 111;

  static Dataset* dataset_;
  static ExperimentBsiData* bsi_;
};

Dataset* EngineTest::dataset_ = nullptr;
ExperimentBsiData* EngineTest::bsi_ = nullptr;

// Brute-force reference: per-bucket sums/counts straight from the rows.
BucketValues BruteForce(const Dataset& ds, uint64_t strategy_id,
                        uint64_t metric_id, Date lo, Date hi) {
  BucketValues out;
  out.sums.assign(ds.config.num_segments, 0.0);
  out.counts.assign(ds.config.num_segments, 0.0);
  std::map<UnitId, Date> exposed;
  for (int seg = 0; seg < ds.config.num_segments; ++seg) {
    exposed.clear();
    for (const ExposeRow& row : ds.segments[seg].expose) {
      if (row.strategy_id == strategy_id) {
        exposed[row.analysis_unit_id] = row.first_expose_date;
      }
    }
    for (const auto& [unit, date] : exposed) {
      if (date <= hi) out.counts[seg] += 1.0;
    }
    for (const MetricRow& row : ds.segments[seg].metrics) {
      if (row.metric_id != metric_id || row.date < lo || row.date > hi) {
        continue;
      }
      auto it = exposed.find(row.analysis_unit_id);
      if (it != exposed.end() && it->second <= row.date) {
        out.sums[seg] += static_cast<double>(row.value);
      }
    }
  }
  return out;
}

TEST_F(EngineTest, BsiPathMatchesBruteForce) {
  for (uint64_t strategy : {501u, 502u, 503u}) {
    for (uint64_t metric : {8371u, 8372u}) {
      const BucketValues expect =
          BruteForce(*dataset_, strategy, metric, kStart, kEnd);
      const BucketValues got =
          ComputeStrategyMetricBsi(*bsi_, strategy, metric, kStart, kEnd);
      EXPECT_EQ(got.sums, expect.sums) << strategy << "/" << metric;
      EXPECT_EQ(got.counts, expect.counts) << strategy << "/" << metric;
    }
  }
}

TEST_F(EngineTest, NormalBaselineMatchesBsiExactly) {
  for (uint64_t strategy : {501u, 502u}) {
    const BucketValues bsi_result =
        ComputeStrategyMetricBsi(*bsi_, strategy, 8371, kStart, kEnd);
    const BucketValues normal_result =
        ComputeStrategyMetricNormal(*dataset_, strategy, 8371, kStart, kEnd);
    EXPECT_EQ(bsi_result.sums, normal_result.sums);
    EXPECT_EQ(bsi_result.counts, normal_result.counts);
  }
}

TEST_F(EngineTest, ExposeBitmapBaselineMatchesBsiExactly) {
  const ExposeBitmapCache cache =
      ExposeBitmapCache::Build(*dataset_, 502, kStart, kEnd);
  const BucketValues bitmap_result = ComputeStrategyMetricExposeBitmap(
      *dataset_, cache, 8371, kStart, kEnd);
  const BucketValues bsi_result =
      ComputeStrategyMetricBsi(*bsi_, 502, 8371, kStart, kEnd);
  EXPECT_EQ(bitmap_result.sums, bsi_result.sums);
  EXPECT_EQ(bitmap_result.counts, bsi_result.counts);
}

TEST_F(EngineTest, MaskCachePathMatchesDirect) {
  for (uint64_t strategy : {501u, 502u}) {
    const ExposeMaskCache cache =
        ExposeMaskCache::Build(*bsi_, strategy, kStart, kEnd);
    for (uint64_t metric : {8371u, 8372u}) {
      const BucketValues direct =
          ComputeStrategyMetricBsi(*bsi_, strategy, metric, kStart, kEnd);
      const BucketValues cached =
          ComputeStrategyMetricBsiCached(*bsi_, cache, metric, kStart, kEnd);
      EXPECT_EQ(direct.sums, cached.sums);
      EXPECT_EQ(direct.counts, cached.counts);
    }
    // Sub-ranges of the cached window also agree.
    const BucketValues direct =
        ComputeStrategyMetricBsi(*bsi_, strategy, 8371, kStart + 2, kEnd - 1);
    const BucketValues cached = ComputeStrategyMetricBsiCached(
        *bsi_, cache, 8371, kStart + 2, kEnd - 1);
    EXPECT_EQ(direct.sums, cached.sums);
    EXPECT_EQ(direct.counts, cached.counts);
  }
}

TEST_F(EngineTest, IndexedNormalBaselineMatchesUnindexed) {
  const NormalDataIndex index = NormalDataIndex::Build(*dataset_);
  for (uint64_t strategy : {501u, 503u}) {
    const BucketValues plain =
        ComputeStrategyMetricNormal(*dataset_, strategy, 8371, kStart, kEnd);
    const BucketValues indexed = ComputeStrategyMetricNormalIndexed(
        *dataset_, index, strategy, 8371, kStart, kEnd);
    EXPECT_EQ(plain.sums, indexed.sums);
    EXPECT_EQ(plain.counts, indexed.counts);
  }
  // Missing strategy / metric behave as empty.
  const BucketValues missing = ComputeStrategyMetricNormalIndexed(
      *dataset_, index, 999999, 8371, kStart, kEnd);
  EXPECT_EQ(missing.total_sum(), 0.0);
  EXPECT_EQ(missing.total_count(), 0.0);
}

TEST_F(EngineTest, SingleDayWindow) {
  const BucketValues expect = BruteForce(*dataset_, 501, 8371, kStart, kStart);
  const BucketValues got =
      ComputeStrategyMetricBsi(*bsi_, 501, 8371, kStart, kStart);
  EXPECT_EQ(got.sums, expect.sums);
  EXPECT_EQ(got.counts, expect.counts);
}

TEST_F(EngineTest, ScorecardDetectsPositiveAndNegativeEffects) {
  const std::vector<ScorecardEntry> entries = ComputeScorecard(
      *bsi_, /*control=*/501, {502, 503}, {8371}, kStart, kEnd);
  ASSERT_EQ(entries.size(), 2u);
  const ScorecardEntry& up = entries[0];    // +12% effect
  const ScorecardEntry& down = entries[1];  // -5% effect
  EXPECT_GT(up.ttest.mean_diff, 0.0);
  EXPECT_LT(up.ttest.p_value, 0.05);
  EXPECT_LT(down.ttest.mean_diff, 0.0);
  // Directions and rough magnitudes match the configured effects (the
  // realized effect differs from the raw multiplier because values are
  // clamped to [1, range] and only post-exposure activity is shifted).
  EXPECT_GT(up.ttest.relative_diff, 0.02);
  EXPECT_LT(up.ttest.relative_diff, 0.4);
  EXPECT_LT(down.ttest.relative_diff, -0.01);
  EXPECT_GT(down.ttest.relative_diff, -0.4);
}

TEST_F(EngineTest, AaComparisonIsInsignificant) {
  // Comparing a strategy to itself: zero diff, p = 1.
  const BucketValues b =
      ComputeStrategyMetricBsi(*bsi_, 501, 8371, kStart, kEnd);
  const ScorecardEntry aa = CompareStrategies(8371, 501, b, 501, b);
  EXPECT_EQ(aa.ttest.mean_diff, 0.0);
  EXPECT_NEAR(aa.ttest.p_value, 1.0, 1e-9);
}

TEST_F(EngineTest, UniqueVisitorsMatchesBruteForce) {
  // Brute force: distinct units with >= 1 metric row on an exposed day.
  std::map<int, std::map<UnitId, Date>> exposed_by_seg;
  for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
    for (const ExposeRow& row : dataset_->segments[seg].expose) {
      if (row.strategy_id == 502) {
        exposed_by_seg[seg][row.analysis_unit_id] = row.first_expose_date;
      }
    }
  }
  std::vector<double> expect(dataset_->config.num_segments, 0.0);
  for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
    std::map<UnitId, bool> visited;
    for (const MetricRow& row : dataset_->segments[seg].metrics) {
      if (row.metric_id != 8371 || row.date < kStart || row.date > kEnd) {
        continue;
      }
      auto it = exposed_by_seg[seg].find(row.analysis_unit_id);
      if (it != exposed_by_seg[seg].end() && it->second <= row.date) {
        visited[row.analysis_unit_id] = true;
      }
    }
    expect[seg] = static_cast<double>(visited.size());
  }
  const BucketValues uv =
      ComputeStrategyUniqueVisitorsBsi(*bsi_, 502, 8371, kStart, kEnd);
  EXPECT_EQ(uv.sums, expect);
}

TEST_F(EngineTest, MetricCovarianceMatrix) {
  const std::vector<uint64_t> metric_ids = {8371, 8372};
  const std::vector<std::vector<double>> cov =
      ComputeMetricCovarianceMatrix(*bsi_, 502, metric_ids, kStart, kEnd);
  ASSERT_EQ(cov.size(), 2u);
  // Symmetric, with the diagonal equal to each metric's var_of_mean.
  EXPECT_DOUBLE_EQ(cov[0][1], cov[1][0]);
  for (size_t i = 0; i < 2; ++i) {
    const MetricEstimate est = EstimateRatio(ComputeStrategyMetricBsi(
        *bsi_, 502, metric_ids[i], kStart, kEnd));
    EXPECT_NEAR(cov[i][i], est.var_of_mean, est.var_of_mean * 1e-9);
    EXPECT_GT(cov[i][i], 0.0);
  }
  // Cauchy-Schwarz: |cov| <= sqrt(var_i * var_j).
  EXPECT_LE(cov[0][1] * cov[0][1], cov[0][0] * cov[1][1] * (1 + 1e-9));
  // Both metrics ride the same engagement skew, so they correlate
  // positively.
  EXPECT_GT(cov[0][1], 0.0);
}

// --- Pre-experiment / CUPED -------------------------------------------------

TEST_F(EngineTest, PreExperimentTreeMatchesLinear) {
  const PreAggIndex index =
      BuildPreAggIndex(*bsi_, 8371, kPreLo, kStart - 1);
  for (uint64_t strategy : {501u, 502u}) {
    const BucketValues linear = ComputePreExperimentBsi(
        *bsi_, strategy, 8371, kStart, /*lookback_days=*/4, kEnd);
    const BucketValues tree = ComputePreExperimentWithTree(
        *bsi_, index, strategy, kStart, 4, kEnd);
    EXPECT_EQ(linear.sums, tree.sums);
    EXPECT_EQ(linear.counts, tree.counts);
  }
}

TEST_F(EngineTest, PreExperimentMatchesBruteForce) {
  // Brute force: sum pre-period values of units exposed by kEnd.
  std::vector<double> expect(dataset_->config.num_segments, 0.0);
  for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
    std::map<UnitId, Date> exposed;
    for (const ExposeRow& row : dataset_->segments[seg].expose) {
      if (row.strategy_id == 502) {
        exposed[row.analysis_unit_id] = row.first_expose_date;
      }
    }
    for (const MetricRow& row : dataset_->segments[seg].metrics) {
      if (row.metric_id != 8371 || row.date < kPreLo ||
          row.date >= kStart) {
        continue;
      }
      auto it = exposed.find(row.analysis_unit_id);
      if (it != exposed.end() && it->second <= kEnd) {
        expect[seg] += static_cast<double>(row.value);
      }
    }
  }
  const BucketValues pre =
      ComputePreExperimentBsi(*bsi_, 502, 8371, kStart, 4, kEnd);
  EXPECT_EQ(pre.sums, expect);
}

TEST_F(EngineTest, CupedReducesVarianceOnCorrelatedMetric) {
  // The generator gives each user a stable base value, so pre- and
  // experiment-period means correlate strongly across buckets.
  const BucketValues y_t =
      ComputeStrategyMetricBsi(*bsi_, 502, 8371, kStart, kEnd);
  const BucketValues y_c =
      ComputeStrategyMetricBsi(*bsi_, 501, 8371, kStart, kEnd);
  const BucketValues x_t =
      ComputePreExperimentBsi(*bsi_, 502, 8371, kStart, 4, kEnd);
  const BucketValues x_c =
      ComputePreExperimentBsi(*bsi_, 501, 8371, kStart, 4, kEnd);
  const CupedScorecardEntry entry =
      CompareWithCuped(8371, 502, y_t, x_t, 501, y_c, x_c);
  EXPECT_GT(entry.theta, 0.0);
  EXPECT_GT(entry.treatment_variance_reduction, 0.2);
  EXPECT_GT(entry.control_variance_reduction, 0.2);
  // The effect stays detectable after adjustment and the CI tightens.
  EXPECT_LE(entry.adjusted_ttest.std_error, entry.raw.ttest.std_error);
  EXPECT_LT(entry.adjusted_ttest.p_value, 0.05);
}

// --- Deep dive ---------------------------------------------------------------

TEST_F(EngineTest, DimensionFilterMatchesBruteForce) {
  // client-type = 1 AND client-version > 134, the paper's example (§4.4).
  const std::vector<DimensionPredicate> preds = {
      {1, RangeOp::kEq, 1},
      {2, RangeOp::kGt, 134},
  };
  const Date dim_date = kStart;
  // Brute force filtered sums.
  std::vector<double> expect_sums(dataset_->config.num_segments, 0.0);
  for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
    std::map<UnitId, Date> exposed;
    for (const ExposeRow& row : dataset_->segments[seg].expose) {
      if (row.strategy_id == 502) {
        exposed[row.analysis_unit_id] = row.first_expose_date;
      }
    }
    std::map<UnitId, bool> passes;
    std::map<UnitId, uint64_t> ct, cv;
    for (const DimensionRow& row : dataset_->segments[seg].dimensions) {
      if (row.date != dim_date) continue;
      if (row.dimension_id == 1) ct[row.analysis_unit_id] = row.value;
      if (row.dimension_id == 2) cv[row.analysis_unit_id] = row.value;
    }
    for (const auto& [unit, v] : ct) {
      passes[unit] = (v == 1) && cv.count(unit) > 0 && cv[unit] > 134;
    }
    for (const MetricRow& row : dataset_->segments[seg].metrics) {
      if (row.metric_id != 8371 || row.date < kStart || row.date > kEnd) {
        continue;
      }
      auto pit = passes.find(row.analysis_unit_id);
      if (pit == passes.end() || !pit->second) continue;
      auto eit = exposed.find(row.analysis_unit_id);
      if (eit != exposed.end() && eit->second <= row.date) {
        expect_sums[seg] += static_cast<double>(row.value);
      }
    }
  }
  const BucketValues got = ComputeStrategyMetricBsiFiltered(
      *bsi_, 502, 8371, kStart, kEnd, preds, dim_date);
  EXPECT_EQ(got.sums, expect_sums);
}

TEST_F(EngineTest, DimensionBreakdownCoversValues) {
  const std::vector<DimensionBreakdownEntry> breakdown =
      ComputeDimensionBreakdown(*bsi_, 501, 502, 8371, kStart, kEnd,
                                /*dimension_id=*/1, {1, 2, 3}, kStart);
  ASSERT_EQ(breakdown.size(), 3u);
  double total_treat = 0;
  for (const DimensionBreakdownEntry& e : breakdown) {
    EXPECT_GT(e.entry.treatment.total_count, 0.0);
    total_treat += e.entry.treatment.total_sum;
  }
  // The three client types partition (almost all of) the filtered traffic.
  const BucketValues all =
      ComputeStrategyMetricBsi(*bsi_, 502, 8371, kStart, kEnd);
  EXPECT_GT(total_treat, 0.5 * all.total_sum());
  EXPECT_LE(total_treat, all.total_sum());
}

TEST_F(EngineTest, DailyBreakdownSumsToWindow) {
  const std::vector<ScorecardEntry> daily =
      ComputeDailyBreakdown(*bsi_, 501, 502, 8371, kStart, kEnd);
  ASSERT_EQ(daily.size(), static_cast<size_t>(kEnd - kStart + 1));
  double daily_total = 0;
  for (const ScorecardEntry& e : daily) daily_total += e.treatment.total_sum;
  const BucketValues window =
      ComputeStrategyMetricBsi(*bsi_, 502, 8371, kStart, kEnd);
  EXPECT_DOUBLE_EQ(daily_total, window.total_sum());
}

TEST_F(EngineTest, FilteredWithNoMatchingDimensionDataIsEmpty) {
  const std::vector<DimensionPredicate> preds = {
      {99, RangeOp::kEq, 1}};  // unknown dimension
  const BucketValues got = ComputeStrategyMetricBsiFiltered(
      *bsi_, 502, 8371, kStart, kEnd, preds, kStart);
  EXPECT_EQ(got.total_sum(), 0.0);
  EXPECT_EQ(got.total_count(), 0.0);
}

// --- Encoding ablation behaves identically ----------------------------------

TEST_F(EngineTest, ArrivalOrderEncodingGivesSameResults) {
  const ExperimentBsiData arrival = BuildExperimentBsiData(*dataset_, false);
  const BucketValues a =
      ComputeStrategyMetricBsi(arrival, 502, 8371, kStart, kEnd);
  const BucketValues b =
      ComputeStrategyMetricBsi(*bsi_, 502, 8371, kStart, kEnd);
  EXPECT_EQ(a.sums, b.sums);
  EXPECT_EQ(a.counts, b.counts);
}

}  // namespace
}  // namespace expbsi

namespace expbsi {
namespace {

TEST_F(EngineTest, RatioMetricMatchesBruteForce) {
  // click-rate-like ratio: metric 8372 (binary) over metric 8371 sums.
  const BucketValues ratio = ComputeStrategyRatioMetricBsi(
      *bsi_, 502, 8372, 8371, kStart, kEnd);
  const BucketValues num =
      ComputeStrategyMetricBsi(*bsi_, 502, 8372, kStart, kEnd);
  const BucketValues den =
      ComputeStrategyMetricBsi(*bsi_, 502, 8371, kStart, kEnd);
  EXPECT_EQ(ratio.sums, num.sums);
  EXPECT_EQ(ratio.counts, den.sums);
  const MetricEstimate est = EstimateRatio(ratio);
  EXPECT_NEAR(est.mean, num.total_sum() / den.total_sum(), 1e-12);
  EXPECT_GT(est.var_of_mean, 0.0);
}

}  // namespace
}  // namespace expbsi
