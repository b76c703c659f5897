// Deep-dive analysis (§4.4): investigate a metric movement by analysis-unit
// attributes (heterogeneous effects by client-type) and by time period
// (novelty effects day by day). The filters run as BSI range searches over
// dimension logs, exactly the paper's
//   (value = 1) AND (value > 134) -> mulBSI -> expose filter
// pipeline.
//
//   ./build/examples/deep_dive_demo

#include <cstdio>

#include "engine/deepdive.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"

using namespace expbsi;

int main() {
  DatasetConfig config;
  config.num_users = 40000;
  config.num_segments = 64;
  config.num_days = 7;
  config.seed = 77;

  ExperimentConfig experiment;
  experiment.strategy_ids = {9001, 9002};
  experiment.arm_effects = {1.0, 1.10};
  experiment.traffic_salt = 8;

  MetricConfig errors;  // error-count-per-user
  errors.metric_id = 555;
  errors.value_range = 40;
  errors.daily_participation = 0.5;

  DimensionConfig client_type;  // 1 = iOS, 2 = Android, 3 = desktop
  client_type.dimension_id = 1;
  client_type.cardinality = 3;
  DimensionConfig client_version;
  client_version.dimension_id = 2;
  client_version.cardinality = 200;

  std::printf("generating dataset ...\n");
  Dataset dataset = GenerateDataset(config, {experiment}, {errors},
                                    {client_type, client_version});
  ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);

  // 1. Heterogeneous effects: break the metric down by client type.
  std::printf("\n== breakdown by client-type (days 0-6) ==\n");
  std::printf("%-12s %12s %12s %9s %9s\n", "client-type", "treat mean",
              "ctrl mean", "delta%", "p-value");
  const char* names[] = {"iOS", "Android", "desktop"};
  for (const DimensionBreakdownEntry& row : ComputeDimensionBreakdown(
           bsi, 9001, 9002, 555, 0, 6, /*dimension_id=*/1, {1, 2, 3},
           /*dim_date=*/0)) {
    std::printf("%-12s %12.4f %12.4f %8.2f%% %9.4f\n",
                names[row.dimension_value - 1], row.entry.treatment.mean,
                row.entry.control.mean,
                100.0 * row.entry.ttest.relative_diff,
                row.entry.ttest.p_value);
  }

  // 2. Compound filter, the paper's example: client-type = 1 AND
  //    client-version > 134.
  const std::vector<DimensionPredicate> preds = {
      {1, RangeOp::kEq, 1},
      {2, RangeOp::kGt, 134},
  };
  const BucketValues treat =
      ComputeStrategyMetricBsiFiltered(bsi, 9002, 555, 0, 6, preds, 0);
  const BucketValues ctrl =
      ComputeStrategyMetricBsiFiltered(bsi, 9001, 555, 0, 6, preds, 0);
  const ScorecardEntry entry = CompareStrategies(555, 9002, treat, 9001, ctrl);
  std::printf("\n== iOS with client-version > 134 ==\n");
  std::printf("%.0f treated / %.0f control units pass the filter\n",
              entry.treatment.total_count, entry.control.total_count);
  std::printf("delta %.2f%% (p=%.4f)\n", 100.0 * entry.ttest.relative_diff,
              entry.ttest.p_value);

  // 3. Novelty check: the effect day by day.
  std::printf("\n== daily breakdown (novelty check) ==\n");
  std::printf("%-5s %12s %12s %9s\n", "day", "treat mean", "ctrl mean",
              "delta%");
  int day = 0;
  for (const ScorecardEntry& d :
       ComputeDailyBreakdown(bsi, 9001, 9002, 555, 0, 6)) {
    std::printf("%-5d %12.4f %12.4f %8.2f%%\n", day++, d.treatment.mean,
                d.control.mean, 100.0 * d.ttest.relative_diff);
  }
  return 0;
}
