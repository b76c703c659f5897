// Table 7: CPU hours consumed by the daily pre-computation of scorecard
// results over all strategy-metric pairs, normal (Spark-SQL-style) vs BSI.
//
// Paper (production scale): 240,000 strategy-metric pairs, ~8,500
// strategies, 21M exposed users per strategy on average -- 22,712 CPU hours
// with the normal format vs 5,446 with BSI (a 4.17x saving). The shape to
// reproduce: BSI consumes a fraction of the normal method's CPU (and moves
// far fewer bytes from the warehouse). Two configurations run: buckets ==
// segments, and the paper's 1,024 buckets per segment (§4.2), where the BSI
// side is the per-bucket group-by.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/precompute_pipeline.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"

using namespace expbsi;

namespace {

constexpr int kSegments = 4;
constexpr int kDays = 7;
constexpr int kMetrics = 20;

// Runs the normal and BSI pipelines over every pair of a dataset generated
// with `config`, prints one Table 7 block and returns normal CPU / BSI CPU,
// or a negative value if the two pipelines disagree on any bucket value.
double RunConfiguration(const char* label, const DatasetConfig& config,
                        const std::vector<MetricConfig>& metrics) {
  // Two concurrent experiments with 3 arms each -> 6 strategies.
  ExperimentConfig exp1;
  exp1.strategy_ids = {101, 102, 103};
  exp1.arm_effects = {1.0, 1.05, 0.97};
  exp1.traffic_salt = 1;
  ExperimentConfig exp2;
  exp2.strategy_ids = {201, 202, 203};
  exp2.arm_effects = {1.0, 1.02, 1.0};
  exp2.traffic_salt = 2;

  std::printf("\n--- %s: %d buckets ---\n", label,
              config.effective_buckets());
  std::printf("generating dataset ...\n");
  Dataset dataset = GenerateDataset(config, {exp1, exp2}, metrics, {});
  size_t total_rows = 0;
  for (const SegmentData& seg : dataset.segments) {
    total_rows += seg.metrics.size();
  }
  std::printf("  %s metric rows\n",
              bench_util::HumanCount(static_cast<double>(total_rows)).c_str());
  ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);

  std::vector<StrategyMetricPair> pairs;
  for (uint64_t strategy : {101, 102, 103, 201, 202, 203}) {
    for (const MetricConfig& m : metrics) {
      pairs.emplace_back(strategy, m.metric_id);
    }
  }

  PrecomputeConfig pipe_config;
  pipe_config.num_threads = 4;
  pipe_config.batch_size = 32;

  PrecomputePipeline normal_pipe(&dataset, &bsi, pipe_config);
  std::printf("running normal-format pipeline (%zu pairs) ...\n",
              pairs.size());
  const PrecomputeStats normal = normal_pipe.RunNormal(pairs, 0, kDays - 1);

  PrecomputePipeline bsi_pipe(&dataset, &bsi, pipe_config);
  std::printf("running BSI pipeline (%zu pairs) ...\n", pairs.size());
  const PrecomputeStats bsi_stats = bsi_pipe.RunBsi(pairs, 0, kDays - 1);

  // Sanity: both pipelines computed identical bucket values.
  for (const StrategyMetricPair& pair : pairs) {
    const BucketValues* n = normal_pipe.GetResult(pair);
    const BucketValues* b = bsi_pipe.GetResult(pair);
    if (n->sums != b->sums || n->counts != b->counts) {
      std::printf("RESULT MISMATCH for pair (%llu, %llu)!\n",
                  static_cast<unsigned long long>(pair.first),
                  static_cast<unsigned long long>(pair.second));
      return -1.0;
    }
  }

  std::printf("\n%-10s %16s %18s %14s\n", "Format", "CPU seconds",
              "warehouse bytes", "pairs");
  std::printf("%-10s %16.3f %18s %14d\n", "Normal", normal.cpu_seconds,
              bench_util::HumanBytes(
                  static_cast<double>(normal.bytes_read)).c_str(),
              normal.pairs_computed);
  std::printf("%-10s %16.3f %18s %14d\n", "BSI", bsi_stats.cpu_seconds,
              bench_util::HumanBytes(
                  static_cast<double>(bsi_stats.bytes_read)).c_str(),
              bsi_stats.pairs_computed);
  std::printf("  normal bytes / BSI bytes = %5.2fx   (paper reports "
              "\"hundreds of PB\" of traffic for normal)\n",
              static_cast<double>(normal.bytes_read) /
                  static_cast<double>(bsi_stats.bytes_read));
  std::printf("  results verified identical across both pipelines\n");
  return normal.cpu_seconds / bsi_stats.cpu_seconds;
}

}  // namespace

int main() {
  const uint64_t users = bench_util::ScaledUsers(100000);

  bench_util::PrintBanner(
      "Table 7: CPU for pre-computing all strategy-metric scorecards",
      "paper: 22712 CPU hours (normal) vs 5446 (BSI) -- BSI ~ 1/4.2 of "
      "normal");

  DatasetConfig config;
  config.num_users = users;
  config.num_segments = kSegments;
  config.num_days = kDays;
  config.seed = 20231121;
  const std::vector<MetricConfig> metrics =
      MakeCoreMetricPopulation(kMetrics, 1001, 9);

  std::printf("scale: %llu users, %d segments, %d days, %d strategies x %d "
              "metrics = %d pairs\n",
              static_cast<unsigned long long>(users), kSegments, kDays, 6,
              kMetrics, 6 * kMetrics);

  // The paper's common case (buckets are segments), then its §4.2 batch:
  // "sum the filtered-value by bucket-id, generating 1024 bucket-values
  // for each segment".
  const double segment_ratio =
      RunConfiguration("bucket == segment", config, metrics);
  if (segment_ratio < 0) return 1;
  config.bucket_equals_segment = false;
  config.num_buckets = 1024;
  const double bucket_ratio =
      RunConfiguration("bucket != segment", config, metrics);
  if (bucket_ratio < 0) return 1;

  std::printf("\nshape checks vs paper:\n");
  std::printf("  normal CPU / BSI CPU, bucket == segment = %5.2fx   "
              "(paper: 4.17x)\n",
              segment_ratio);
  std::printf("  normal CPU / BSI CPU, 1024 buckets      = %5.2fx\n",
              bucket_ratio);
  return 0;
}
