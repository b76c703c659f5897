// The system architecture end to end (§5, Fig. 7/8): serialize the BSI data
// into the warehouse, run the Spark-like pre-compute pipeline over every
// strategy-metric pair, then serve ad-hoc queries from the ClickHouse-like
// cluster with its hot/cold tier -- and watch the traffic/latency accounting.
//
//   ./build/examples/cluster_demo

#include <cstdio>

#include "cluster/adhoc_cluster.h"
#include "cluster/precompute_pipeline.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"

using namespace expbsi;

int main() {
  DatasetConfig config;
  config.num_users = 40000;
  config.num_segments = 16;
  config.num_days = 7;
  config.seed = 10101;

  ExperimentConfig exp;
  exp.strategy_ids = {9001, 9002, 9003};
  exp.arm_effects = {1.0, 1.06, 0.98};
  exp.traffic_salt = 21;

  std::vector<MetricConfig> metrics = MakeCoreMetricPopulation(10, 8371, 3);

  std::printf("generating %llu users x %d days, %zu metrics ...\n",
              static_cast<unsigned long long>(config.num_users),
              config.num_days, metrics.size());
  Dataset dataset = GenerateDataset(config, {exp}, metrics, {});
  ExperimentBsiData bsi =
      BuildExperimentBsiDataParallel(dataset, true, /*num_threads=*/4);

  // --- Pre-compute pipeline (Fig. 7 left path) ------------------------------
  std::vector<StrategyMetricPair> pairs;
  for (uint64_t strategy : {9001, 9002, 9003}) {
    for (const MetricConfig& m : metrics) {
      pairs.emplace_back(strategy, m.metric_id);
    }
  }
  PrecomputeConfig precompute_config;
  precompute_config.num_threads = 4;
  precompute_config.batch_size = 16;
  PrecomputePipeline pipeline(&dataset, &bsi, precompute_config);
  const PrecomputeStats stats = pipeline.RunBsi(pairs, 0, 6);
  std::printf("\npre-computed %d strategy-metric pairs: %.3f CPU-s, "
              "%.1f MB read from the warehouse\n",
              stats.pairs_computed, stats.cpu_seconds,
              static_cast<double>(stats.bytes_read) / 1e6);

  // Scorecard assembled from the cached results.
  std::printf("\nscorecard from the pre-compute cache (metric %llu):\n",
              static_cast<unsigned long long>(metrics[0].metric_id));
  const BucketValues* control = pipeline.GetResult({9001,
                                                    metrics[0].metric_id});
  for (uint64_t treatment : {9002, 9003}) {
    const BucketValues* treat =
        pipeline.GetResult({treatment, metrics[0].metric_id});
    const ScorecardEntry entry = CompareStrategies(
        metrics[0].metric_id, treatment, *treat, 9001, *control);
    std::printf("  strategy %llu: delta %+0.2f%% (p=%.4f)\n",
                static_cast<unsigned long long>(treatment),
                100.0 * entry.ttest.relative_diff, entry.ttest.p_value);
  }

  // --- Ad-hoc cluster (Fig. 8) ----------------------------------------------
  AdhocClusterConfig cluster_config;
  cluster_config.num_nodes = 4;
  AdhocCluster cluster(&dataset, &bsi, cluster_config);
  std::printf("\nad-hoc cluster: %zu blobs / %.1f MB in the cold warehouse\n",
              cluster.cold_store().NumBlobs(),
              static_cast<double>(cluster.cold_store().TotalBytes()) / 1e6);

  std::vector<uint64_t> metric_ids;
  for (const MetricConfig& m : metrics) metric_ids.push_back(m.metric_id);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto result =
        cluster.QueryBsi({9001, 9002, 9003}, metric_ids, 0, 6);
    if (!result.ok()) {
      std::printf("query failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("  query %d: latency %.2f ms (%.2f MB cold reads, "
                "%llu hot hits)\n",
                repeat + 1, result.value().latency_seconds * 1e3,
                static_cast<double>(result.value().bytes_from_cold) / 1e6,
                static_cast<unsigned long long>(result.value().hot_hits));
  }
  std::printf("\nthe first query pulls cold blobs into the node-local hot "
              "tier; repeats serve from memory (§5.3).\n");
  return 0;
}
