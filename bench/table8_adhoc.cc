// Table 8: latency of ad-hoc queries computing the core-metric results of a
// 3-strategy experiment over one week, on the ClickHouse-like cluster
// (§5.3, Fig. 8), normal expose-bitmap baseline vs BSI -- repeated 10x as
// in the paper.
//
// Paper (production scale, 200M exposed users per strategy): 22.3 s average
// latency with the normal format vs 6.0 s with BSI (~3.7x). The shape to
// reproduce: the BSI method answers the same query several times faster,
// and repeat queries run entirely from the hot tier.
//
// Latencies are measured wall time on this machine with the cluster's nodes
// run one after another (both methods), not a parallel cluster's latency.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/adhoc_cluster.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"

using namespace expbsi;

int main() {
  bench_util::OraclePreflight();
  const uint64_t users = bench_util::ScaledUsers(200000);
  const int kSegments = 4;
  const int kDays = 7;
  const int kMetrics = 40;
  const int kRepeats = 10;

  bench_util::PrintBanner(
      "Table 8: ad-hoc query latency, normal expose-bitmap scan vs BSI",
      "paper: 22.3s (normal) vs 6.0s (BSI) average -- BSI ~3.7x faster");

  DatasetConfig config;
  config.num_users = users;
  config.num_segments = kSegments;
  config.num_days = kDays;
  config.seed = 314;

  ExperimentConfig exp;  // "a huge experiment": 3 strategies, full traffic
  exp.strategy_ids = {8764293, 8764294, 8764295};
  exp.arm_effects = {1.0, 1.03, 0.99};
  exp.traffic_salt = 7;

  const std::vector<MetricConfig> metrics =
      MakeCoreMetricPopulation(kMetrics, 1001, 9);

  std::printf("scale: %llu users, %d segments, %d metrics x %d days, "
              "3 strategies, %d repeats\n",
              static_cast<unsigned long long>(users), kSegments, kMetrics,
              kDays, kRepeats);
  std::printf("generating dataset ...\n");
  Dataset dataset = GenerateDataset(config, {exp}, metrics, {});
  ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);

  AdhocClusterConfig cluster_config;
  cluster_config.num_nodes = 4;
  AdhocCluster cluster(&dataset, &bsi, cluster_config);

  std::vector<uint64_t> metric_ids;
  for (const MetricConfig& m : metrics) metric_ids.push_back(m.metric_id);
  const std::vector<uint64_t> strategies = {8764293, 8764294, 8764295};

  double normal_total = 0, bsi_total = 0;
  double bsi_first = 0;
  uint64_t bsi_cold_bytes_first = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const auto bsi_result = cluster.QueryBsi(strategies, metric_ids, 0, 6);
    if (!bsi_result.ok()) {
      std::printf("BSI query failed: %s\n",
                  bsi_result.status().ToString().c_str());
      return 1;
    }
    const auto& bsi_stats = bsi_result.value();
    bsi_total += bsi_stats.latency_seconds;
    if (r == 0) {
      bsi_first = bsi_stats.latency_seconds;
      bsi_cold_bytes_first = bsi_stats.bytes_from_cold;
    }
    const auto normal_result =
        cluster.QueryNormalBitmap(strategies, metric_ids, 0, 6);
    if (!normal_result.ok()) {
      std::printf("normal query failed: %s\n",
                  normal_result.status().ToString().c_str());
      return 1;
    }
    const auto& normal_stats = normal_result.value();
    normal_total += normal_stats.latency_seconds;
    // Verify both methods agree on every result.
    for (const auto& [pair, result] : bsi_stats.results) {
      if (result.sums != normal_stats.results.at(pair).sums) {
        std::printf("RESULT MISMATCH (%llu, %llu)\n",
                    static_cast<unsigned long long>(pair.first),
                    static_cast<unsigned long long>(pair.second));
        return 1;
      }
    }
  }
  const double normal_avg = normal_total / kRepeats;
  const double bsi_avg = bsi_total / kRepeats;

  std::printf("\n%-10s %22s\n", "Format", "Average wall time");
  std::printf("%-10s %20.1f ms\n", "Normal", normal_avg * 1e3);
  std::printf("%-10s %20.1f ms\n", "BSI", bsi_avg * 1e3);
  std::printf("\nshape checks vs paper:\n");
  std::printf("  normal latency / BSI latency = %5.2fx   (paper: 3.7x)\n",
              normal_avg / bsi_avg);
  std::printf("  wall time with the 4 nodes run serially\n");
  std::printf("  first BSI query: %.1f ms (pulled %s from the cold "
              "warehouse); repeats run from the hot tier\n",
              bsi_first * 1e3,
              bench_util::HumanBytes(
                  static_cast<double>(bsi_cold_bytes_first)).c_str());
  std::printf("  results verified identical across both methods\n");
  return 0;
}
