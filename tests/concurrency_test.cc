// Concurrency stress for the components that run under parallel query load:
// ThreadPool, TieredStore (shared per-node hot tier), AdhocCluster::QueryBsi
// and PrecomputePipeline. These tests are meaningful in any build but exist
// primarily for the TSan preset (cmake --preset tsan), which turns latent
// data races into hard failures. Sizes are kept small: TSan multiplies
// runtime ~10x and CI may be single-core.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/adhoc_cluster.h"
#include "cluster/precompute_pipeline.h"
#include "common/threadpool.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"
#include "storage/tiered_store.h"

namespace expbsi {
namespace {

// num_buckets 0 keeps buckets == segments, the mode AdhocCluster requires.
Dataset MakeDataset(int num_buckets = 0) {
  DatasetConfig config;
  config.num_users = num_buckets == 0 ? 400 : 4000;
  config.num_segments = 4;
  config.bucket_equals_segment = num_buckets == 0;
  if (num_buckets != 0) config.num_buckets = num_buckets;
  config.num_days = 4;
  config.seed = 1234;
  ExperimentConfig experiment;
  experiment.strategy_ids = {700, 701};
  experiment.arm_effects = {1.0, 1.1};
  MetricConfig metric_a;
  metric_a.metric_id = 31;
  metric_a.value_range = 200;
  MetricConfig metric_b;
  metric_b.metric_id = 32;
  metric_b.value_range = 5;
  metric_b.daily_participation = 0.5;
  return GenerateDataset(config, {experiment}, {metric_a, metric_b}, {});
}

TEST(ConcurrencyTest, ThreadPoolSubmitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  // Producers submit concurrently with each other and with the workers.
  std::vector<std::thread> producers;
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 200;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);

  // Repeated Wait barriers interleaved with fresh work.
  for (int round = 0; round < 10; ++round) {
    ParallelFor(pool, 16, [&executed](int) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer + 160);
}

TEST(ConcurrencyTest, TieredStoreSharedAcrossThreads) {
  BsiStore cold;
  std::vector<BsiStoreKey> keys;
  for (uint16_t seg = 0; seg < 8; ++seg) {
    for (uint64_t id = 0; id < 8; ++id) {
      const BsiStoreKey key{seg, BsiKind::kMetric, id, 0};
      cold.Put(key, std::string(100 + 64 * id, 'a' + (seg + id) % 26));
      keys.push_back(key);
    }
  }
  // Tiny hot budget: concurrent fetches constantly evict each other's
  // entries, hammering the LRU list from all threads.
  TieredStore tier(&cold, /*hot_capacity_bytes=*/600);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const BsiStoreKey& key = keys[(i * 7 + t * 13) % keys.size()];
        if ((i & 15) == 0) (void)tier.Warm(key);
        Result<std::shared_ptr<const std::string>> blob = tier.Fetch(key);
        if (!blob.ok() ||
            blob.value()->size() != 100 + 64 * key.id) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if ((i & 31) == 0) (void)tier.stats();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const TieredStore::Stats stats = tier.stats();
  EXPECT_EQ(stats.hot_hits + stats.cold_reads, 4u * 300u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ConcurrencyTest, AdhocClusterParallelQueryBsi) {
  const Dataset dataset = MakeDataset();
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  AdhocClusterConfig config;
  config.num_nodes = 2;
  // Small hot tier so concurrent queries contend on the cold path and the
  // LRU, not just on hot hits.
  config.hot_capacity_bytes_per_node = 4096;
  AdhocCluster cluster(&dataset, &bsi, config);

  const std::vector<uint64_t> strategies = {700, 701};
  const std::vector<uint64_t> metrics = {31, 32};
  const Date lo = 0, hi = 3;

  // Sequential reference run: per-pair results every concurrent query must
  // reproduce exactly (queries are read-only apart from the shared tier).
  const Result<AdhocCluster::QueryStats> expected =
      cluster.QueryBsi(strategies, metrics, lo, hi);
  ASSERT_TRUE(expected.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        const Result<AdhocCluster::QueryStats> got =
            cluster.QueryBsi(strategies, metrics, lo, hi);
        if (!got.ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (const auto& [pair, want] : expected.value().results) {
          const auto it = got.value().results.find(pair);
          if (it == got.value().results.end() ||
              it->second.sums != want.sums ||
              it->second.counts != want.counts) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Runs two pipelines over `pairs` concurrently, each fanning its batches
// out over its own 4-worker pool -- pipeline workers race against each other
// and against the other pipeline's readers of the shared (const) BSI data --
// then checks both pipelines' results against want(pair).
void ExpectParallelPipelinesMatch(
    const Dataset& dataset, const ExperimentBsiData& bsi,
    const std::function<BucketValues(const StrategyMetricPair&)>& want) {
  const Date lo = 0, hi = 3;
  std::vector<StrategyMetricPair> pairs;
  for (const uint64_t s : {700, 701}) {
    for (const uint64_t m : {31, 32}) pairs.push_back({s, m});
  }
  auto run = [&](PrecomputePipeline* pipeline) {
    pipeline->RunBsi(pairs, lo, hi);
  };
  PrecomputeConfig config;
  config.num_threads = 4;
  config.batch_size = 2;
  PrecomputePipeline a(&dataset, &bsi, config);
  PrecomputePipeline b(&dataset, &bsi, config);
  std::thread ta(run, &a);
  std::thread tb(run, &b);
  ta.join();
  tb.join();

  for (const StrategyMetricPair& pair : pairs) {
    const BucketValues expected = want(pair);
    for (PrecomputePipeline* pipeline : {&a, &b}) {
      const BucketValues* got = pipeline->GetResult(pair);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->sums, expected.sums);
      EXPECT_EQ(got->counts, expected.counts);
    }
  }
}

TEST(ConcurrencyTest, PrecomputePipelineParallelWorkers) {
  const Dataset dataset = MakeDataset();
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  ExpectParallelPipelinesMatch(
      dataset, bsi, [&bsi](const StrategyMetricPair& pair) {
        return ComputeStrategyMetricBsi(bsi, pair.first, pair.second, 0, 3);
      });
}

// The same race at the paper's 1,024 buckets, where every worker runs the
// bucket scatter with its own thread's scratch leases; checked against the
// scalar oracle.
TEST(ConcurrencyTest, PrecomputePipelineParallelWorkers1024Buckets) {
  const Dataset dataset = MakeDataset(/*num_buckets=*/1024);
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  ExpectParallelPipelinesMatch(
      dataset, bsi, [&ref](const StrategyMetricPair& pair) {
        return RefComputeStrategyMetric(ref, pair.first, pair.second, 0, 3);
      });
}

}  // namespace
}  // namespace expbsi
