#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/adhoc_cluster.h"
#include "cluster/precompute_pipeline.h"
#include "common/fault_injector.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "obs/trace.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"

namespace expbsi {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_users = 10000;
    config.num_segments = 8;
    config.num_days = 7;
    config.start_date = 50;
    config.seed = 31;

    ExperimentConfig exp;
    exp.strategy_ids = {801, 802, 803};
    exp.arm_effects = {1.0, 1.1, 1.0};
    exp.traffic_salt = 3;

    MetricConfig m1;
    m1.metric_id = 901;
    m1.value_range = 100;
    m1.daily_participation = 0.5;
    MetricConfig m2;
    m2.metric_id = 902;
    m2.value_range = 1;
    m2.daily_participation = 0.7;

    dataset_ = new Dataset(GenerateDataset(config, {exp}, {m1, m2}, {}));
    bsi_ = new ExperimentBsiData(BuildExperimentBsiData(*dataset_, true));
  }

  static void TearDownTestSuite() {
    delete bsi_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static ExperimentBsiData* bsi_;
};

Dataset* ClusterTest::dataset_ = nullptr;
ExperimentBsiData* ClusterTest::bsi_ = nullptr;

TEST_F(ClusterTest, PrecomputeBsiMatchesDirectEngine) {
  PrecomputeConfig config;
  config.num_threads = 4;
  config.batch_size = 3;
  PrecomputePipeline pipeline(dataset_, bsi_, config);
  const std::vector<StrategyMetricPair> pairs = {
      {801, 901}, {802, 901}, {803, 901}, {801, 902}, {802, 902},
  };
  const PrecomputeStats stats = pipeline.RunBsi(pairs, 50, 56);
  EXPECT_EQ(stats.pairs_computed, 5);
  EXPECT_GT(stats.cpu_seconds, 0.0);
  EXPECT_GT(stats.bytes_read, 0u);
  for (const StrategyMetricPair& pair : pairs) {
    const BucketValues* cached = pipeline.GetResult(pair);
    ASSERT_NE(cached, nullptr);
    const BucketValues direct =
        ComputeStrategyMetricBsi(*bsi_, pair.first, pair.second, 50, 56);
    EXPECT_EQ(cached->sums, direct.sums);
    EXPECT_EQ(cached->counts, direct.counts);
  }
}

TEST_F(ClusterTest, PrecomputeNormalMatchesBsi) {
  PrecomputeConfig config;
  config.num_threads = 2;
  config.batch_size = 8;
  PrecomputePipeline bsi_pipe(dataset_, bsi_, config);
  PrecomputePipeline normal_pipe(dataset_, bsi_, config);
  const std::vector<StrategyMetricPair> pairs = {{801, 901}, {802, 902}};
  bsi_pipe.RunBsi(pairs, 50, 56);
  const PrecomputeStats normal_stats = normal_pipe.RunNormal(pairs, 50, 56);
  EXPECT_EQ(normal_stats.pairs_computed, 2);
  for (const StrategyMetricPair& pair : pairs) {
    EXPECT_EQ(bsi_pipe.GetResult(pair)->sums,
              normal_pipe.GetResult(pair)->sums);
    EXPECT_EQ(bsi_pipe.GetResult(pair)->counts,
              normal_pipe.GetResult(pair)->counts);
  }
}

TEST_F(ClusterTest, NormalReadsMoreBytesThanBsi) {
  // The headline network-traffic claim: BSI blobs are much smaller than the
  // rows the normal method must move.
  const NormalDataIndex index = NormalDataIndex::Build(*dataset_);
  const uint64_t bsi_bytes = BsiPairReadBytes(*bsi_, 802, 901, 50, 56);
  const uint64_t normal_bytes =
      NormalPairReadBytes(*dataset_, index, 802, 901, 50, 56);
  EXPECT_LT(bsi_bytes, normal_bytes);

  // RunNormal's bytes_read is exactly that accounting, summed over its
  // pairs: one byte rule for the normal format.
  PrecomputeConfig config;
  config.num_threads = 2;
  config.batch_size = 8;
  PrecomputePipeline normal_pipe(dataset_, bsi_, config);
  const std::vector<StrategyMetricPair> pairs = {{801, 901}, {802, 902}};
  const PrecomputeStats stats = normal_pipe.RunNormal(pairs, 50, 56);
  uint64_t expected = 0;
  for (const StrategyMetricPair& pair : pairs) {
    expected +=
        NormalPairReadBytes(*dataset_, index, pair.first, pair.second, 50, 56);
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(stats.bytes_read, expected);
}

TEST_F(ClusterTest, AdhocBsiQueryMatchesDirectEngine) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  AdhocCluster cluster(dataset_, bsi_, config);
  Result<AdhocCluster::QueryStats> stats_or =
      cluster.QueryBsi({801, 802}, {901, 902}, 50, 56);
  ASSERT_TRUE(stats_or.ok());
  const AdhocCluster::QueryStats& stats = stats_or.value();
  EXPECT_GT(stats.latency_seconds, 0.0);
  ASSERT_EQ(stats.results.size(), 4u);
  for (const auto& [pair, result] : stats.results) {
    const BucketValues direct =
        ComputeStrategyMetricBsi(*bsi_, pair.first, pair.second, 50, 56);
    EXPECT_EQ(result.sums, direct.sums) << pair.first << "/" << pair.second;
    EXPECT_EQ(result.counts, direct.counts);
  }
}

TEST_F(ClusterTest, AdhocNormalBitmapMatchesBsiResults) {
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  const auto bsi_stats = cluster.QueryBsi({802}, {901}, 50, 56);
  const auto normal_stats = cluster.QueryNormalBitmap({802}, {901}, 50, 56);
  ASSERT_TRUE(bsi_stats.ok());
  ASSERT_TRUE(normal_stats.ok());
  const BucketValues& a = bsi_stats.value().results.at({802, 901});
  const BucketValues& b = normal_stats.value().results.at({802, 901});
  EXPECT_EQ(a.sums, b.sums);
  EXPECT_EQ(a.counts, b.counts);
}

TEST_F(ClusterTest, RepeatQueriesHitHotTier) {
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  const auto first_or = cluster.QueryBsi({801}, {901}, 50, 56);
  ASSERT_TRUE(first_or.ok());
  EXPECT_GT(first_or.value().bytes_from_cold, 0u);
  const auto second_or = cluster.QueryBsi({801}, {901}, 50, 56);
  ASSERT_TRUE(second_or.ok());
  EXPECT_EQ(second_or.value().bytes_from_cold, 0u);
  EXPECT_GT(second_or.value().hot_hits, 0u);
}

// The normal-format baseline must report the same hot/cold IO shape as the
// BSI path (first touch = cold bytes, reuse = hot hits), so the two paths'
// QueryStats are comparable and the asymmetry fixed here can't regress.
TEST_F(ClusterTest, RepeatNormalBitmapQueriesHitHotTierLikeBsi) {
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  const auto first_or = cluster.QueryNormalBitmap({801}, {901}, 50, 56);
  ASSERT_TRUE(first_or.ok());
  EXPECT_GT(first_or.value().bytes_from_cold, 0u);
  EXPECT_EQ(first_or.value().hot_hits, 0u);
  const auto second_or = cluster.QueryNormalBitmap({801}, {901}, 50, 56);
  ASSERT_TRUE(second_or.ok());
  EXPECT_EQ(second_or.value().bytes_from_cold, 0u);
  EXPECT_GT(second_or.value().hot_hits, 0u);

  // Same first/repeat signature the BSI path shows on a fresh cluster
  // (RepeatQueriesHitHotTier), asserted side by side.
  AdhocCluster bsi_cluster(dataset_, bsi_, AdhocClusterConfig{});
  const auto bsi_first = bsi_cluster.QueryBsi({801}, {901}, 50, 56);
  ASSERT_TRUE(bsi_first.ok());
  const auto bsi_second = bsi_cluster.QueryBsi({801}, {901}, 50, 56);
  ASSERT_TRUE(bsi_second.ok());
  EXPECT_GT(bsi_first.value().bytes_from_cold, 0u);
  EXPECT_EQ(bsi_second.value().bytes_from_cold, 0u);
  EXPECT_GT(bsi_second.value().hot_hits, 0u);
}

TEST_F(ClusterTest, QueryStatsCarryFinishedTraceTree) {
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  const auto bsi_or = cluster.QueryBsi({801, 802}, {901}, 50, 56);
  ASSERT_TRUE(bsi_or.ok());
  ASSERT_NE(bsi_or.value().trace, nullptr);
  const auto spans = bsi_or.value().trace->spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].name, "adhoc_query_bsi");
  EXPECT_FALSE(spans[0].open);  // root closed before the stats returned
  bool has_wave = false, has_node = false, has_segment = false;
  for (const auto& span : spans) {
    EXPECT_FALSE(span.open);
    EXPECT_LT(span.parent_id, span.id);
    if (span.name == "wave") has_wave = true;
    if (span.name == "node_rpc") has_node = true;
    if (span.name == "segment_execute") has_segment = true;
  }
  EXPECT_TRUE(has_wave);
  EXPECT_TRUE(has_node);
  EXPECT_TRUE(has_segment);

  const auto norm_or = cluster.QueryNormalBitmap({801}, {901}, 50, 56);
  ASSERT_TRUE(norm_or.ok());
  ASSERT_NE(norm_or.value().trace, nullptr);
  const std::string tree = norm_or.value().trace->ToText();
  EXPECT_NE(tree.find("adhoc_query_normal"), std::string::npos);
  EXPECT_NE(tree.find("node_scan"), std::string::npos);
}

TEST_F(ClusterTest, ColdStoreHoldsAllBlobs) {
  const BsiStore store = BuildColdStore(*bsi_);
  // 8 segments x (3 expose + 2 metrics x 7 days) = 8 * 17 blobs, minus any
  // (metric, day) with no rows in a segment.
  EXPECT_GT(store.NumBlobs(), 100u);
  EXPECT_GT(store.TotalBytes(), 0u);
  EXPECT_TRUE(store.Contains(BsiStoreKey{0, BsiKind::kExpose, 801, 0}));
}

TEST_F(ClusterTest, CorruptColdBlobSurfacesAsStatusNotCrash) {
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  // Inject garbage over a metric blob in the warehouse.
  cluster.mutable_cold_store().Put(BsiStoreKey{0, BsiKind::kMetric, 901, 52},
                                   "garbage bytes that are not a bsi");
  const auto result = cluster.QueryBsi({801}, {901}, 50, 56);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  // Queries that avoid the corrupt blob still work.
  const auto other = cluster.QueryBsi({801}, {902}, 50, 56);
  EXPECT_TRUE(other.ok());
}

TEST_F(ClusterTest, QueryBsiEmptyListsYieldEmptyResults) {
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  const auto no_strategies = cluster.QueryBsi({}, {901}, 50, 56);
  ASSERT_TRUE(no_strategies.ok());
  EXPECT_TRUE(no_strategies.value().results.empty());
  EXPECT_FALSE(no_strategies.value().degraded.degraded());
  const auto no_metrics = cluster.QueryBsi({801}, {}, 50, 56);
  ASSERT_TRUE(no_metrics.ok());
  EXPECT_TRUE(no_metrics.value().results.empty());
}

TEST_F(ClusterTest, QueryBsiInvertedDateRangeIsACheckedContractError) {
  AdhocCluster cluster(dataset_, bsi_, AdhocClusterConfig{});
  EXPECT_DEATH(cluster.QueryBsi({801}, {901}, 56, 50).ok(), "CHECK failed");
}

TEST_F(ClusterTest, UnknownStrategyIsAbsenceNotDegradation) {
  // NotFound is semantic absence: the strategy simply has no expose log, so
  // every slot stays zero and nothing is retried, lost or flagged.
  AdhocClusterConfig config;
  config.allow_degraded = true;
  AdhocCluster cluster(dataset_, bsi_, config);
  const auto stats = cluster.QueryBsi({777777}, {901}, 50, 56);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().degraded.degraded());
  EXPECT_EQ(stats.value().degraded.retries, 0);
  const BucketValues& values = stats.value().results.at({777777, 901});
  for (double sum : values.sums) EXPECT_EQ(sum, 0.0);
  for (double count : values.counts) EXPECT_EQ(count, 0.0);
}

TEST_F(ClusterTest, CorruptBlobInDegradedModeLosesOnlyItsSegment) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  config.allow_degraded = true;
  AdhocCluster cluster(dataset_, bsi_, config);
  // Garbage stored in the warehouse itself: the transfer fingerprint
  // matches (the warehouse faithfully serves what it stores), so detection
  // falls to the decoder, and retries cannot help. Segment 2 alone is
  // dropped -- and reported.
  cluster.mutable_cold_store().Put(BsiStoreKey{2, BsiKind::kMetric, 901, 52},
                                   "garbage bytes that are not a bsi");
  const auto stats = cluster.QueryBsi({801, 802}, {901}, 50, 56);
  ASSERT_TRUE(stats.ok());
  const auto& degraded = stats.value().degraded;
  EXPECT_EQ(degraded.lost_segments, std::vector<int>{2});
  EXPECT_EQ(degraded.segments_answered, dataset_->config.num_segments - 1);
  for (const auto& [pair, values] : stats.value().results) {
    const BucketValues direct =
        ComputeStrategyMetricBsi(*bsi_, pair.first, pair.second, 50, 56);
    for (size_t seg = 0; seg < values.sums.size(); ++seg) {
      if (seg == 2) {
        EXPECT_EQ(values.sums[seg], 0.0);
        EXPECT_EQ(values.counts[seg], 0.0);
      } else {
        EXPECT_EQ(values.sums[seg], direct.sums[seg]);
        EXPECT_EQ(values.counts[seg], direct.counts[seg]);
      }
    }
  }
}

TEST_F(ClusterTest, SegmentOwnershipCoversAllNodes) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  AdhocCluster cluster(dataset_, bsi_, config);
  std::vector<int> owned(3, 0);
  for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
    const int node = cluster.NodeOfSegment(seg);
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 3);
    ++owned[node];
  }
  for (int n : owned) EXPECT_GT(n, 0);
}

// Value of span attribute `key`, or -1 when the span does not carry it.
int64_t SpanAttr(const obs::QueryTrace::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return static_cast<int64_t>(v);
  }
  return -1;
}

// The normal-format baseline scans the same per-node ownership as the BSI
// path: each node_scan span names as many segments as the node has
// rendezvous primaries.
TEST_F(ClusterTest, NormalBitmapScansEachNodesPrimarySegments) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  AdhocCluster cluster(dataset_, bsi_, config);
  std::vector<int64_t> primaries(config.num_nodes, 0);
  for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
    ++primaries[cluster.NodeOfSegment(seg)];
  }
  const auto stats = cluster.QueryNormalBitmap({801}, {901}, 50, 56);
  ASSERT_TRUE(stats.ok());
  int node_scans = 0;
  for (const auto& span : stats.value().trace->spans()) {
    if (span.name != "node_scan") continue;
    ++node_scans;
    const int64_t node = SpanAttr(span, "node");
    ASSERT_GE(node, 0);
    ASSERT_LT(node, config.num_nodes);
    EXPECT_EQ(SpanAttr(span, "segments"), primaries[node]) << "node " << node;
  }
  EXPECT_EQ(node_scans, config.num_nodes);
}

// A node crash is scoped to its query: the next query on the same cluster
// is complete and bit-identical to the scalar oracle.
TEST_F(ClusterTest, NodeCrashInOneQueryLeavesTheNextComplete) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  AdhocCluster cluster(dataset_, bsi_, config);
  const std::vector<uint64_t> strategies = {801, 802, 803};
  const std::vector<uint64_t> metrics = {901, 902};
  FaultInjector injector(/*seed=*/21);
  // Op 0 is the first segment of the first node in query 1's first wave.
  injector.ScheduleFault(fault_sites::kNodeSegment, 0, FaultKind::kCrash);
  ScopedFaultInjection scoped(&injector);
  const auto first = cluster.QueryBsi(strategies, metrics, 50, 56);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().degraded.nodes_lost, 1);
  const auto second = cluster.QueryBsi(strategies, metrics, 50, 56);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_FALSE(second.value().degraded.degraded());
  EXPECT_EQ(second.value().degraded.nodes_lost, 0);
  EXPECT_EQ(second.value().degraded.segments_answered,
            dataset_->config.num_segments);
  const RefExperimentData ref = BuildRefExperimentData(*dataset_);
  ASSERT_EQ(second.value().results.size(),
            strategies.size() * metrics.size());
  for (const auto& [pair, values] : second.value().results) {
    const BucketValues want =
        RefComputeStrategyMetric(ref, pair.first, pair.second, 50, 56);
    EXPECT_EQ(values.sums, want.sums) << pair.first << "/" << pair.second;
    EXPECT_EQ(values.counts, want.counts);
  }
}

// latency_seconds is the query's measured wall time. The in-process nodes
// run one after another, so it covers every node's RPC and every node's
// grafted execution tree end to end.
TEST_F(ClusterTest, LatencyIsMeasuredWallTimeOverSerialNodes) {
  AdhocClusterConfig config;
  config.num_nodes = 3;
  AdhocCluster cluster(dataset_, bsi_, config);
  const auto stats = cluster.QueryBsi({801, 802}, {901, 902}, 50, 56);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().latency_seconds, 0.0);
  uint64_t rpc_ns = 0, node_query_ns = 0;
  int rpcs = 0;
  for (const auto& span : stats.value().trace->spans()) {
    if (span.name == "node_rpc") {
      ++rpcs;
      rpc_ns += span.duration_ns;
    }
    if (span.name == "node_query") node_query_ns += span.duration_ns;
  }
  EXPECT_EQ(rpcs, config.num_nodes);
  EXPECT_GT(node_query_ns, 0u);
  const double latency_ns = stats.value().latency_seconds * 1e9;
  EXPECT_GE(latency_ns, static_cast<double>(rpc_ns));
  EXPECT_GE(latency_ns, static_cast<double>(node_query_ns));
}

// node_rpc spans the RPC as the link measured it, so the node's execution
// tree grafted under it fits inside it: no child outlasts or outruns its
// node_rpc parent.
TEST_F(ClusterTest, NodeRpcSpanCoversItsGraftedChildren) {
  AdhocClusterConfig config;
  config.num_nodes = 4;
  AdhocCluster cluster(dataset_, bsi_, config);
  const auto stats = cluster.QueryBsi({801, 802}, {901, 902}, 50, 56);
  ASSERT_TRUE(stats.ok());
  const auto spans = stats.value().trace->spans();
  std::map<uint32_t, const obs::QueryTrace::Span*> rpcs;
  for (const auto& span : spans) {
    if (span.name == "node_rpc") rpcs[span.id] = &span;
  }
  EXPECT_EQ(rpcs.size(), static_cast<size_t>(config.num_nodes));
  int children = 0;
  for (const auto& span : spans) {
    const auto it = rpcs.find(span.parent_id);
    if (it == rpcs.end()) continue;
    const obs::QueryTrace::Span& rpc = *it->second;
    ++children;
    EXPECT_GE(rpc.duration_ns, span.duration_ns) << span.name;
    EXPECT_GE(span.start_ns, rpc.start_ns) << span.name;
    EXPECT_LE(span.start_ns + span.duration_ns,
              rpc.start_ns + rpc.duration_ns)
        << span.name;
  }
  EXPECT_GE(children, config.num_nodes);
}

}  // namespace
}  // namespace expbsi
