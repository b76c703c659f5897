// Network chaos suite (DESIGN.md §9, docs/TESTING.md "Network chaos"):
// seeded fault schedules over the net.* sites replayed against a REAL
// TCP serving stack -- node servers on loopback, the scatter/gather
// coordinator in front. The invariants mirror the in-process chaos suite:
//
//   (a) a fault-free remote scorecard is BIT-IDENTICAL to the in-process
//       AdhocCluster's and the scalar oracle's;
//   (b) a degraded result enumerates exactly the lost segments -- every
//       other segment's values still match the fault-free run bit for bit
//       (never a silent loss);
//   (c) no crash, no hang: drops and truncations surface as prompt
//       connection closes, never timeout races, so schedules replay
//       deterministically.
//
// Reproducing a failure: every assertion message carries the iteration
// seed. Re-run just that seed with
//
//   EXPBSI_CHAOS_SEED=<seed> ./build/tests/expbsi_tests
//       --gtest_filter='NetChaosTest.*'   (one command, line-wrapped)
//
// EXPBSI_CHAOS_ITERS widens the random exploration (the CI net job runs
// 200 in Release); tests/corpus/net_seeds.txt is replayed BEFORE the
// exploration. EXPBSI_CHAOS_LOG=1 prints a one-line classification per
// seed, which is how corpus candidates are hunted.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/adhoc_cluster.h"
#include "cluster/placement.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "net/coordinator.h"
#include "net/node_server.h"
#include "net/repair.h"
#include "storage/bsi_store.h"

namespace expbsi {
namespace {

// ---------------------------------------------------------------------------
// Seed schedule (same shape as chaos_test.cc).
// ---------------------------------------------------------------------------

uint64_t Splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<uint64_t> NetCorpusSeeds() {
  std::vector<uint64_t> seeds;
#ifdef EXPBSI_CORPUS_DIR
  std::ifstream in(std::string(EXPBSI_CORPUS_DIR) + "/net_seeds.txt");
  EXPECT_TRUE(in.good()) << "missing corpus file " << EXPBSI_CORPUS_DIR
                         << "/net_seeds.txt";
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    uint64_t seed;
    if (ls >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 4u) << "net chaos corpus unexpectedly small";
#endif
  return seeds;
}

int ExploreIters() {
  if (const char* env = std::getenv("EXPBSI_CHAOS_ITERS")) {
    return static_cast<int>(std::strtol(env, nullptr, 0));
  }
  return 25;
}

std::vector<uint64_t> SeedSchedule(uint64_t base) {
  if (const char* env = std::getenv("EXPBSI_CHAOS_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
  }
  std::vector<uint64_t> seeds = NetCorpusSeeds();
  uint64_t x = base;
  for (int i = 0, n = ExploreIters(); i < n; ++i) {
    x = Splitmix(x);
    seeds.push_back(x);
  }
  return seeds;
}

std::string Ctx(uint64_t seed, const std::string& what) {
  return what + " (reproduce: EXPBSI_CHAOS_SEED=" + std::to_string(seed) +
         " ./build/tests/expbsi_tests"
         " --gtest_filter='NetChaosTest.*')";
}

bool ChaosLogEnabled() {
  static const bool enabled = std::getenv("EXPBSI_CHAOS_LOG") != nullptr;
  return enabled;
}

// ---------------------------------------------------------------------------
// Fixture: one dataset, fault-free baselines, warehouse store shared by
// every node server. Servers are restarted per iteration so their fault op
// counters (accepts, requests, sends) restart from zero -- a schedule is a
// pure function of the seed, not of how many iterations ran before it.
// ---------------------------------------------------------------------------

constexpr Date kLo = 10;
constexpr Date kHi = 14;
constexpr int kNumNodes = 3;
const std::vector<uint64_t> kStrategies = {801, 802};
const std::vector<uint64_t> kMetrics = {901, 902};

class NetChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Shared with ReplicationChaosTest (a subclass): guard against a second
    // initialization when both suites run in one process.
    if (dataset_ != nullptr) return;
    DatasetConfig config;
    config.num_users = 3000;
    config.num_segments = 6;
    config.num_days = 5;
    config.start_date = kLo;
    config.seed = 71;

    ExperimentConfig exp;
    exp.strategy_ids = {801, 802};
    exp.arm_effects = {1.0, 1.1};
    exp.traffic_salt = 5;

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
    cold_ = new BsiStore(BuildColdStore(*bsi_));
    baseline_ = new std::map<StrategyMetricPair, BucketValues>();
    for (uint64_t s : kStrategies) {
      for (uint64_t m : kMetrics) {
        (*baseline_)[{s, m}] = ComputeStrategyMetricBsi(*bsi_, s, m, kLo, kHi);
      }
    }
  }

  static void TearDownTestSuite() {
    delete baseline_;
    delete cold_;
    delete bsi_;
    delete dataset_;
    baseline_ = nullptr;
    cold_ = nullptr;
    bsi_ = nullptr;
    dataset_ = nullptr;
  }

  struct Fleet {
    std::vector<std::unique_ptr<net::NodeServer>> nodes;
    net::CoordinatorOptions options;

    ~Fleet() {
      for (auto& node : nodes) node->Stop();
    }
  };

  static std::unique_ptr<Fleet> StartFleet(bool allow_degraded,
                                           double deadline_seconds = 10.0) {
    auto fleet = std::make_unique<Fleet>();
    for (int i = 0; i < kNumNodes; ++i) {
      net::NodeServerOptions node_options;
      node_options.node_id = i;
      auto node = std::make_unique<net::NodeServer>(cold_, node_options);
      EXPECT_TRUE(node->Start().ok());
      fleet->options.node_ports.push_back(node->port());
      fleet->nodes.push_back(std::move(node));
    }
    fleet->options.num_segments = dataset_->config.num_segments;
    fleet->options.allow_degraded = allow_degraded;
    fleet->options.query_deadline_seconds = deadline_seconds;
    return fleet;
  }

  static void ExpectMatchesBaselineExcept(
      const std::map<StrategyMetricPair, BucketValues>& results,
      const std::vector<int>& lost_segments, const std::string& ctx) {
    const std::set<int> lost(lost_segments.begin(), lost_segments.end());
    ASSERT_EQ(results.size(), baseline_->size()) << ctx;
    for (const auto& [pair, values] : results) {
      const BucketValues& want = baseline_->at(pair);
      ASSERT_EQ(values.sums.size(), want.sums.size()) << ctx;
      ASSERT_EQ(values.counts.size(), want.counts.size()) << ctx;
      for (size_t seg = 0; seg < values.sums.size(); ++seg) {
        if (lost.count(static_cast<int>(seg)) > 0) {
          EXPECT_EQ(values.sums[seg], 0.0)
              << ctx << " lost segment " << seg << " has a nonzero sum";
          EXPECT_EQ(values.counts[seg], 0.0)
              << ctx << " lost segment " << seg << " has a nonzero count";
        } else {
          EXPECT_EQ(values.sums[seg], want.sums[seg])
              << ctx << " pair " << pair.first << "/" << pair.second
              << " segment " << seg << " diverged without being reported";
          EXPECT_EQ(values.counts[seg], want.counts[seg])
              << ctx << " pair " << pair.first << "/" << pair.second
              << " segment " << seg << " count diverged";
        }
      }
    }
  }

  static void ExpectDegradedInfoWellFormed(
      const AdhocCluster::DegradedInfo& info, const std::string& ctx) {
    EXPECT_TRUE(std::is_sorted(info.lost_segments.begin(),
                               info.lost_segments.end()))
        << ctx;
    EXPECT_EQ(std::adjacent_find(info.lost_segments.begin(),
                                 info.lost_segments.end()),
              info.lost_segments.end())
        << ctx << " duplicate lost segment";
    for (int seg : info.lost_segments) {
      EXPECT_GE(seg, 0) << ctx;
      EXPECT_LT(seg, dataset_->config.num_segments) << ctx;
    }
    EXPECT_EQ(info.segments_answered,
              dataset_->config.num_segments -
                  static_cast<int>(info.lost_segments.size()))
        << ctx;
  }

  // One chaos iteration: draw per-site probabilities from the seed, start a
  // fresh fleet, run one degraded-mode scorecard query under injection, and
  // check invariants (a)-(c). The schedule covers both link directions
  // (net.send fires on the coordinator's endpoints AND the nodes' reply
  // endpoints), accept-time drops, mid-scatter node kills, and node-local
  // warehouse faults (tier.fetch) so node-side retry/loss accounting is
  // exercised through the wire too.
  static void RunNetIteration(uint64_t seed) {
    Rng rng(seed);
    FaultInjector injector(Splitmix(seed ^ 0x4E7C4405ull));
    injector.SetFailProbability(fault_sites::kNetSend,
                                rng.NextBounded(16) / 100.0);
    injector.SetTruncateProbability(fault_sites::kNetSend,
                                    rng.NextBounded(11) / 100.0);
    injector.SetDuplicateProbability(fault_sites::kNetSend,
                                     rng.NextBounded(16) / 100.0);
    injector.SetDelayProbability(fault_sites::kNetSend,
                                 rng.NextBounded(11) / 100.0,
                                 /*delay_seconds=*/0.002);
    injector.SetFailProbability(fault_sites::kNetAccept,
                                rng.NextBounded(11) / 100.0);
    injector.SetCrashProbability(fault_sites::kNetNodeCrash,
                                 rng.NextBounded(7) / 100.0);
    injector.SetFailProbability(fault_sites::kTierFetch,
                                rng.NextBounded(11) / 100.0);
    injector.SetCorruptProbability(fault_sites::kTierFetch,
                                   rng.NextBounded(11) / 100.0);

    std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
    net::Coordinator coordinator(fleet->options);
    Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
    {
      ScopedFaultInjection scoped(&injector);
      result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    }
    const std::string ctx = Ctx(seed, "net chaos");
    ASSERT_TRUE(result.ok()) << ctx << " degraded-mode query failed: "
                             << result.status().ToString();
    const AdhocCluster::QueryStats& stats = result.value();
    ExpectDegradedInfoWellFormed(stats.degraded, ctx);
    ExpectMatchesBaselineExcept(stats.results, stats.degraded.lost_segments,
                                ctx);
    if (ChaosLogEnabled()) {
      const FaultInjector::Stats fs = injector.stats();
      std::fprintf(
          stderr,
          "[netchaos] seed=%llu lost=%d nodes_lost=%d survived=%d "
          "drops=%llu dups=%llu truncs=%llu crashes=%llu injected=%llu\n",
          static_cast<unsigned long long>(seed),
          static_cast<int>(stats.degraded.lost_segments.size()),
          stats.degraded.nodes_lost, stats.degraded.faults_survived,
          static_cast<unsigned long long>(fs.fails),
          static_cast<unsigned long long>(fs.duplicates),
          static_cast<unsigned long long>(fs.truncations),
          static_cast<unsigned long long>(fs.crashes),
          static_cast<unsigned long long>(fs.any()));
    }
  }

  static Dataset* dataset_;
  static ExperimentBsiData* bsi_;
  static BsiStore* cold_;
  static std::map<StrategyMetricPair, BucketValues>* baseline_;
};

Dataset* NetChaosTest::dataset_ = nullptr;
ExperimentBsiData* NetChaosTest::bsi_ = nullptr;
BsiStore* NetChaosTest::cold_ = nullptr;
std::map<StrategyMetricPair, BucketValues>* NetChaosTest::baseline_ = nullptr;

// ---------------------------------------------------------------------------
// Baseline sanity: the fault-free remote answer IS the oracle answer.
// ---------------------------------------------------------------------------

TEST_F(NetChaosTest, FaultFreeRemoteQueryMatchesScalarOracle) {
  ASSERT_EQ(FaultInjector::Get(), nullptr);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/false);
  net::Coordinator coordinator(fleet->options);
  const auto stats = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats.value().degraded.degraded());
  ExpectMatchesBaselineExcept(stats.value().results, {}, "fault-free");
}

// ---------------------------------------------------------------------------
// The seeded sweep (corpus first, then exploration).
// ---------------------------------------------------------------------------

TEST_F(NetChaosTest, SurvivesSeededNetFaultSchedules) {
  for (uint64_t seed : SeedSchedule(0x4E7C4A05ull)) {
    RunNetIteration(seed);
    if (HasFatalFailure()) return;
  }
}

// Same seed, fresh fleet, fresh coordinator, fresh injector: results and
// degradation accounting replay identically even though real sockets and
// threads are involved (drops are connection closes, not timing races).
TEST_F(NetChaosTest, SameSeedReplaysIdentically) {
  const uint64_t seed = Splitmix(0x4E7DE7ull);
  auto run = [&](std::map<StrategyMetricPair, BucketValues>* results,
                 AdhocCluster::DegradedInfo* degraded) {
    FaultInjector injector(Splitmix(seed ^ 0x4E7C4405ull));
    injector.SetFailProbability(fault_sites::kNetSend, 0.15);
    injector.SetTruncateProbability(fault_sites::kNetSend, 0.08);
    injector.SetDuplicateProbability(fault_sites::kNetSend, 0.10);
    injector.SetCrashProbability(fault_sites::kNetNodeCrash, 0.10);
    std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
    net::Coordinator coordinator(fleet->options);
    ScopedFaultInjection scoped(&injector);
    const auto stats = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    *results = stats.value().results;
    *degraded = stats.value().degraded;
  };
  std::map<StrategyMetricPair, BucketValues> first, second;
  AdhocCluster::DegradedInfo dfirst, dsecond;
  run(&first, &dfirst);
  if (HasFatalFailure()) return;
  run(&second, &dsecond);
  if (HasFatalFailure()) return;
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [pair, values] : first) {
    EXPECT_EQ(values.sums, second.at(pair).sums);
    EXPECT_EQ(values.counts, second.at(pair).counts);
  }
  EXPECT_EQ(dfirst.lost_segments, dsecond.lost_segments);
  EXPECT_EQ(dfirst.segments_answered, dsecond.segments_answered);
  EXPECT_EQ(dfirst.nodes_lost, dsecond.nodes_lost);
  EXPECT_EQ(dfirst.faults_survived, dsecond.faults_survived);
}

// ---------------------------------------------------------------------------
// Named scenarios (hand-pinned schedules).
// ---------------------------------------------------------------------------

// Kill-cascade sweep over the replicated routing (R = 2 by default): nodes
// 0..k-1 are each killed on their first admitted request, so wave 1 takes
// all k out at once (the capped placement gives every node at least one
// primary, so every scheduled kill fires). Any segment with a surviving
// replica fails over and stays bit-identical; a segment whose ENTIRE
// replica set was killed is enumerated exactly -- the placement-derived
// expected set -- never silently zeroed.
TEST_F(NetChaosTest, KillCascadeFailsOverUntilReplicasExhausted) {
  for (int kills = 1; kills <= kNumNodes; ++kills) {
    const std::string ctx = "kill cascade, kills=" + std::to_string(kills);
    FaultInjector injector(/*seed=*/21);
    for (int j = 0; j < kills; ++j) {
      injector.ScheduleFault(fault_sites::kNetNodeCrash,
                             static_cast<uint64_t>(j) * kNetOpStride,
                             FaultKind::kCrash);
    }
    std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
    net::Coordinator coordinator(fleet->options);
    Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
    {
      ScopedFaultInjection scoped(&injector);
      result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    }
    ASSERT_TRUE(result.ok()) << ctx << ": " << result.status().ToString();
    const AdhocCluster::QueryStats& stats = result.value();
    EXPECT_EQ(stats.degraded.nodes_lost, kills) << ctx;
    ExpectDegradedInfoWellFormed(stats.degraded, ctx);
    ExpectMatchesBaselineExcept(stats.results, stats.degraded.lost_segments,
                                ctx);
    // Exact expectations from the placement: a segment is lost iff every
    // replica was killed; it survives a fault iff its primary was killed
    // but another replica answered.
    std::vector<int> expected_lost;
    int expected_failovers = 0;
    for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
      const std::vector<int>& replicas =
          coordinator.placement().ReplicasOf(seg);
      const bool all_killed =
          std::all_of(replicas.begin(), replicas.end(),
                      [&](int n) { return n < kills; });
      if (all_killed) {
        expected_lost.push_back(seg);
      } else if (replicas[0] < kills) {
        ++expected_failovers;
      }
    }
    EXPECT_EQ(stats.degraded.lost_segments, expected_lost) << ctx;
    EXPECT_EQ(stats.degraded.faults_survived, expected_failovers) << ctx;
    if (kills == 1) {
      // The availability claim: with R=2, no single node kill loses data.
      EXPECT_TRUE(stats.degraded.lost_segments.empty())
          << ctx << " lost data with a replica available";
    }
    if (kills == kNumNodes) {
      EXPECT_EQ(static_cast<int>(stats.degraded.lost_segments.size()),
                dataset_->config.num_segments)
          << ctx << " total node loss must enumerate every segment";
    }
    for (int j = 0; j < kNumNodes; ++j) {
      EXPECT_EQ(fleet->nodes[j]->crashed(), j < kills) << ctx;
    }
  }

  // Strict mode: total node loss is an error, not a quiet zero scorecard.
  FaultInjector injector(/*seed=*/22);
  injector.SetCrashProbability(fault_sites::kNetNodeCrash, 1.0);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/false);
  net::Coordinator coordinator(fleet->options);
  ScopedFaultInjection scoped(&injector);
  const auto strict = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable);
}

// Hedged reads: one node's reply is delayed far past the hedge delay; the
// coordinator re-sends its outstanding segments to their next replica and
// the first valid answer wins. No loss, no degradation, no node penalized,
// and the query does not pay the slow node's full delay.
TEST_F(NetChaosTest, HedgedReadCoversSlowNodeWithoutLoss) {
  FaultInjector injector(/*seed=*/30);
  // One-shot delays at net.send sleep this long; schedule exactly one on
  // node 0's first reply send (server endpoints are the node ids).
  injector.SetDelayProbability(fault_sites::kNetSend, 0.0,
                               /*delay_seconds=*/1.2);
  injector.ScheduleFault(fault_sites::kNetSend, 0, FaultKind::kDelay);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/false);
  fleet->options.hedge_reads = true;
  fleet->options.hedge_delay_seconds = 0.02;
  net::Coordinator coordinator(fleet->options);
  Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
  {
    ScopedFaultInjection scoped(&injector);
    result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().degraded.degraded());
  EXPECT_EQ(result.value().degraded.nodes_lost, 0);
  EXPECT_EQ(injector.stats().delays, 1u);
  // The hedge must beat the 1.2s injected delay by a wide margin.
  EXPECT_LT(result.value().latency_seconds, 0.9);
  ExpectMatchesBaselineExcept(result.value().results, {}, "hedged-read");
}

// A truncated response frame: the coordinator sees a short read mid-frame,
// treats the node as dead and requeues its wave. Nothing is lost and the
// final scorecard is still bit-identical.
TEST_F(NetChaosTest, TruncatedResponseRequeuesWithoutLoss) {
  FaultInjector injector(/*seed=*/23);
  // Op 0 = node 0's first reply send (server endpoints are the node ids).
  injector.ScheduleFault(fault_sites::kNetSend, 0, FaultKind::kTruncate);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
  net::Coordinator coordinator(fleet->options);
  Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
  {
    ScopedFaultInjection scoped(&injector);
    result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().degraded.lost_segments.empty());
  EXPECT_EQ(result.value().degraded.nodes_lost, 1);
  EXPECT_GE(result.value().degraded.faults_survived, 1);
  EXPECT_EQ(injector.stats().truncations, 1u);
  ExpectMatchesBaselineExcept(result.value().results, {},
                              "truncated-response");
}

// A dropped request frame on the coordinator's side of the link: the
// connection closes before the node ever sees the query; requeue recovers.
TEST_F(NetChaosTest, DroppedRequestRequeuesWithoutLoss) {
  FaultInjector injector(/*seed=*/24);
  injector.ScheduleFault(fault_sites::kNetSend,
                         kNetClientEndpointBase * kNetOpStride,
                         FaultKind::kFail);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
  net::Coordinator coordinator(fleet->options);
  Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
  {
    ScopedFaultInjection scoped(&injector);
    result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().degraded.lost_segments.empty());
  ExpectMatchesBaselineExcept(result.value().results, {}, "dropped-request");
}

// A duplicated reply frame: the extra copy lands in the pooled connection
// after the reply was read and must not confuse the gather -- the result is
// exactly the fault-free one with no degradation recorded. The next query
// on the same coordinator is fault-free too: checkout finds the stray copy
// (the idle socket is readable) and redials, or, had the copy not landed
// yet, the gather skips it by request_id.
TEST_F(NetChaosTest, DuplicatedReplyIsHarmless) {
  FaultInjector injector(/*seed=*/25);
  injector.ScheduleFault(fault_sites::kNetSend, 0, FaultKind::kDuplicate);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
  net::Coordinator coordinator(fleet->options);
  Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
  Result<AdhocCluster::QueryStats> next(Status::Unavailable("not run"));
  {
    ScopedFaultInjection scoped(&injector);
    result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    next = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().degraded.degraded());
  EXPECT_EQ(result.value().degraded.nodes_lost, 0);
  EXPECT_EQ(injector.stats().duplicates, 1u);
  ExpectMatchesBaselineExcept(result.value().results, {}, "duplicated-reply");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(next.value().degraded.degraded());
  EXPECT_EQ(next.value().degraded.nodes_lost, 0);
  EXPECT_EQ(coordinator.health().consecutive_failures(0), 0);
  ExpectMatchesBaselineExcept(next.value().results, {},
                              "query after a duplicated reply");
}

// An accept-time drop: the TCP handshake lands (backlog) but the server
// closes the connection before reading; the coordinator sees a prompt EOF,
// not a deadline stall, and requeues.
TEST_F(NetChaosTest, AcceptDropRequeuesWithoutLoss) {
  FaultInjector injector(/*seed=*/26);
  injector.ScheduleFault(fault_sites::kNetAccept, 0, FaultKind::kFail);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
  net::Coordinator coordinator(fleet->options);
  Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
  {
    ScopedFaultInjection scoped(&injector);
    result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().degraded.lost_segments.empty());
  ExpectMatchesBaselineExcept(result.value().results, {}, "accept-drop");
}

// Deadline expiry: every frame send is delayed past the query deadline. In
// degraded mode every unanswered segment is enumerated as lost; in strict
// mode the query fails Unavailable. Either way, never a partial scorecard
// pretending to be whole.
TEST_F(NetChaosTest, DeadlineExpiryEnumeratesEveryUnansweredSegment) {
  {
    FaultInjector injector(/*seed=*/27);
    injector.SetDelayProbability(fault_sites::kNetSend, 1.0,
                                 /*delay_seconds=*/0.2);
    std::unique_ptr<Fleet> fleet =
        StartFleet(/*allow_degraded=*/true, /*deadline_seconds=*/0.05);
    net::Coordinator coordinator(fleet->options);
    Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
    {
      ScopedFaultInjection scoped(&injector);
      result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const AdhocCluster::DegradedInfo& info = result.value().degraded;
    ExpectDegradedInfoWellFormed(info, "deadline-degraded");
    EXPECT_EQ(static_cast<int>(info.lost_segments.size()),
              dataset_->config.num_segments)
        << "every segment was unanswered, every one must be enumerated";
    ExpectMatchesBaselineExcept(result.value().results, info.lost_segments,
                                "deadline-degraded");
  }
  {
    FaultInjector injector(/*seed=*/28);
    injector.SetDelayProbability(fault_sites::kNetSend, 1.0,
                                 /*delay_seconds=*/0.2);
    std::unique_ptr<Fleet> fleet =
        StartFleet(/*allow_degraded=*/false, /*deadline_seconds=*/0.05);
    net::Coordinator coordinator(fleet->options);
    ScopedFaultInjection scoped(&injector);
    const auto strict = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable);
  }
}

// ===========================================================================
// Replication chaos (DESIGN.md §11): every node serves ONLY its replica set
// from a pruned store (misrouted segments are rejected, never silently
// zero), R = 2. The sweep proves the availability claim end to end: any
// single node kill loses nothing and stays bit-identical -- even in strict
// mode -- and only when every replica of a segment is down is the loss
// enumerated, exactly. Repair scenarios ride the same fixture: a
// quarantined or missing replica heals from its peer with fingerprints
// verified, surviving a peer killed mid-repair and a peer pushing
// corrupted bytes.
//
// Reproduce seeded failures with
//   EXPBSI_CHAOS_SEED=<seed> ./build/tests/expbsi_tests
//       --gtest_filter='ReplicationChaosTest.*'
// tests/corpus/replication_seeds.txt is replayed before the exploration.
// ===========================================================================

class ReplicationChaosTest : public NetChaosTest {
 protected:
  static constexpr int kReplicas = 2;

  struct ReplicatedFleet {
    std::vector<std::unique_ptr<BsiStore>> stores;
    std::vector<std::unique_ptr<net::NodeServer>> nodes;
    net::CoordinatorOptions options;

    ~ReplicatedFleet() {
      for (auto& node : nodes) node->Stop();
    }
  };

  // Builds node `node_id`'s replica-set slice of the shared warehouse.
  static std::unique_ptr<BsiStore> PrunedStore(const Placement& placement,
                                               int node_id) {
    auto store = std::make_unique<BsiStore>();
    const std::vector<uint32_t> owned = placement.SegmentsOf(node_id);
    cold_->ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                            uint64_t fingerprint) {
      if (std::find(owned.begin(), owned.end(), key.segment) != owned.end()) {
        store->PutRecovered(key, bytes, fingerprint);
      }
    });
    return store;
  }

  static std::unique_ptr<ReplicatedFleet> StartReplicatedFleet(
      int replication_factor, bool allow_degraded) {
    auto fleet = std::make_unique<ReplicatedFleet>();
    const Placement placement(kNumNodes, dataset_->config.num_segments,
                              replication_factor);
    for (int i = 0; i < kNumNodes; ++i) {
      fleet->stores.push_back(PrunedStore(placement, i));
      net::NodeServerOptions node_options;
      node_options.node_id = i;
      node_options.owned_segments = placement.SegmentsOf(i);
      auto node = std::make_unique<net::NodeServer>(
          fleet->stores.back().get(), node_options);
      EXPECT_TRUE(node->Start().ok());
      fleet->options.node_ports.push_back(node->port());
      fleet->nodes.push_back(std::move(node));
    }
    fleet->options.num_segments = dataset_->config.num_segments;
    fleet->options.replication_factor = replication_factor;
    fleet->options.allow_degraded = allow_degraded;
    return fleet;
  }

  // One seeded iteration: exactly one scheduled node kill (victim and op
  // index drawn from the seed) layered with recoverable link noise
  // (duplicated frames, small delays -- kinds that never mark a node dead,
  // so the single-kill invariant is preserved). Asserts zero loss and
  // bit-identity; outputs let the replay test compare two runs.
  static void RunReplicationIteration(
      uint64_t seed, std::map<StrategyMetricPair, BucketValues>* results,
      AdhocCluster::DegradedInfo* degraded) {
    Rng rng(seed);
    FaultInjector injector(Splitmix(seed ^ 0x9E11CA05ull));
    const int victim = static_cast<int>(seed % kNumNodes);
    const uint64_t op = (seed / kNumNodes) % 2;
    injector.ScheduleFault(fault_sites::kNetNodeCrash,
                           static_cast<uint64_t>(victim) * kNetOpStride + op,
                           FaultKind::kCrash);
    injector.SetDuplicateProbability(fault_sites::kNetSend,
                                     rng.NextBounded(16) / 100.0);
    injector.SetDelayProbability(fault_sites::kNetSend,
                                 rng.NextBounded(11) / 100.0,
                                 /*delay_seconds=*/0.002);

    std::unique_ptr<ReplicatedFleet> fleet =
        StartReplicatedFleet(kReplicas, /*allow_degraded=*/true);
    net::Coordinator coordinator(fleet->options);
    Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
    {
      ScopedFaultInjection scoped(&injector);
      result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    }
    const std::string ctx =
        "replication chaos (reproduce: EXPBSI_CHAOS_SEED=" +
        std::to_string(seed) +
        " ./build/tests/expbsi_tests"
        " --gtest_filter='ReplicationChaosTest.*')";
    ASSERT_TRUE(result.ok()) << ctx << ": " << result.status().ToString();
    const AdhocCluster::QueryStats& stats = result.value();
    EXPECT_TRUE(stats.degraded.lost_segments.empty())
        << ctx << " single-node kill lost data under R=2";
    EXPECT_LE(stats.degraded.nodes_lost, 1) << ctx;
    ExpectMatchesBaselineExcept(stats.results, {}, ctx);
    if (ChaosLogEnabled()) {
      std::fprintf(stderr,
                   "[replchaos] seed=%llu victim=%d op=%llu nodes_lost=%d "
                   "survived=%d injected=%llu\n",
                   static_cast<unsigned long long>(seed), victim,
                   static_cast<unsigned long long>(op),
                   stats.degraded.nodes_lost, stats.degraded.faults_survived,
                   static_cast<unsigned long long>(injector.stats().any()));
    }
    if (results != nullptr) *results = stats.results;
    if (degraded != nullptr) *degraded = stats.degraded;
  }

  static std::vector<uint64_t> ReplicationSeedSchedule() {
    if (const char* env = std::getenv("EXPBSI_CHAOS_SEED")) {
      return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
    }
    std::vector<uint64_t> seeds;
#ifdef EXPBSI_CORPUS_DIR
    std::ifstream in(std::string(EXPBSI_CORPUS_DIR) +
                     "/replication_seeds.txt");
    EXPECT_TRUE(in.good()) << "missing corpus file " << EXPBSI_CORPUS_DIR
                           << "/replication_seeds.txt";
    std::string line;
    while (std::getline(in, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      std::istringstream ls(line);
      uint64_t seed;
      if (ls >> seed) seeds.push_back(seed);
    }
    EXPECT_GE(seeds.size(), 6u) << "replication corpus unexpectedly small";
#endif
    uint64_t x = 0x9E11CA7Eull;
    for (int i = 0, n = ExploreIters(); i < n; ++i) {
      x = Splitmix(x);
      seeds.push_back(x);
    }
    return seeds;
  }
};

// Fault-free pruned fleets are bit-identical to the scalar oracle at every
// replication factor (primaries are independent of R, so only the primary
// replica is ever dialed).
TEST_F(ReplicationChaosTest, FaultFreePrunedFleetMatchesOracle) {
  ASSERT_EQ(FaultInjector::Get(), nullptr);
  for (int r = 1; r <= kNumNodes; ++r) {
    std::unique_ptr<ReplicatedFleet> fleet =
        StartReplicatedFleet(r, /*allow_degraded=*/false);
    net::Coordinator coordinator(fleet->options);
    const auto stats = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    ASSERT_TRUE(stats.ok()) << "R=" << r << ": " << stats.status().ToString();
    EXPECT_FALSE(stats.value().degraded.degraded()) << "R=" << r;
    ExpectMatchesBaselineExcept(stats.value().results, {},
                                "fault-free R=" + std::to_string(r));
  }
}

// The availability claim, exhaustively: kill ANY single node on its first
// admitted request and the STRICT-mode query still succeeds, complete and
// bit-identical -- the victim's segments fail over to their other replica.
TEST_F(ReplicationChaosTest, AnySingleNodeKillLosesNothing) {
  for (int victim = 0; victim < kNumNodes; ++victim) {
    const std::string ctx = "single kill, victim=" + std::to_string(victim);
    FaultInjector injector(/*seed=*/41);
    injector.ScheduleFault(fault_sites::kNetNodeCrash,
                           static_cast<uint64_t>(victim) * kNetOpStride,
                           FaultKind::kCrash);
    std::unique_ptr<ReplicatedFleet> fleet =
        StartReplicatedFleet(kReplicas, /*allow_degraded=*/false);
    net::Coordinator coordinator(fleet->options);
    Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
    {
      ScopedFaultInjection scoped(&injector);
      result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
    }
    ASSERT_TRUE(result.ok()) << ctx << ": " << result.status().ToString();
    EXPECT_TRUE(result.value().degraded.lost_segments.empty()) << ctx;
    EXPECT_EQ(result.value().degraded.nodes_lost, 1) << ctx;
    EXPECT_GT(result.value().degraded.faults_survived, 0) << ctx;
    ExpectMatchesBaselineExcept(result.value().results, {}, ctx);
    for (int j = 0; j < kNumNodes; ++j) {
      EXPECT_EQ(fleet->nodes[j]->crashed(), j == victim) << ctx;
    }
  }
}

// The seeded sweep (corpus first, then exploration).
TEST_F(ReplicationChaosTest, SurvivesSeededSingleKillSchedules) {
  for (uint64_t seed : ReplicationSeedSchedule()) {
    RunReplicationIteration(seed, nullptr, nullptr);
    if (HasFatalFailure()) return;
  }
}

// Same seed, fresh fleet, fresh injector: the replicated scatter replays
// identically -- results AND degradation accounting.
TEST_F(ReplicationChaosTest, ReplicationSweepReplaysIdentically) {
  const uint64_t seed = Splitmix(0x9E11DE7Eull);
  std::map<StrategyMetricPair, BucketValues> first, second;
  AdhocCluster::DegradedInfo dfirst, dsecond;
  RunReplicationIteration(seed, &first, &dfirst);
  if (HasFatalFailure()) return;
  RunReplicationIteration(seed, &second, &dsecond);
  if (HasFatalFailure()) return;
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [pair, values] : first) {
    EXPECT_EQ(values.sums, second.at(pair).sums);
    EXPECT_EQ(values.counts, second.at(pair).counts);
  }
  EXPECT_EQ(dfirst.lost_segments, dsecond.lost_segments);
  EXPECT_EQ(dfirst.segments_answered, dsecond.segments_answered);
  EXPECT_EQ(dfirst.nodes_lost, dsecond.nodes_lost);
  EXPECT_EQ(dfirst.faults_survived, dsecond.faults_survived);
}

// Both replicas of some segments down: the loss is the EXACT
// placement-derived set -- segments whose whole replica set is inside the
// killed pair -- and everything else stays bit-identical. Strict mode
// refuses the first pair that actually loses data.
TEST_F(ReplicationChaosTest, BothReplicasDownEnumeratesExactLoss) {
  int strict_checked = 0;
  for (int a = 0; a < kNumNodes; ++a) {
    for (int b = a + 1; b < kNumNodes; ++b) {
      const std::string ctx = "pair kill {" + std::to_string(a) + "," +
                              std::to_string(b) + "}";
      FaultInjector injector(/*seed=*/43);
      for (int victim : {a, b}) {
        injector.ScheduleFault(fault_sites::kNetNodeCrash,
                               static_cast<uint64_t>(victim) * kNetOpStride,
                               FaultKind::kCrash);
      }
      std::unique_ptr<ReplicatedFleet> fleet =
          StartReplicatedFleet(kReplicas, /*allow_degraded=*/true);
      net::Coordinator coordinator(fleet->options);
      Result<AdhocCluster::QueryStats> result(
          Status::Unavailable("not run"));
      {
        ScopedFaultInjection scoped(&injector);
        result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
      }
      ASSERT_TRUE(result.ok()) << ctx << ": " << result.status().ToString();
      std::vector<int> expected_lost;
      for (int seg = 0; seg < dataset_->config.num_segments; ++seg) {
        const std::vector<int>& replicas =
            coordinator.placement().ReplicasOf(seg);
        if (std::all_of(replicas.begin(), replicas.end(),
                        [&](int n) { return n == a || n == b; })) {
          expected_lost.push_back(seg);
        }
      }
      EXPECT_EQ(result.value().degraded.lost_segments, expected_lost) << ctx;
      EXPECT_EQ(result.value().degraded.nodes_lost, 2) << ctx;
      ExpectDegradedInfoWellFormed(result.value().degraded, ctx);
      ExpectMatchesBaselineExcept(result.value().results,
                                  result.value().degraded.lost_segments, ctx);

      if (!expected_lost.empty() && strict_checked == 0) {
        ++strict_checked;
        FaultInjector strict_injector(/*seed=*/44);
        for (int victim : {a, b}) {
          strict_injector.ScheduleFault(
              fault_sites::kNetNodeCrash,
              static_cast<uint64_t>(victim) * kNetOpStride,
              FaultKind::kCrash);
        }
        std::unique_ptr<ReplicatedFleet> strict_fleet =
            StartReplicatedFleet(kReplicas, /*allow_degraded=*/false);
        net::Coordinator strict_coordinator(strict_fleet->options);
        ScopedFaultInjection scoped(&strict_injector);
        const auto strict =
            strict_coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
        ASSERT_FALSE(strict.ok()) << ctx;
        EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable) << ctx;
      }
    }
  }
  // 6 segments over 3 replica pairs: at least one pair owns two segments,
  // so the strict leg must have run.
  EXPECT_EQ(strict_checked, 1);
}

// A peer killed mid-repair (net.repair kCrash) is failed over: the next
// peer supplies the verified copy and the healed blobs are bit-identical,
// fingerprints included.
TEST_F(ReplicationChaosTest, KillDuringRepairFailsOverToNextPeer) {
  net::NodeServerOptions a_options;
  a_options.node_id = 7;
  net::NodeServer peer_a(cold_, a_options);
  ASSERT_TRUE(peer_a.Start().ok());
  net::NodeServerOptions b_options;
  b_options.node_id = 8;
  net::NodeServer peer_b(cold_, b_options);
  ASSERT_TRUE(peer_b.Start().ok());

  FaultInjector injector(/*seed=*/45);
  injector.ScheduleFault(fault_sites::kNetRepair, 7ull * kNetOpStride,
                         FaultKind::kCrash);
  BsiStore dest;
  net::RepairStats stats;
  Status repaired = Status::Unavailable("not run");
  {
    ScopedFaultInjection scoped(&injector);
    repaired = net::RepairSegments({0}, {peer_a.port(), peer_b.port()},
                                   net::RepairOptions{}, &dest, &stats);
  }
  EXPECT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_TRUE(peer_a.crashed());
  EXPECT_FALSE(peer_b.crashed());
  EXPECT_EQ(stats.segments_repaired, 1);
  EXPECT_GE(stats.peer_failures, 1);
  size_t blobs = 0;
  cold_->ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                          uint64_t fingerprint) {
    if (key.segment != 0) return;
    ++blobs;
    const Result<const std::string*> got = dest.Get(key);
    ASSERT_TRUE(got.ok()) << "healed store missing a blob";
    EXPECT_EQ(*got.value(), bytes);
    const Result<uint64_t> fp = dest.Fingerprint(key);
    ASSERT_TRUE(fp.ok());
    EXPECT_EQ(fp.value(), fingerprint);
  });
  EXPECT_GT(blobs, 0u);
  EXPECT_EQ(dest.NumBlobs(), blobs);
  peer_a.Stop();
  peer_b.Stop();
}

// A peer pushing corrupted bytes under a valid-looking fingerprint claim is
// caught by the receiver's re-fingerprint: the whole segment is rejected
// from that peer and healed from the next one instead.
TEST_F(ReplicationChaosTest, CorruptRepairPushIsRejectedByFingerprint) {
  net::NodeServerOptions a_options;
  a_options.node_id = 7;
  net::NodeServer peer_a(cold_, a_options);
  ASSERT_TRUE(peer_a.Start().ok());
  net::NodeServerOptions b_options;
  b_options.node_id = 8;
  net::NodeServer peer_b(cold_, b_options);
  ASSERT_TRUE(peer_b.Start().ok());

  FaultInjector injector(/*seed=*/46);
  injector.ScheduleFault(fault_sites::kNetRepair, 7ull * kNetOpStride,
                         FaultKind::kCorrupt);
  BsiStore dest;
  net::RepairStats stats;
  Status repaired = Status::Unavailable("not run");
  {
    ScopedFaultInjection scoped(&injector);
    repaired = net::RepairSegments({1}, {peer_a.port(), peer_b.port()},
                                   net::RepairOptions{}, &dest, &stats);
  }
  EXPECT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_GE(stats.fingerprint_rejections, 1);
  EXPECT_EQ(stats.segments_repaired, 1);
  EXPECT_FALSE(peer_a.crashed());  // alive, just corrupt -- not a kill
  cold_->ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                          uint64_t fingerprint) {
    if (key.segment != 1) return;
    const Result<const std::string*> got = dest.Get(key);
    ASSERT_TRUE(got.ok()) << "healed store missing a blob";
    EXPECT_EQ(*got.value(), bytes) << "corrupt push leaked into the store";
    const Result<uint64_t> fp = dest.Fingerprint(key);
    ASSERT_TRUE(fp.ok());
    EXPECT_EQ(fp.value(), fingerprint);
  });
  peer_a.Stop();
  peer_b.Stop();
}

// End-to-end quarantine heal: a replica whose blob no longer matches its
// recorded fingerprint (at-rest corruption) is found by FindDamagedSegments
// and restored bit-identically from the segment's other replica.
TEST_F(ReplicationChaosTest, RepairRestoresQuarantinedReplica) {
  const Placement placement(kNumNodes, dataset_->config.num_segments,
                            kReplicas);
  std::unique_ptr<BsiStore> mine = PrunedStore(placement, 0);
  BsiStoreKey victim{};
  std::string victim_bytes;
  uint64_t victim_fp = 0;
  bool have_victim = false;
  mine->ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                         uint64_t fp) {
    if (!have_victim) {
      have_victim = true;
      victim = key;
      victim_bytes = bytes;
      victim_fp = fp;
    }
  });
  ASSERT_TRUE(have_victim);
  // Flip a byte but keep the recorded fingerprint -- what at-rest
  // corruption looks like after a recovery pass.
  std::string corrupted = victim_bytes;
  corrupted[0] = static_cast<char>(corrupted[0] ^ 0x5a);
  mine->PutRecovered(victim, corrupted, victim_fp);

  const std::vector<uint32_t> damaged =
      net::FindDamagedSegments(*mine, placement, 0);
  ASSERT_EQ(damaged.size(), 1u);
  EXPECT_EQ(damaged[0], static_cast<uint32_t>(victim.segment));

  // The segment's other replica serves the heal from its own pruned store.
  const std::vector<int>& replicas = placement.ReplicasOf(victim.segment);
  ASSERT_EQ(replicas.size(), 2u);
  const int peer_id = replicas[0] == 0 ? replicas[1] : replicas[0];
  std::unique_ptr<BsiStore> peer_store = PrunedStore(placement, peer_id);
  net::NodeServerOptions peer_options;
  peer_options.node_id = peer_id;
  peer_options.owned_segments = placement.SegmentsOf(peer_id);
  net::NodeServer peer(peer_store.get(), peer_options);
  ASSERT_TRUE(peer.Start().ok());

  net::RepairStats stats;
  const Status repaired = net::RepairSegments(
      damaged, {peer.port()}, net::RepairOptions{}, mine.get(), &stats);
  EXPECT_TRUE(repaired.ok()) << repaired.ToString();
  EXPECT_EQ(stats.segments_repaired, 1);
  EXPECT_GT(stats.blobs_installed, 0);
  EXPECT_TRUE(net::FindDamagedSegments(*mine, placement, 0).empty());
  const Result<const std::string*> healed = mine->Get(victim);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed.value(), victim_bytes);
  peer.Stop();
}

// No peer can help: the repair fails LOUDLY with the count, never a store
// that silently serves the hole.
TEST_F(ReplicationChaosTest, RepairWithAllPeersDeadFailsLoudly) {
  // A started-then-stopped server yields a port that refuses connections.
  net::NodeServerOptions options;
  options.node_id = 9;
  net::NodeServer dead(cold_, options);
  ASSERT_TRUE(dead.Start().ok());
  const uint16_t dead_port = dead.port();
  dead.Stop();

  net::RepairOptions repair_options;
  repair_options.rpc_deadline_seconds = 2.0;
  BsiStore dest;
  net::RepairStats stats;
  const Status repaired = net::RepairSegments({0, 1}, {dead_port},
                                              repair_options, &dest, &stats);
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.code(), StatusCode::kUnavailable);
  EXPECT_EQ(stats.segments_failed, 2);
  EXPECT_EQ(dest.NumBlobs(), 0u);
}

// Node-side warehouse faults travel the wire correctly: persistent fetch
// corruption on one segment's blobs exhausts node-side retries, comes back
// as lost=1 for exactly that segment, and is NOT requeued (the node is
// alive; retries already ran next to the data).
TEST_F(NetChaosTest, NodeSideLossIsReportedNotRequeued) {
  FaultInjector injector(/*seed=*/29);
  injector.SetCorruptProbability(fault_sites::kTierFetch, 1.0);
  std::unique_ptr<Fleet> fleet = StartFleet(/*allow_degraded=*/true);
  net::Coordinator coordinator(fleet->options);
  Result<AdhocCluster::QueryStats> result(Status::Unavailable("not run"));
  {
    ScopedFaultInjection scoped(&injector);
    result = coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const AdhocCluster::DegradedInfo& info = result.value().degraded;
  // Every fetch corrupts, so every segment is lost -- but through the
  // node-is-alive path: no node was declared dead.
  EXPECT_EQ(static_cast<int>(info.lost_segments.size()),
            dataset_->config.num_segments);
  EXPECT_EQ(info.nodes_lost, 0);
  ExpectDegradedInfoWellFormed(info, "node-side-loss");
  ExpectMatchesBaselineExcept(result.value().results, info.lost_segments,
                              "node-side-loss");
}

}  // namespace
}  // namespace expbsi
