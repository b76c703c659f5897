// Unit coverage for the serving layer (DESIGN.md §9): envelope and message
// codec round trips, ping/pong over a real loopback socket, fault-free
// coordinator scatter/gather bit-identity against the in-process
// AdhocCluster and the direct engine, backpressure and admission control,
// and trace-span grafting across the process boundary. The adversarial
// paths (drops, truncations, duplicated replies, node kills, deadline
// expiry) live in net_chaos_test.cc; the real-process differential sweep
// in net_process_test.cc.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/adhoc_cluster.h"
#include "cluster/placement.h"
#include "common/byte_io.h"
#include "common/crc32c.h"
#include "net/node_health.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "net/coordinator.h"
#include "net/node_server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "wire/envelope.h"
#include "wire/messages.h"

namespace expbsi {
namespace {

// ---------------------------------------------------------------------------
// Wire codec round trips
// ---------------------------------------------------------------------------

TEST(WireEnvelopeTest, RoundTripsBitIdentically) {
  wire::Envelope env;
  env.type = wire::MsgType::kQueryRequest;
  env.flags = 0x1234;
  env.request_id = 0xdeadbeef12345678ull;
  env.payload = std::string("hello\0world", 11);
  std::string frame;
  wire::EncodeEnvelope(env, &frame);
  Result<wire::Envelope> decoded = wire::DecodeEnvelope(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value() == env);
  std::string reencoded;
  wire::EncodeEnvelope(decoded.value(), &reencoded);
  EXPECT_EQ(frame, reencoded);
}

TEST(WireEnvelopeTest, RejectsTamperedFrames) {
  wire::Envelope env;
  env.type = wire::MsgType::kPing;
  env.request_id = 42;
  std::string frame;
  wire::EncodeEnvelope(env, &frame);

  // Bad magic.
  std::string bad = frame;
  bad[0] ^= 0x1;
  EXPECT_FALSE(wire::DecodeEnvelope(bad).ok());
  // Flipped payload-length byte: header CRC catches it before the length
  // is believed.
  bad = frame;
  bad[16] ^= 0x40;
  EXPECT_FALSE(wire::DecodeEnvelope(bad).ok());
  // Truncation and trailing garbage.
  EXPECT_FALSE(wire::DecodeEnvelope(
                   std::string_view(frame).substr(0, frame.size() - 1))
                   .ok());
  EXPECT_FALSE(wire::DecodeEnvelope(frame + "x").ok());
  // Short buffer never reads out of bounds.
  EXPECT_FALSE(wire::DecodeEnvelope("EB").ok());
}

TEST(WireEnvelopeTest, HeaderLengthCapIsEnforcedBeforeAllocation) {
  wire::Envelope env;
  env.type = wire::MsgType::kQueryResponse;
  std::string frame;
  wire::EncodeEnvelope(env, &frame);
  // Rewrite payload_len to a huge value and fix up the header CRC so only
  // the cap check can reject it.
  const uint32_t huge = wire::kMaxEnvelopePayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    frame[16 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  const uint32_t crc = Crc32c(frame.data(), 20);
  for (int i = 0; i < 4; ++i) {
    frame[20 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  Result<size_t> size = wire::FrameSizeFromHeader(
      std::string_view(frame).substr(0, wire::kEnvelopeHeaderBytes));
  EXPECT_FALSE(size.ok());
}

TEST(WireMessagesTest, QueryRequestRoundTrips) {
  wire::WireQueryRequest req;
  req.strategy_ids = {801, 802, 0xffffffffffffffffull};
  req.metric_ids = {901};
  req.date_lo = 10;
  req.date_hi = 14;
  req.segments = {0, 3, 5};
  req.allow_degraded = true;
  req.want_trace = true;
  std::string payload;
  wire::EncodeQueryRequest(req, &payload);
  Result<wire::WireQueryRequest> decoded = wire::DecodeQueryRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value() == req);
  std::string reencoded;
  wire::EncodeQueryRequest(decoded.value(), &reencoded);
  EXPECT_EQ(payload, reencoded);
}

TEST(WireMessagesTest, QueryResponseRoundTrips) {
  wire::WireQueryResponse resp;
  wire::WireSegmentResult seg;
  seg.segment = 7;
  seg.sums = {1.5, -0.0, 1e300};
  seg.counts = {3.0, 4.0, 5.0};
  resp.segments.push_back(seg);
  wire::WireSegmentResult lost;
  lost.segment = 9;
  lost.lost = 1;
  resp.segments.push_back(lost);
  resp.retries = 2;
  resp.faults_survived = 1;
  resp.bytes_from_cold = 123456;
  resp.hot_hits = 42;
  resp.cpu_seconds = 0.125;
  wire::WireSpan span;
  span.id = 1;
  span.name = "node_query";
  span.duration_ns = 1000;
  span.attrs = {{"segments", 2}};
  resp.spans.push_back(span);
  std::string payload;
  wire::EncodeQueryResponse(resp, &payload);
  Result<wire::WireQueryResponse> decoded =
      wire::DecodeQueryResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value() == resp);
  std::string reencoded;
  wire::EncodeQueryResponse(decoded.value(), &reencoded);
  EXPECT_EQ(payload, reencoded);
}

TEST(WireMessagesTest, ErrorRoundTrips) {
  wire::WireError err{StatusCode::kCorruption, "segment 3 unreadable"};
  std::string payload;
  wire::EncodeError(err, &payload);
  Result<wire::WireError> decoded = wire::DecodeError(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, StatusCode::kCorruption);
  EXPECT_EQ(decoded.value().message, "segment 3 unreadable");
}

TEST(WireMessagesTest, RejectsOverdeclaredCounts) {
  // A 4-byte payload declaring 2^30 strategy ids must be rejected by the
  // count-vs-remaining-bytes check, never allocated.
  std::string payload;
  PutU32(&payload, 1u << 30);
  EXPECT_FALSE(wire::DecodeQueryRequest(payload).ok());
  EXPECT_FALSE(wire::DecodeQueryResponse(payload).ok());
}

TEST(WireMessagesTest, SegmentFetchRoundTrips) {
  wire::WireSegmentFetch fetch;
  fetch.segment = 65535;
  std::string payload;
  wire::EncodeSegmentFetch(fetch, &payload);
  Result<wire::WireSegmentFetch> decoded = wire::DecodeSegmentFetch(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value() == fetch);
  std::string reencoded;
  wire::EncodeSegmentFetch(decoded.value(), &reencoded);
  EXPECT_EQ(payload, reencoded);
  // Trailing byte and out-of-range segment ids are rejected.
  EXPECT_FALSE(wire::DecodeSegmentFetch(payload + "x").ok());
  wire::WireSegmentFetch big;
  big.segment = 65536;
  std::string bad;
  wire::EncodeSegmentFetch(big, &bad);
  EXPECT_FALSE(wire::DecodeSegmentFetch(bad).ok());
}

TEST(WireMessagesTest, SegmentPushRoundTrips) {
  wire::WireSegmentPush push;
  push.segment = 3;
  wire::WireRepairBlob a;
  a.kind = 0;
  a.id = 801;
  a.date = 10;
  a.fingerprint = 0x1122334455667788ull;
  a.bytes = std::string("blob\0bytes", 10);
  wire::WireRepairBlob b = a;
  b.kind = 1;
  b.id = 901;
  b.bytes = "";
  push.blobs = {a, b};
  std::string payload;
  wire::EncodeSegmentPush(push, &payload);
  Result<wire::WireSegmentPush> decoded = wire::DecodeSegmentPush(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value() == push);
  std::string reencoded;
  wire::EncodeSegmentPush(decoded.value(), &reencoded);
  EXPECT_EQ(payload, reencoded);
}

TEST(WireMessagesTest, SegmentPushRejectsMalformedPayloads) {
  wire::WireSegmentPush push;
  push.segment = 3;
  wire::WireRepairBlob blob;
  blob.kind = 2;
  blob.id = 901;
  blob.date = 12;
  blob.fingerprint = 7;
  blob.bytes = "bsi";
  push.blobs = {blob};
  std::string clean;
  wire::EncodeSegmentPush(push, &clean);
  ASSERT_TRUE(wire::DecodeSegmentPush(clean).ok());

  // Trailing garbage.
  EXPECT_FALSE(wire::DecodeSegmentPush(clean + "x").ok());
  // Out-of-range BsiKind (> kState).
  wire::WireSegmentPush bad_kind = push;
  bad_kind.blobs[0].kind = 4;
  std::string payload;
  wire::EncodeSegmentPush(bad_kind, &payload);
  EXPECT_FALSE(wire::DecodeSegmentPush(payload).ok());
  // Non-ascending (kind, id, date) order: duplicates and swaps both break
  // canonical form.
  wire::WireSegmentPush dup = push;
  dup.blobs.push_back(push.blobs[0]);
  wire::EncodeSegmentPush(dup, &payload);
  EXPECT_FALSE(wire::DecodeSegmentPush(payload).ok());
  // Hostile blob count with no bytes behind it: rejected before allocation.
  std::string hostile;
  PutU32(&hostile, 3);          // segment
  PutU32(&hostile, 1u << 30);   // count
  EXPECT_FALSE(wire::DecodeSegmentPush(hostile).ok());
  // Overdeclared blob length.
  wire::WireSegmentPush long_blob = push;
  long_blob.blobs[0].bytes = "0123456789";
  wire::EncodeSegmentPush(long_blob, &payload);
  const size_t len_at = payload.size() - 10 - 4;
  payload[len_at] = static_cast<char>(0xff);  // 10 -> 0xff...
  EXPECT_FALSE(wire::DecodeSegmentPush(payload).ok());
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(PlacementTest, ReplicaSetsAreDistinctInRangeAndSized) {
  for (const auto& [nodes, segments, r] :
       std::vector<std::tuple<int, int, int>>{
           {1, 4, 1}, {3, 6, 2}, {4, 16, 3}, {5, 7, 2}, {8, 64, 5}}) {
    const Placement placement(nodes, segments, r);
    for (int seg = 0; seg < segments; ++seg) {
      const std::vector<int>& replicas = placement.ReplicasOf(seg);
      ASSERT_EQ(replicas.size(), static_cast<size_t>(std::min(r, nodes)));
      std::set<int> distinct(replicas.begin(), replicas.end());
      EXPECT_EQ(distinct.size(), replicas.size());
      for (int n : replicas) {
        EXPECT_GE(n, 0);
        EXPECT_LT(n, nodes);
        EXPECT_TRUE(placement.IsReplica(seg, n));
      }
      EXPECT_EQ(placement.PrimaryOf(seg), replicas[0]);
    }
  }
}

TEST(PlacementTest, PrimariesAreBalancedAndCoverEveryNode) {
  for (const auto& [nodes, segments] : std::vector<std::pair<int, int>>{
           {3, 6}, {4, 16}, {5, 7}, {8, 64}, {7, 7}}) {
    const Placement placement(nodes, segments, 2);
    std::vector<int> primaries(nodes, 0);
    for (int seg = 0; seg < segments; ++seg) {
      ++primaries[placement.PrimaryOf(seg)];
    }
    const auto [lo, hi] = std::minmax_element(primaries.begin(),
                                              primaries.end());
    EXPECT_GE(*lo, 1) << nodes << " nodes, " << segments
                      << " segments: a node owns no primary";
    EXPECT_LE(*hi - *lo, 1) << "primary imbalance";
  }
}

TEST(PlacementTest, DeterministicAndPrimariesIndependentOfR) {
  const Placement a(5, 32, 2);
  const Placement b(5, 32, 2);
  const Placement wide(5, 32, 4);
  for (int seg = 0; seg < 32; ++seg) {
    EXPECT_EQ(a.ReplicasOf(seg), b.ReplicasOf(seg));
    // Raising R only appends failover targets; the primary (and the
    // fault-free routing) never moves.
    EXPECT_EQ(a.PrimaryOf(seg), wide.PrimaryOf(seg));
    EXPECT_EQ(wide.ReplicasOf(seg)[1], a.ReplicasOf(seg)[1]);
  }
}

TEST(PlacementTest, SegmentsOfAgreesWithIsReplica) {
  const Placement placement(4, 10, 3);
  for (int n = 0; n < 4; ++n) {
    const std::vector<uint32_t> owned = placement.SegmentsOf(n);
    EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()));
    std::set<uint32_t> owned_set(owned.begin(), owned.end());
    for (int seg = 0; seg < 10; ++seg) {
      EXPECT_EQ(placement.IsReplica(seg, n),
                owned_set.count(static_cast<uint32_t>(seg)) == 1)
          << "node " << n << " segment " << seg;
    }
  }
}

// ---------------------------------------------------------------------------
// Node health registry
// ---------------------------------------------------------------------------

TEST(NodeHealthTest, MarkdownAfterConsecutiveFailuresAndSuccessResets) {
  NodeHealth health(2);
  EXPECT_TRUE(health.Usable(0));
  health.RecordFailure(0);
  EXPECT_FALSE(health.IsMarkedDown(0));  // threshold is 2
  health.RecordSuccess(0, 0.01);         // resets the streak
  EXPECT_EQ(health.consecutive_failures(0), 0);
  health.RecordFailure(0);
  health.RecordFailure(0);
  EXPECT_TRUE(health.IsMarkedDown(0));
  EXPECT_FALSE(health.Usable(0));
  EXPECT_TRUE(health.Usable(1));  // per-node state
}

TEST(NodeHealthTest, ProbeBackoffDoublesAndSuccessRevives) {
  NodeHealth health(1);
  health.RecordFailure(0);
  health.RecordFailure(0);
  ASSERT_TRUE(health.IsMarkedDown(0));
  // initial_backoff_rounds = 1: one round later the node is probe-due.
  health.BeginRound();
  EXPECT_TRUE(health.Usable(0));
  // The probe fails: backoff doubles to 2 rounds.
  health.RecordFailure(0);
  EXPECT_FALSE(health.Usable(0));
  health.BeginRound();
  EXPECT_FALSE(health.Usable(0));
  health.BeginRound();
  EXPECT_TRUE(health.Usable(0));
  // This probe succeeds: fully revived, not just probe-due.
  health.RecordSuccess(0, 0.01);
  EXPECT_FALSE(health.IsMarkedDown(0));
  EXPECT_TRUE(health.Usable(0));
  EXPECT_EQ(health.consecutive_failures(0), 0);
}

TEST(NodeHealthTest, HedgeDelayTracksTheLatencyQuantile) {
  // Small default so the default_delay * 0.1 floor cannot mask the
  // quantile under test.
  const double kDefault = 0.005;
  NodeHealth health(1);
  // Below min_latency_samples (8) the default applies.
  for (int i = 0; i < 7; ++i) health.RecordSuccess(0, 1.0);
  EXPECT_DOUBLE_EQ(health.HedgeDelaySeconds(0, kDefault), kDefault);
  // Ten samples 0.01..0.10: the 0.9 quantile indexes sorted[9 * 0.9] = 0.09.
  NodeHealth fresh(1);
  for (int i = 1; i <= 10; ++i) fresh.RecordSuccess(0, 0.01 * i);
  EXPECT_DOUBLE_EQ(fresh.HedgeDelaySeconds(0, kDefault), 0.09);
  // A uniformly fast node is floored at a tenth of the default, so hedges
  // cannot fire on every RPC.
  NodeHealth fast(1);
  for (int i = 0; i < 10; ++i) fast.RecordSuccess(0, 1e-6);
  EXPECT_DOUBLE_EQ(fast.HedgeDelaySeconds(0, kDefault), kDefault * 0.1);
}

// ---------------------------------------------------------------------------
// Trace import
// ---------------------------------------------------------------------------

TEST(TraceImportTest, ImportedSpansNestUnderParent) {
  obs::QueryTrace trace("coordinator");
  const uint32_t root = trace.BeginSpan("coordinator", 0);
  const uint32_t rpc = trace.BeginSpan("node_rpc", root);
  const uint32_t remote_root =
      trace.ImportSpan(rpc, "node_query", 10, 500, {{"segments", 3}});
  trace.ImportSpan(remote_root, "segment_execute", 5, 100, {});
  trace.EndSpan(rpc);
  trace.EndSpan(root);
  const std::vector<obs::QueryTrace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[2].name, "node_query");
  EXPECT_EQ(spans[2].parent_id, rpc);
  EXPECT_FALSE(spans[2].open);
  EXPECT_EQ(spans[2].attrs.size(), 1u);
  EXPECT_EQ(spans[3].parent_id, remote_root);
  // Re-based: child start = parent's start + relative offset.
  EXPECT_EQ(spans[3].start_ns, spans[2].start_ns + 5);
  // The flame tree renders without tripping the parent-before-child check.
  EXPECT_NE(trace.ToText().find("segment_execute"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sockets + servers on loopback
// ---------------------------------------------------------------------------

class NetServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_users = 6000;
    config.num_segments = 8;
    config.num_days = 5;
    config.start_date = 10;
    config.seed = 47;

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
  }

  static void TearDownTestSuite() {
    delete cold_;
    delete bsi_;
    delete dataset_;
  }

  // Starts `n` node servers over the shared cold store and returns them
  // with a coordinator options block pointing at their ports.
  static std::vector<std::unique_ptr<net::NodeServer>> StartNodes(
      int n, net::CoordinatorOptions* options, int max_inflight = 4) {
    std::vector<std::unique_ptr<net::NodeServer>> nodes;
    options->node_ports.clear();
    for (int i = 0; i < n; ++i) {
      net::NodeServerOptions node_options;
      node_options.node_id = i;
      node_options.max_inflight = max_inflight;
      auto node = std::make_unique<net::NodeServer>(cold_, node_options);
      EXPECT_TRUE(node->Start().ok());
      options->node_ports.push_back(node->port());
      nodes.push_back(std::move(node));
    }
    options->num_segments = dataset_->config.num_segments;
    return nodes;
  }

  static Dataset* dataset_;
  static ExperimentBsiData* bsi_;
  static BsiStore* cold_;
};

Dataset* NetServingTest::dataset_ = nullptr;
ExperimentBsiData* NetServingTest::bsi_ = nullptr;
BsiStore* NetServingTest::cold_ = nullptr;

TEST_F(NetServingTest, PingPong) {
  net::NodeServerOptions options;
  net::NodeServer node(cold_, options);
  ASSERT_TRUE(node.Start().ok());
  const net::Deadline deadline = net::Deadline::After(5.0);
  Result<net::Socket> sock = net::Connect(node.port(), deadline);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  wire::Envelope ping;
  ping.type = wire::MsgType::kPing;
  ping.request_id = 77;
  ASSERT_TRUE(
      net::SendEnvelope(sock.value(), ping, deadline, nullptr).ok());
  Result<wire::Envelope> pong =
      net::RecvEnvelope(sock.value(), deadline, 77);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value().type, wire::MsgType::kPong);
  EXPECT_EQ(pong.value().request_id, 77u);
  node.Stop();
}

TEST_F(NetServingTest, CoordinatorMatchesInProcessClusterAndEngine) {
  net::CoordinatorOptions options;
  std::vector<std::unique_ptr<net::NodeServer>> nodes =
      StartNodes(3, &options);
  net::Coordinator coordinator(options);
  Result<AdhocCluster::QueryStats> remote =
      coordinator.QueryBsi({801, 802}, {901, 902}, 10, 14);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  AdhocClusterConfig cluster_config;
  cluster_config.num_nodes = 3;
  AdhocCluster cluster(dataset_, bsi_, cluster_config);
  Result<AdhocCluster::QueryStats> local =
      cluster.QueryBsi({801, 802}, {901, 902}, 10, 14);
  ASSERT_TRUE(local.ok());

  ASSERT_EQ(remote.value().results.size(), local.value().results.size());
  for (const auto& [pair, values] : remote.value().results) {
    // Bit-identical across the process boundary (doubles travel as IEEE
    // bit patterns) AND against the direct engine.
    const BucketValues& in_process = local.value().results.at(pair);
    EXPECT_EQ(values.sums, in_process.sums)
        << pair.first << "/" << pair.second;
    EXPECT_EQ(values.counts, in_process.counts);
    const BucketValues direct =
        ComputeStrategyMetricBsi(*bsi_, pair.first, pair.second, 10, 14);
    EXPECT_EQ(values.sums, direct.sums);
    EXPECT_EQ(values.counts, direct.counts);
  }
  EXPECT_TRUE(remote.value().degraded.lost_segments.empty());
  EXPECT_EQ(remote.value().degraded.segments_answered,
            dataset_->config.num_segments);
  EXPECT_GT(remote.value().bytes_from_cold, 0u);
  EXPECT_GT(remote.value().total_cpu_seconds, 0.0);
  for (auto& node : nodes) node->Stop();
}

TEST_F(NetServingTest, RemoteSpansAreGraftedIntoTheQueryTrace) {
  net::CoordinatorOptions options;
  std::vector<std::unique_ptr<net::NodeServer>> nodes =
      StartNodes(2, &options);
  net::Coordinator coordinator(options);
  Result<AdhocCluster::QueryStats> stats =
      coordinator.QueryBsi({801}, {901}, 10, 14);
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats.value().trace, nullptr);
  int node_rpc = 0, node_query = 0, segment_execute = 0;
  for (const obs::QueryTrace::Span& span : stats.value().trace->spans()) {
    EXPECT_FALSE(span.open);
    if (span.name == "node_rpc") ++node_rpc;
    if (span.name == "node_query") ++node_query;
    if (span.name == "segment_execute") ++segment_execute;
  }
  EXPECT_EQ(node_rpc, 2);
  EXPECT_EQ(node_query, 2);  // one remote root grafted per node
  EXPECT_EQ(segment_execute, dataset_->config.num_segments);
  for (auto& node : nodes) node->Stop();
}

TEST_F(NetServingTest, BackpressureRejectsBeyondMaxInflight) {
  net::NodeServerOptions options;
  options.max_inflight = 0;  // reject everything
  net::NodeServer node(cold_, options);
  ASSERT_TRUE(node.Start().ok());
  const net::Deadline deadline = net::Deadline::After(5.0);
  Result<net::Socket> sock = net::Connect(node.port(), deadline);
  ASSERT_TRUE(sock.ok());
  wire::Envelope env;
  env.type = wire::MsgType::kQueryRequest;
  env.request_id = 5;
  wire::WireQueryRequest req;
  req.strategy_ids = {801};
  req.metric_ids = {901};
  req.date_lo = 10;
  req.date_hi = 14;
  req.segments = {0};
  wire::EncodeQueryRequest(req, &env.payload);
  ASSERT_TRUE(net::SendEnvelope(sock.value(), env, deadline, nullptr).ok());
  Result<wire::Envelope> reply =
      net::RecvEnvelope(sock.value(), deadline, 5);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, wire::MsgType::kError);
  Result<wire::WireError> err = wire::DecodeError(reply.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().code, StatusCode::kUnavailable);
  EXPECT_EQ(node.backpressure_rejections(), 1u);
  node.Stop();
}

TEST_F(NetServingTest, AdmissionControlRejectsExcessQueries) {
  net::CoordinatorOptions options;
  std::vector<std::unique_ptr<net::NodeServer>> nodes =
      StartNodes(1, &options);
  options.max_concurrent_queries = 0;
  net::Coordinator coordinator(options);
  Result<AdhocCluster::QueryStats> stats =
      coordinator.QueryBsi({801}, {901}, 10, 14);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(coordinator.admission_rejections(), 1u);
  for (auto& node : nodes) node->Stop();
}

TEST_F(NetServingTest, MalformedRequestGetsErrorNotCrash) {
  net::NodeServerOptions options;
  net::NodeServer node(cold_, options);
  ASSERT_TRUE(node.Start().ok());
  const net::Deadline deadline = net::Deadline::After(5.0);
  Result<net::Socket> sock = net::Connect(node.port(), deadline);
  ASSERT_TRUE(sock.ok());
  wire::Envelope env;
  env.type = wire::MsgType::kQueryRequest;
  env.request_id = 9;
  env.payload = "not a query request";
  ASSERT_TRUE(net::SendEnvelope(sock.value(), env, deadline, nullptr).ok());
  Result<wire::Envelope> reply =
      net::RecvEnvelope(sock.value(), deadline, 9);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, wire::MsgType::kError);
  // The node is still alive and serves the next request on the SAME
  // connection.
  wire::Envelope ping;
  ping.type = wire::MsgType::kPing;
  ping.request_id = 10;
  ASSERT_TRUE(
      net::SendEnvelope(sock.value(), ping, deadline, nullptr).ok());
  Result<wire::Envelope> pong =
      net::RecvEnvelope(sock.value(), deadline, 10);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().type, wire::MsgType::kPong);
  node.Stop();
}

TEST_F(NetServingTest, RecvSkipCapClosesFloodedExchange) {
  // A peer spraying frames with stale request ids must not pin the
  // receiver until its deadline: after kMaxSkippedFrames mismatches the
  // exchange is closed Unavailable.
  net::NodeServerOptions options;
  net::NodeServer node(cold_, options);
  ASSERT_TRUE(node.Start().ok());
  const net::Deadline deadline = net::Deadline::After(10.0);
  Result<net::Socket> sock = net::Connect(node.port(), deadline);
  ASSERT_TRUE(sock.ok());
  // Each ping comes back as a pong carrying the ping's id -- none of them
  // the id we will wait for.
  for (uint32_t i = 0; i <= net::kMaxSkippedFrames; ++i) {
    wire::Envelope ping;
    ping.type = wire::MsgType::kPing;
    ping.request_id = 100 + i;
    ASSERT_TRUE(
        net::SendEnvelope(sock.value(), ping, deadline, nullptr).ok());
  }
  Result<wire::Envelope> reply =
      net::RecvEnvelope(sock.value(), deadline, /*expected_request_id=*/9999);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  node.Stop();
}

TEST_F(NetServingTest, MisroutedSegmentIsRefusedNotServedAsZeros) {
  // Replicated serving: a node owning {1, 2} must refuse segment 0 loudly.
  // Against a pruned store a misroute would otherwise read as semantic
  // absence and return silent zeros -- the exact SRM hazard.
  net::NodeServerOptions options;
  options.owned_segments = {1, 2};
  net::NodeServer node(cold_, options);
  ASSERT_TRUE(node.Start().ok());
  const net::Deadline deadline = net::Deadline::After(5.0);
  Result<net::Socket> sock = net::Connect(node.port(), deadline);
  ASSERT_TRUE(sock.ok());
  wire::Envelope env;
  env.type = wire::MsgType::kQueryRequest;
  env.request_id = 11;
  wire::WireQueryRequest req;
  req.strategy_ids = {801};
  req.metric_ids = {901};
  req.date_lo = 10;
  req.date_hi = 14;
  req.segments = {0, 1};
  wire::EncodeQueryRequest(req, &env.payload);
  ASSERT_TRUE(net::SendEnvelope(sock.value(), env, deadline, nullptr).ok());
  Result<wire::Envelope> reply =
      net::RecvEnvelope(sock.value(), deadline, 11);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, wire::MsgType::kError);
  Result<wire::WireError> err = wire::DecodeError(reply.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.value().message.find("not owned"), std::string::npos);
  node.Stop();
}

TEST_F(NetServingTest, SegmentFetchReturnsFingerprintedBlobsOrNotFound) {
  net::NodeServerOptions options;
  net::NodeServer node(cold_, options);
  ASSERT_TRUE(node.Start().ok());
  const net::Deadline deadline = net::Deadline::After(5.0);
  Result<net::Socket> sock = net::Connect(node.port(), deadline);
  ASSERT_TRUE(sock.ok());

  wire::Envelope env;
  env.type = wire::MsgType::kSegmentFetch;
  env.request_id = 21;
  wire::WireSegmentFetch fetch;
  fetch.segment = 2;
  wire::EncodeSegmentFetch(fetch, &env.payload);
  ASSERT_TRUE(net::SendEnvelope(sock.value(), env, deadline, nullptr).ok());
  Result<wire::Envelope> reply =
      net::RecvEnvelope(sock.value(), deadline, 21);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, wire::MsgType::kSegmentPush);
  Result<wire::WireSegmentPush> push =
      wire::DecodeSegmentPush(reply.value().payload);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push.value().segment, 2u);
  ASSERT_FALSE(push.value().blobs.empty());
  // Every shipped blob matches the warehouse bytes and fingerprint.
  for (const wire::WireRepairBlob& blob : push.value().blobs) {
    BsiStoreKey key{static_cast<uint16_t>(push.value().segment),
                    static_cast<BsiKind>(blob.kind), blob.id, blob.date};
    Result<const std::string*> stored = cold_->Get(key);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored.value(), blob.bytes);
    Result<uint64_t> fp = cold_->Fingerprint(key);
    ASSERT_TRUE(fp.ok());
    EXPECT_EQ(fp.value(), blob.fingerprint);
  }

  // A segment the store has nothing for is NotFound, not an empty push.
  env.request_id = 22;
  fetch.segment = 4000;
  env.payload.clear();
  wire::EncodeSegmentFetch(fetch, &env.payload);
  ASSERT_TRUE(net::SendEnvelope(sock.value(), env, deadline, nullptr).ok());
  reply = net::RecvEnvelope(sock.value(), deadline, 22);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, wire::MsgType::kError);
  Result<wire::WireError> err = wire::DecodeError(reply.value().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().code, StatusCode::kNotFound);
  node.Stop();
}

}  // namespace
}  // namespace expbsi
