// Serving-path latency (DESIGN.md §9): what the multi-process split costs
// on top of the in-process engine. Three layers are timed separately so a
// regression is attributable:
//
//   net_codec_roundtrip   encode + decode of a realistic scorecard
//                         response payload inside one envelope -- the pure
//                         CPU cost of the wire format, no sockets;
//   net_ping_roundtrip    one framed ping/pong over a real loopback TCP
//                         connection -- transport + framing + scheduling,
//                         no query execution;
//   net_query_scatter     a full scorecard query through the coordinator
//                         against three in-process node servers, reported
//                         per query -- the end-to-end serving latency the
//                         cross-process differential test verifies for
//                         bit-identity;
//   net_query_scatter_r{1,2}  the same query against *pruned* fleets under
//                         replica placement (DESIGN.md §11) -- what R-way
//                         replication costs on the fault-free fast path;
//   net_query_{unhedged,hedged}_slow_node  tail latency with one node's
//                         responses stalled 50 ms: the unhedged query eats
//                         the stall, the hedged one covers it from the
//                         replica.
//
// The inline oracle gate compares the scattered result against the direct
// engine before any timing is recorded, same contract as every other bench.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/adhoc_cluster.h"
#include "cluster/placement.h"
#include "common/fault_injector.h"
#include "common/timer.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "net/coordinator.h"
#include "net/node_server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "obs/fleet.h"
#include "storage/bsi_store.h"
#include "wire/envelope.h"
#include "wire/messages.h"

using namespace expbsi;

namespace {

constexpr int kNumNodes = 3;
constexpr Date kLo = 50;
constexpr int kDays = 7;

// A response payload shaped like one node's share of a real scorecard
// wave: a handful of segments, each carrying strategy x metric partials.
wire::WireQueryResponse MakeCodecPayload() {
  wire::WireQueryResponse resp;
  resp.segments.resize(4);
  uint32_t seg_id = 0;
  for (wire::WireSegmentResult& seg : resp.segments) {
    seg.segment = seg_id++;
    for (int i = 0; i < 3 * 2; ++i) {  // 3 strategies x 2 metrics
      seg.sums.push_back(1234.5 * (i + 1));
      seg.counts.push_back(100.0 * (i + 1));
    }
  }
  resp.retries = 1;
  resp.bytes_from_cold = 1u << 20;
  resp.hot_hits = 17;
  resp.cpu_seconds = 0.0125;
  return resp;
}

// One node's warehouse slice under replica placement.
BsiStore PrunedStore(const BsiStore& cold, const Placement& placement,
                     int node_id) {
  const std::vector<uint32_t> owned = placement.SegmentsOf(node_id);
  BsiStore store;
  cold.ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                        uint64_t fingerprint) {
    if (std::find(owned.begin(), owned.end(), key.segment) != owned.end()) {
      store.PutRecovered(key, bytes, fingerprint);
    }
  });
  return store;
}

struct ReplicatedFleet {
  std::vector<std::unique_ptr<BsiStore>> stores;
  std::vector<std::unique_ptr<net::NodeServer>> nodes;
  net::CoordinatorOptions options;
  ~ReplicatedFleet() {
    for (auto& node : nodes) node->Stop();
  }
};

bool StartReplicatedFleet(const BsiStore& cold, int num_segments,
                          int replication_factor, ReplicatedFleet* fleet) {
  const Placement placement(kNumNodes, num_segments, replication_factor);
  for (int i = 0; i < kNumNodes; ++i) {
    net::NodeServerOptions node_options;
    node_options.node_id = i;
    node_options.owned_segments = placement.SegmentsOf(i);
    fleet->stores.push_back(
        std::make_unique<BsiStore>(PrunedStore(cold, placement, i)));
    auto node =
        std::make_unique<net::NodeServer>(fleet->stores.back().get(),
                                          node_options);
    if (!node->Start().ok()) return false;
    fleet->options.node_ports.push_back(node->port());
    fleet->nodes.push_back(std::move(node));
  }
  fleet->options.num_segments = num_segments;
  fleet->options.replication_factor = replication_factor;
  return true;
}

}  // namespace

int main() {
  bench_util::OraclePreflight();
  const uint64_t users = bench_util::ScaledUsers(20000);

  bench_util::PrintBanner(
      "Serving path: wire codec, transport round-trip, scatter/gather query",
      "the paper's serving clusters answer scorecard queries over "
      "segment-sharded nodes; this times that split over TCP beside the "
      "in-process engine");
  std::printf("scale: %llu users, %d nodes, %d segments, %d days\n\n",
              static_cast<unsigned long long>(users), kNumNodes, 8, kDays);

  // ---- warehouse -----------------------------------------------------------
  DatasetConfig config;
  config.num_users = users;
  config.num_segments = 8;
  config.num_days = kDays;
  config.start_date = kLo;
  config.seed = 20260808;
  ExperimentConfig exp;
  exp.strategy_ids = {801, 802, 803};
  exp.arm_effects = {1.0, 1.05, 0.97};
  exp.traffic_salt = 3;
  MetricConfig m1;
  m1.metric_id = 901;
  m1.value_range = 21600;
  m1.daily_participation = 0.6;
  MetricConfig m2;
  m2.metric_id = 902;
  m2.value_range = 1;
  m2.daily_participation = 0.7;
  const Dataset dataset = GenerateDataset(config, {exp}, {m1, m2}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const BsiStore cold = BuildColdStore(bsi);

  const std::vector<uint64_t> strategies = {801, 802, 803};
  const std::vector<uint64_t> metrics = {901, 902};
  const Date hi = static_cast<Date>(kLo + kDays - 1);

  // ---- codec: encode + decode, no sockets ---------------------------------
  {
    const wire::WireQueryResponse payload = MakeCodecPayload();
    std::string encoded;
    wire::EncodeQueryResponse(payload, &encoded);
    wire::Envelope env;
    env.type = wire::MsgType::kQueryResponse;
    env.request_id = 42;
    env.payload = encoded;
    constexpr int kIters = 20000;
    double best_ns = 0;
    size_t frame_bytes = 0;
    for (int round = 0; round < 3; ++round) {
      Stopwatch watch;
      for (int i = 0; i < kIters; ++i) {
        std::string frame;
        wire::EncodeEnvelope(env, &frame);
        frame_bytes = frame.size();
        const Result<wire::Envelope> back = wire::DecodeEnvelope(frame);
        if (!back.ok() ||
            !wire::DecodeQueryResponse(back.value().payload).ok()) {
          std::fprintf(stderr, "codec round-trip failed\n");
          return 1;
        }
      }
      const double ns = watch.ElapsedSeconds() * 1e9 / kIters;
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
    }
    std::printf("codec round-trip: %.0f ns/frame (%zu-byte frame)\n",
                best_ns, frame_bytes);
    std::printf("BENCHJSON {\"op\": \"net_codec_roundtrip\", "
                "\"ns_per_op\": %.0f, \"bytes_per_op\": %zu}\n",
                best_ns, frame_bytes);
  }

  // ---- the serving fleet ---------------------------------------------------
  std::vector<std::unique_ptr<net::NodeServer>> nodes;
  net::CoordinatorOptions options;
  for (int i = 0; i < kNumNodes; ++i) {
    net::NodeServerOptions node_options;
    node_options.node_id = i;
    auto node = std::make_unique<net::NodeServer>(&cold, node_options);
    if (!node->Start().ok()) {
      std::fprintf(stderr, "node %d failed to start\n", i);
      return 1;
    }
    options.node_ports.push_back(node->port());
    nodes.push_back(std::move(node));
  }
  options.num_segments = config.num_segments;
  net::Coordinator coordinator(options);

  // ---- transport ping round-trip ------------------------------------------
  {
    Result<net::Socket> conn =
        net::Connect(options.node_ports[0], net::Deadline::After(5.0));
    if (!conn.ok()) {
      std::fprintf(stderr, "ping connect failed\n");
      return 1;
    }
    net::Socket sock = std::move(conn.value());
    net::FaultyEndpoint endpoint(/*endpoint_id=*/999);
    constexpr int kPings = 2000;
    double best_ns = 0;
    for (int round = 0; round < 3; ++round) {
      Stopwatch watch;
      for (int i = 0; i < kPings; ++i) {
        wire::Envelope ping;
        ping.type = wire::MsgType::kPing;
        ping.request_id = static_cast<uint64_t>(i + 1);
        const net::Deadline deadline = net::Deadline::After(5.0);
        if (!net::SendEnvelope(sock, ping, deadline, &endpoint).ok() ||
            !net::RecvEnvelope(sock, deadline, ping.request_id).ok()) {
          std::fprintf(stderr, "ping round-trip failed\n");
          return 1;
        }
      }
      const double ns = watch.ElapsedSeconds() * 1e9 / kPings;
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
    }
    std::printf("ping round-trip:  %.0f ns over loopback TCP\n", best_ns);
    std::printf("BENCHJSON {\"op\": \"net_ping_roundtrip\", "
                "\"ns_per_op\": %.0f}\n",
                best_ns);
  }

  // ---- scatter/gather scorecard query -------------------------------------
  {
    // Oracle gate: the scattered answer must be bit-identical to the
    // direct engine before its latency means anything.
    const Result<AdhocCluster::QueryStats> remote =
        coordinator.QueryBsi(strategies, metrics, kLo, hi);
    if (!remote.ok()) {
      std::fprintf(stderr, "scatter query failed: %s\n",
                   remote.status().ToString().c_str());
      return 1;
    }
    for (const auto& [pair, values] : remote.value().results) {
      const BucketValues direct =
          ComputeStrategyMetricBsi(bsi, pair.first, pair.second, kLo, hi);
      if (values.sums != direct.sums || values.counts != direct.counts) {
        std::fprintf(stderr,
                     "[preflight] FAILED: scattered scorecard diverged from "
                     "the direct engine for %llu/%llu\n",
                     static_cast<unsigned long long>(pair.first),
                     static_cast<unsigned long long>(pair.second));
        return 1;
      }
    }
    std::printf("[preflight] scattered scorecard == direct engine\n");

    constexpr int kQueries = 30;
    double best_ns = 0;
    for (int round = 0; round < 3; ++round) {
      Stopwatch watch;
      for (int i = 0; i < kQueries; ++i) {
        const Result<AdhocCluster::QueryStats> r =
            coordinator.QueryBsi(strategies, metrics, kLo, hi);
        if (!r.ok()) {
          std::fprintf(stderr, "scatter query failed mid-bench\n");
          return 1;
        }
      }
      const double ns = watch.ElapsedSeconds() * 1e9 / kQueries;
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
    }
    // The same queries through the in-process node link on the same
    // warehouse. That link runs its nodes serially while the TCP scatter runs
    // them in parallel, so the two times are reported side by side: their
    // difference is not the protocol's cost.
    AdhocClusterConfig cluster_config;
    cluster_config.num_nodes = kNumNodes;
    AdhocCluster cluster(&dataset, &bsi, cluster_config);
    double local_best_ns = 0;
    for (int round = 0; round < 3; ++round) {
      Stopwatch watch;
      for (int i = 0; i < kQueries; ++i) {
        if (!cluster.QueryBsi(strategies, metrics, kLo, hi).ok()) {
          std::fprintf(stderr, "in-process query failed mid-bench\n");
          return 1;
        }
      }
      const double ns = watch.ElapsedSeconds() * 1e9 / kQueries;
      if (local_best_ns == 0 || ns < local_best_ns) local_best_ns = ns;
    }
    std::printf("scatter/gather:   %.2f ms/query over %d TCP nodes "
                "(parallel)\n",
                best_ns / 1e6, kNumNodes);
    std::printf("in-process link:  %.2f ms/query over %d nodes (serial)\n",
                local_best_ns / 1e6, kNumNodes);
    std::printf("BENCHJSON {\"op\": \"net_query_scatter\", "
                "\"ns_per_op\": %.0f}\n",
                best_ns);
    std::printf("BENCHJSON {\"op\": \"net_query_inprocess\", "
                "\"ns_per_op\": %.0f}\n",
                local_best_ns);
  }

  // ---- fleet scrape: merged stats from every node -------------------------
  // One observability wave over the live 3-node fleet: kStatsFetch to every
  // node plus the coordinator's self row, merged and rendered as Prometheus
  // text. This is what a monitoring pull against the coordinator costs, and
  // it shares the serving sockets -- it should stay far below query latency.
  {
    obs::FleetScraperOptions scrape_options;
    scrape_options.node_ports.assign(options.node_ports.begin(),
                                     options.node_ports.end());
    obs::FleetScraper scraper(scrape_options);
    constexpr int kScrapes = 50;
    double best_ns = 0;
    size_t exposition_bytes = 0;
    for (int round = 0; round < 3; ++round) {
      Stopwatch watch;
      for (int i = 0; i < kScrapes; ++i) {
        const obs::FleetView view = scraper.Scrape();
        for (const obs::FleetNodeSnapshot& snap : view.nodes) {
          if (snap.label != "coordinator" && !snap.reachable) {
            std::fprintf(stderr, "fleet scrape lost node %s: %s\n",
                         snap.label.c_str(), snap.error.c_str());
            return 1;
          }
        }
        exposition_bytes = obs::FleetScraper::RenderPrometheus(view).size();
      }
      const double ns = watch.ElapsedSeconds() * 1e9 / kScrapes;
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
    }
    std::printf("fleet scrape:     %.2f ms over %d nodes "
                "(%zu-byte exposition)\n",
                best_ns / 1e6, kNumNodes, exposition_bytes);
    std::printf("BENCHJSON {\"op\": \"net_fleet_scrape\", "
                "\"ns_per_op\": %.0f, \"bytes_per_op\": %zu}\n",
                best_ns, exposition_bytes);
  }

  for (auto& node : nodes) node->Stop();
  nodes.clear();

  // ---- replicated scatter: R=1 vs R=2 pruned fleets -----------------------
  // Same query, but each node serves only its placement slice and the
  // coordinator routes by replica set. The R=1/R=2 pair prices what
  // replication costs on the fault-free fast path (wave-1 routing dials
  // primaries only, and primaries are independent of R, so the answer
  // should be "almost nothing").
  for (int replicas = 1; replicas <= 2; ++replicas) {
    ReplicatedFleet fleet;
    if (!StartReplicatedFleet(cold, config.num_segments, replicas, &fleet)) {
      std::fprintf(stderr, "replicated fleet (R=%d) failed to start\n",
                   replicas);
      return 1;
    }
    net::Coordinator coordinator_r(fleet.options);
    const Result<AdhocCluster::QueryStats> remote =
        coordinator_r.QueryBsi(strategies, metrics, kLo, hi);
    if (!remote.ok()) {
      std::fprintf(stderr, "replicated scatter (R=%d) failed: %s\n", replicas,
                   remote.status().ToString().c_str());
      return 1;
    }
    for (const auto& [pair, values] : remote.value().results) {
      const BucketValues direct =
          ComputeStrategyMetricBsi(bsi, pair.first, pair.second, kLo, hi);
      if (values.sums != direct.sums || values.counts != direct.counts) {
        std::fprintf(stderr,
                     "[preflight] FAILED: replicated scorecard (R=%d) "
                     "diverged from the direct engine\n",
                     replicas);
        return 1;
      }
    }
    constexpr int kQueries = 30;
    double best_ns = 0;
    for (int round = 0; round < 3; ++round) {
      Stopwatch watch;
      for (int i = 0; i < kQueries; ++i) {
        if (!coordinator_r.QueryBsi(strategies, metrics, kLo, hi).ok()) {
          std::fprintf(stderr, "replicated scatter failed mid-bench\n");
          return 1;
        }
      }
      const double ns = watch.ElapsedSeconds() * 1e9 / kQueries;
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
    }
    std::printf("replicated scatter (R=%d): %.2f ms/query over %d pruned "
                "nodes\n",
                replicas, best_ns / 1e6, kNumNodes);
    std::printf("BENCHJSON {\"op\": \"net_query_scatter_r%d\", "
                "\"ns_per_op\": %.0f}\n",
                replicas, best_ns);
  }

  // ---- hedged reads: tail latency with one stalled node -------------------
  // Every response send from node 0 is delayed 50 ms (scheduled one-shots
  // on its send endpoint, so nothing else slows down). The unhedged query
  // eats the stall; the hedged one re-issues to the replica after 5 ms and
  // takes whichever answer lands first.
  {
    constexpr double kStallSeconds = 0.05;
    constexpr int kQueries = 10;
    double tail_ns[2] = {0, 0};  // [0] unhedged, [1] hedged
    for (int hedged = 0; hedged <= 1; ++hedged) {
      ReplicatedFleet fleet;
      if (!StartReplicatedFleet(cold, config.num_segments, 2, &fleet)) {
        std::fprintf(stderr, "hedge fleet failed to start\n");
        return 1;
      }
      fleet.options.hedge_reads = hedged == 1;
      fleet.options.hedge_delay_seconds = 0.005;
      net::Coordinator coordinator_h(fleet.options);
      FaultInjector injector(/*seed=*/20260808);
      injector.SetDelayProbability(fault_sites::kNetSend, 0.0, kStallSeconds);
      for (uint64_t op = 0; op < 4096; ++op) {
        // Node 0's server send endpoint is its node id, so its per-endpoint
        // op indices start at 0 * kNetOpStride.
        injector.ScheduleFault(fault_sites::kNetSend, op, FaultKind::kDelay);
      }
      double best_ns = 0;
      {
        ScopedFaultInjection scoped(&injector);
        for (int round = 0; round < 3; ++round) {
          Stopwatch watch;
          for (int i = 0; i < kQueries; ++i) {
            const Result<AdhocCluster::QueryStats> r =
                coordinator_h.QueryBsi(strategies, metrics, kLo, hi);
            if (!r.ok() || !r.value().degraded.lost_segments.empty()) {
              std::fprintf(stderr, "slow-node query failed mid-bench\n");
              return 1;
            }
          }
          const double ns = watch.ElapsedSeconds() * 1e9 / kQueries;
          if (best_ns == 0 || ns < best_ns) best_ns = ns;
        }
      }
      tail_ns[hedged] = best_ns;
    }
    std::printf("slow-node query:  unhedged %.2f ms, hedged %.2f ms "
                "(one node stalled %.0f ms per response)\n",
                tail_ns[0] / 1e6, tail_ns[1] / 1e6, kStallSeconds * 1e3);
    std::printf("BENCHJSON {\"op\": \"net_query_unhedged_slow_node\", "
                "\"ns_per_op\": %.0f}\n",
                tail_ns[0]);
    std::printf("BENCHJSON {\"op\": \"net_query_hedged_slow_node\", "
                "\"ns_per_op\": %.0f}\n",
                tail_ns[1]);
  }

  bench_util::EmitRegistrySnapshot("net_query");
  return 0;
}
