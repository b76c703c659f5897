// scorecard_fleet: ad-hoc scorecard queries served by a segment-sharded
// fleet (paper §5.3). Three in-process NodeServers each serve a pruned R=2
// replica store; one Coordinator takes a closed loop of two client threads,
// each drawing its next query from a seeded list of scorecard queries.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cluster/adhoc_cluster.h"
#include "cluster/placement.h"
#include "cluster/segment_query.h"
#include "common/rng.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "net/coordinator.h"
#include "net/node_server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"
#include "storage/bsi_store.h"
#include "storage/tiered_store.h"
#include "wire/envelope.h"
#include "wire/messages.h"

namespace perfbench {
namespace {

using namespace expbsi;

constexpr int kNodes = 3;
constexpr int kSegments = 8;
constexpr int kReplicas = 2;
constexpr int kDays = 7;
constexpr int kClients = 2;
constexpr Date kLo = 50;
constexpr Date kHi = kLo + kDays - 1;
constexpr uint64_t kUsers = 20000;
constexpr int kRestarts = 15;
// The window is a series of slices of exactly kSliceQueries queries (15
// beyond each slice's p99), at least kMinSlices of them. Before every slice
// but the first the fleet is restarted untimed: a node keeps each finished
// connection handler, stack included, until it stops, so without restarts
// the process's memory and mappings would grow with the queries served.
constexpr size_t kSliceQueries = 1500;
constexpr size_t kMinSlices = 3;
const std::vector<uint64_t> kStrategies = {801, 802, 803};
const std::vector<uint64_t> kMetrics = {901, 902};

using Answer = std::map<StrategyMetricPair, BucketValues>;

struct ScorecardQuery {
  std::vector<uint64_t> metrics;
  Date lo = kLo;
  Date hi = kHi;
  bool operator==(const ScorecardQuery& o) const {
    return metrics == o.metrics && lo == o.lo && hi == o.hi;
  }
};

// The query list: every scorecard over all three arms (a scorecard compares
// them) for each 1-7 day window of the week and each metric subset, in a
// seeded order. The mix is the same for every seed; the order and the
// data are not.
std::vector<ScorecardQuery> MakeQueryList(uint64_t seed) {
  std::vector<ScorecardQuery> list;
  const std::vector<std::vector<uint64_t>> subsets = {
      {kMetrics[0]}, {kMetrics[1]}, kMetrics};
  for (Date lo = kLo; lo <= kHi; ++lo) {
    for (Date hi = lo; hi <= kHi; ++hi) {
      for (const std::vector<uint64_t>& metrics : subsets) {
        list.push_back(ScorecardQuery{metrics, lo, hi});
      }
    }
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  for (size_t i = list.size() - 1; i > 0; --i) {
    std::swap(list[i], list[rng.NextBounded(i + 1)]);
  }
  return list;
}

Dataset MakeFleetDataset(uint64_t seed) {
  DatasetConfig config;
  config.num_users = kUsers;
  config.num_segments = kSegments;
  config.num_days = kDays;
  config.start_date = kLo;
  config.seed = seed;
  ExperimentConfig exp;
  exp.strategy_ids = kStrategies;
  exp.arm_effects = {1.0, 1.05, 0.97};
  exp.traffic_salt = 3;
  MetricConfig m1;
  m1.metric_id = kMetrics[0];
  m1.value_range = 21600;
  m1.daily_participation = 0.6;
  MetricConfig m2;
  m2.metric_id = kMetrics[1];
  m2.value_range = 1;
  m2.daily_participation = 0.7;
  return GenerateDataset(config, {exp}, {m1, m2}, {});
}

BsiStore PrunedStore(const BsiStore& cold, const std::vector<uint32_t>& owned) {
  BsiStore store;
  cold.ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                        uint64_t fingerprint) {
    if (std::find(owned.begin(), owned.end(), key.segment) != owned.end()) {
      store.PutRecovered(key, bytes, fingerprint);
    }
  });
  return store;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [pair, values] : a) {
    const auto it = b.find(pair);
    if (it == b.end() || it->second.sums != values.sums ||
        it->second.counts != values.counts) {
      return false;
    }
  }
  return true;
}

// The warehouse plus a running fleet over it. Nodes are declared after the
// stores they serve, so they stop first.
struct Fleet {
  Dataset dataset;
  ExperimentBsiData bsi;
  BsiStore cold;
  Placement placement{kNodes, kSegments, kReplicas};
  std::vector<std::unique_ptr<BsiStore>> stores;
  std::vector<net::NodeServerOptions> node_options;
  std::vector<std::unique_ptr<net::NodeServer>> nodes;
  net::CoordinatorOptions options;
  std::unique_ptr<net::Coordinator> coordinator;

  ~Fleet() {
    coordinator.reset();
    for (auto& node : nodes) {
      if (node != nullptr) node->Stop();  // null after a failed restart
    }
  }

  // Segments a node executes on the fault-free path (it is their primary).
  std::vector<uint32_t> PrimarySegments(int node) const {
    std::vector<uint32_t> segs;
    for (int s = 0; s < kSegments; ++s) {
      if (placement.ReplicasOf(s)[0] == node) {
        segs.push_back(static_cast<uint32_t>(s));
      }
    }
    return segs;
  }
};

// Everything before the first timed query: dataset, BSI warehouse, pruned
// replica stores, node start and the coordinator.
std::unique_ptr<Fleet> StartFleet(uint64_t seed) {
  auto fleet = std::make_unique<Fleet>();
  fleet->dataset = MakeFleetDataset(seed);
  fleet->bsi = BuildExperimentBsiData(fleet->dataset, true);
  fleet->cold = BuildColdStore(fleet->bsi);
  for (int i = 0; i < kNodes; ++i) {
    net::NodeServerOptions node_options;
    node_options.node_id = i;
    node_options.owned_segments = fleet->placement.SegmentsOf(i);
    fleet->stores.push_back(std::make_unique<BsiStore>(
        PrunedStore(fleet->cold, node_options.owned_segments)));
    auto node = std::make_unique<net::NodeServer>(fleet->stores.back().get(),
                                                  node_options);
    if (!node->Start().ok()) return nullptr;
    fleet->options.node_ports.push_back(node->port());
    fleet->node_options.push_back(node_options);
    fleet->nodes.push_back(std::move(node));
  }
  fleet->options.num_segments = kSegments;
  fleet->options.replication_factor = kReplicas;
  fleet->coordinator = std::make_unique<net::Coordinator>(fleet->options);
  return fleet;
}

// One query of each distinct kind, in order: the warm-up that fills the
// nodes' hot tiers. A failed query yields an empty answer.
std::vector<Answer> WarmUp(Fleet& fleet,
                           const std::vector<ScorecardQuery>& distinct) {
  std::vector<Answer> answers;
  for (const ScorecardQuery& q : distinct) {
    Result<AdhocCluster::QueryStats> r =
        fleet.coordinator->QueryBsi(kStrategies, q.metrics, q.lo, q.hi);
    answers.push_back(r.ok() ? r.value().results : Answer{});
  }
  return answers;
}

// Replaces stopped node `i` by a fresh server (cold hot tier) over the same
// replica store and records its port; the coordinator is left to the caller.
bool StartNodeAgain(Fleet& fleet, int i) {
  auto node = std::make_unique<net::NodeServer>(fleet.stores[i].get(),
                                                fleet.node_options[i]);
  if (!node->Start().ok()) return false;
  fleet.options.node_ports[i] = node->port();
  fleet.nodes[i] = std::move(node);
  return true;
}

// Stops every node, which joins its finished connection handlers, starts a
// fresh server over the same replica store, points a new coordinator at the
// new ports and warms the hot tiers up again. False when a node does not
// start or a warm-up answer differs from the gated one.
bool RestartFleet(Fleet& fleet, const std::vector<ScorecardQuery>& distinct,
                  const std::vector<Answer>& answers) {
  for (int i = 0; i < kNodes; ++i) {
    fleet.nodes[i].reset();  // NodeServer's destructor stops it
    if (!StartNodeAgain(fleet, i)) return false;
  }
  fleet.coordinator = std::make_unique<net::Coordinator>(fleet.options);
  const std::vector<Answer> warm = WarmUp(fleet, distinct);
  for (size_t d = 0; d < distinct.size(); ++d) {
    if (!SameAnswer(warm[d], answers[d])) return false;
  }
  return true;
}

// Output gate: one answer must match the direct BSI engine and the scalar
// oracle bit for bit, pair by pair.
bool GateAnswer(const Fleet& fleet, const RefExperimentData& ref,
                const ScorecardQuery& q, const Answer& got) {
  if (got.size() != kStrategies.size() * q.metrics.size()) return false;
  for (uint64_t s : kStrategies) {
    for (uint64_t m : q.metrics) {
      const auto it = got.find({s, m});
      if (it == got.end()) return false;
      const BucketValues direct =
          ComputeStrategyMetricBsi(fleet.bsi, s, m, q.lo, q.hi);
      const BucketValues oracle = RefComputeStrategyMetric(ref, s, m, q.lo, q.hi);
      if (it->second.sums != direct.sums ||
          it->second.counts != direct.counts ||
          it->second.sums != oracle.sums ||
          it->second.counts != oracle.counts) {
        return false;
      }
    }
  }
  return true;
}

// One slice of the window: its length, the CPU and bytes it used and the
// latencies of its correctly answered queries.
struct Slice {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  uint64_t bytes_sent = 0;
  std::vector<double> latencies_ms;
};

struct WindowResult {
  std::vector<Slice> slices;
  std::vector<double> latencies_ms;  // every slice's, pooled
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Median over the window's slices of fn(slice): a burst of host noise moves
// one slice, not the result.
template <typename Fn>
double SliceMedian(const WindowResult& w, Fn&& fn) {
  std::vector<double> values;
  for (const Slice& slice : w.slices) values.push_back(fn(slice));
  return Median(values);
}

// One slice of the closed loop: kClients threads, each sending its next
// query only after the previous one returned, until kSliceQueries queries
// have been sent. Every answer is checked against the gated answer of its
// query. `next` is the shared position in the query list.
void RunSlice(Fleet& fleet, const std::vector<ScorecardQuery>& list,
              const std::vector<size_t>& distinct_of,
              const std::vector<Answer>& answers, std::atomic<size_t>& next,
              uint64_t* op_base, WindowResult* w) {
  struct ClientLog {
    std::vector<double> ms;
    uint64_t failed = 0;
  };
  std::atomic<size_t> issued{0};
  std::vector<ClientLog> logs(kClients);
  obs::Counter& bytes_sent = obs::GetCounter("net.bytes_sent");
  const uint64_t bytes0 = bytes_sent.Value();
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        for (size_t ticket = issued.fetch_add(1); ticket < kSliceQueries;
             ticket = issued.fetch_add(1)) {
          const size_t qi = next.fetch_add(1) % list.size();
          const ScorecardQuery& q = list[qi];
          SpanRecorder::BeginOp(*op_base + ticket);
          const uint64_t start = NowNs();
          Result<AdhocCluster::QueryStats> r = Status::Unavailable("not run");
          {
            ScopedSpan span("scorecard_query");
            r = fleet.coordinator->QueryBsi(kStrategies, q.metrics, q.lo,
                                            q.hi);
          }
          const uint64_t done = NowNs();
          if (!r.ok() || r.value().degraded.lost_segments.size() != 0 ||
              !SameAnswer(r.value().results, answers[distinct_of[qi]])) {
            ++log.failed;
            continue;
          }
          log.ms.push_back(static_cast<double>(done - start) / 1e6);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  Slice slice;
  slice.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  slice.cpu_seconds = ProcessCpuSeconds() - cpu0;
  slice.bytes_sent = bytes_sent.Value() - bytes0;
  w->attempted += kSliceQueries;
  for (const ClientLog& log : logs) {
    w->failed += log.failed;
    slice.latencies_ms.insert(slice.latencies_ms.end(), log.ms.begin(),
                              log.ms.end());
  }
  w->latencies_ms.insert(w->latencies_ms.end(), slice.latencies_ms.begin(),
                         slice.latencies_ms.end());
  w->slices.push_back(std::move(slice));
  *op_base += kSliceQueries;
}

// Slices until `seconds` of slice time are spent and at least kMinSlices
// are done, the fleet restarted (untimed) before each slice but the first.
WindowResult RunWindow(Fleet& fleet, const std::vector<ScorecardQuery>& list,
                       const std::vector<ScorecardQuery>& distinct,
                       const std::vector<size_t>& distinct_of,
                       const std::vector<Answer>& answers, double seconds,
                       bool traced) {
  WindowResult w;
  std::atomic<size_t> next{0};
  uint64_t op_base = 1;
  double timed = 0.0;
  while (w.slices.size() < kMinSlices || timed < seconds) {
    if (!w.slices.empty()) {
      ++w.attempted;
      if (!RestartFleet(fleet, distinct, answers)) {
        ++w.failed;
        break;
      }
    }
    SpanRecorder::Global().set_enabled(traced);
    RunSlice(fleet, list, distinct_of, answers, next, &op_base, &w);
    SpanRecorder::Global().set_enabled(false);
    timed += w.slices.back().seconds;
  }
  return w;
}

// A node restart: a fresh server (cold hot tier) over node 0's replica
// store, a coordinator that knows its new port, and the first full-window
// scorecard through it. Returns seconds, or nullopt on a wrong answer.
std::optional<double> RestartNode(Fleet& fleet, const Answer& full_answer) {
  fleet.nodes[0].reset();  // stops it and frees its hot tier, untimed
  const uint64_t t0 = NowNs();
  if (!StartNodeAgain(fleet, 0)) return std::nullopt;
  net::Coordinator coordinator(fleet.options);
  const Result<AdhocCluster::QueryStats> r =
      coordinator.QueryBsi(kStrategies, kMetrics, kLo, kHi);
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  fleet.coordinator = std::make_unique<net::Coordinator>(fleet.options);
  if (!r.ok() || !SameAnswer(r.value().results, full_answer)) {
    return std::nullopt;
  }
  return seconds;
}

}  // namespace

Outcome RunFleet(const Args& args) {
  Outcome out;
  const std::vector<ScorecardQuery> list = MakeQueryList(args.seed);
  std::vector<ScorecardQuery> distinct;
  std::vector<size_t> distinct_of;
  for (const ScorecardQuery& q : list) {
    auto it = std::find(distinct.begin(), distinct.end(), q);
    distinct_of.push_back(static_cast<size_t>(it - distinct.begin()));
    if (it == distinct.end()) distinct.push_back(q);
  }

  // Set-up, repeated; the last fleet is the one measured. Warm-up is one
  // query of each distinct kind, whose answers the gate below checks.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  std::vector<Answer> answers;
  for (int i = 0; i < setups; ++i) {
    fleet.reset();
    answers.clear();
    const uint64_t t0 = NowNs();
    fleet = StartFleet(args.seed);
    if (fleet == nullptr) {
      out.Fail("fleet node failed to start");
      return out;
    }
    answers = WarmUp(*fleet, distinct);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Output gate: each distinct query's first answer against the direct
  // engine and the scalar oracle.
  const RefExperimentData ref = BuildRefExperimentData(fleet->dataset);
  for (size_t d = 0; d < distinct.size(); ++d) {
    ++out.attempted;
    if (!GateAnswer(*fleet, ref, distinct[d], answers[d])) {
      out.Fail("scorecard answer differs from the engine or the oracle");
    }
  }
  if (!out.correct) return out;

  WindowResult w;
  if (args.trace) {
    // Half the window untraced, half with a span around every query: the
    // difference of the two medians is what the tracing costs.
    const WindowResult plain = RunWindow(*fleet, list, distinct, distinct_of,
                                         answers, args.seconds / 2, false);
    w = RunWindow(*fleet, list, distinct, distinct_of, answers,
                  args.seconds / 2, true);
    out.Add("obs.trace_overhead",
            Median(w.latencies_ms) - Median(plain.latencies_ms), "ms");
    out.attempted += plain.attempted;
    out.failed += plain.failed;
  } else {
    w = RunWindow(*fleet, list, distinct, distinct_of, answers, args.seconds,
                  false);
  }
  out.attempted += w.attempted;
  out.failed += w.failed;
  if (w.failed > 0) out.correct = false;
  const double peak_rss = PeakRssMb();
  const double completed = static_cast<double>(w.latencies_ms.size());

  // Every rate and percentile is taken per slice, then the median of the
  // slices is reported.
  auto per_query = [](const Slice& s, double total) {
    return total / std::max(static_cast<double>(s.latencies_ms.size()), 1.0);
  };
  const double p50 =
      SliceMedian(w, [](const Slice& s) { return Median(s.latencies_ms); });
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("throughput_per_s", SliceMedian(w, [](const Slice& s) {
            return static_cast<double>(s.latencies_ms.size()) / s.seconds;
          }),
          "1/s");
  out.Add("latency_ms", p50, "ms");
  out.Add("latency_tail_ms",
          SliceMedian(w, [](const Slice& s) { return Tail(s.latencies_ms); }),
          "ms");
  out.Add("read_p50_ms", p50, "ms");
  out.Add("cpu_ms_per_op", SliceMedian(w, [&](const Slice& s) {
            return per_query(s, s.cpu_seconds * 1e3);
          }),
          "ms");
  out.Add("bytes_per_op", SliceMedian(w, [&](const Slice& s) {
            return per_query(s, static_cast<double>(s.bytes_sent));
          }),
          "B");
  out.Add("peak_rss_mb", peak_rss, "MB");
  out.Info("op", "scorecard query (3 arms, 1-2 metrics, 1-7 days)");
  out.Info("loop", "closed");
  out.Info("clients", kClients);
  out.Info("queries_completed", completed);
  out.Info("samples_beyond_p99_per_slice",
           static_cast<double>(kSliceQueries) -
               std::ceil(0.99 * static_cast<double>(kSliceQueries)));
  out.Info("distinct_queries", static_cast<double>(distinct.size()));
  out.Info("slices", static_cast<double>(w.slices.size()));
  return out;
}

void ReplayFleet(const Args& args, bool home, Outcome* out) {
  std::unique_ptr<Fleet> fleet = StartFleet(args.seed);
  if (fleet == nullptr) {
    out->Fail("replay fleet failed to start");
    return;
  }
  const Result<AdhocCluster::QueryStats> expected =
      fleet->coordinator->QueryBsi(kStrategies, kMetrics, kLo, kHi);
  ++out->attempted;
  if (!expected.ok()) {
    out->Fail("replay fleet query failed");
    return;
  }
  const size_t num_metrics = kMetrics.size();
  SpanRecorder& rec = SpanRecorder::Global();
  rec.set_enabled(true);

  // 1. The node-side sequence of cluster/segment_query.cc, one call per
  // span, over a TieredStore per node: fetch -> decode -> expose masks ->
  // masked sums. Its sums must equal the fleet's.
  constexpr int kReps = 20;
  std::vector<std::unique_ptr<TieredStore>> tiers;
  for (int n = 0; n < kNodes; ++n) {
    tiers.push_back(std::make_unique<TieredStore>(
        fleet->stores[n].get(), fleet->node_options[n].hot_capacity_bytes));
  }
  double decode_bytes = 0.0;
  uint64_t decodes = 0;
  ContainerMix mix;
  for (int rep = 0; rep < kReps; ++rep) {
    SpanRecorder::BeginOp(static_cast<uint64_t>(rep + 1));
    Answer replayed;
    for (uint64_t s : kStrategies) {
      for (uint64_t m : kMetrics) {
        replayed[{s, m}].sums.assign(kSegments, 0.0);
        replayed[{s, m}].counts.assign(kSegments, 0.0);
      }
    }
    ScopedSpan query_span("query");
    for (int n = 0; n < kNodes; ++n) {
      ScopedSpan node_span("node");
      TieredStore& tier = *tiers[n];
      for (uint32_t seg : fleet->PrimarySegments(n)) {
        ScopedSpan seg_span("segment");
        auto fetch = [&](const BsiStoreKey& key) {
          std::shared_ptr<const std::string> blob;
          TimedSpan("fetch", [&] {
            Result<std::shared_ptr<const std::string>> r = tier.Fetch(key);
            if (r.ok()) blob = r.value();
          });
          if (blob != nullptr) {
            decode_bytes += static_cast<double>(blob->size());
            ++decodes;
          }
          return blob;
        };
        std::vector<std::vector<RoaringBitmap>> masks(kStrategies.size());
        for (size_t si = 0; si < kStrategies.size(); ++si) {
          const std::shared_ptr<const std::string> blob =
              fetch(BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kExpose,
                                kStrategies[si], 0});
          if (blob == nullptr) continue;
          std::optional<ExposeBsi> expose;
          TimedSpan("decode", [&] {
            Result<ExposeBsi> r = ExposeBsi::Deserialize(*blob);
            if (r.ok()) expose.emplace(std::move(r).value());
          });
          if (!expose.has_value()) continue;
          if (home && rep == 0) mix.AddSlices(expose->offset);
          TimedSpan("expose_mask", [&] {
            for (Date d = kLo; d <= kHi; ++d) {
              if (masks[si].empty()) {
                masks[si].push_back(expose->ExposedOnOrBefore(d));
              } else {
                RoaringBitmap mask = masks[si].back();
                mask.OrInPlace(expose->ExposedBetween(d, d));
                masks[si].push_back(std::move(mask));
              }
            }
          });
        }
        for (size_t mi = 0; mi < num_metrics; ++mi) {
          for (Date d = kLo; d <= kHi; ++d) {
            const std::shared_ptr<const std::string> blob =
                fetch(BsiStoreKey{static_cast<uint16_t>(seg),
                                  BsiKind::kMetric, kMetrics[mi], d});
            if (blob == nullptr) continue;
            std::optional<MetricBsi> metric;
            TimedSpan("decode", [&] {
              Result<MetricBsi> r = MetricBsi::Deserialize(*blob);
              if (r.ok()) metric.emplace(std::move(r).value());
            });
            if (!metric.has_value()) continue;
            if (home && rep == 0) mix.AddSlices(metric->value);
            for (size_t si = 0; si < kStrategies.size(); ++si) {
              if (masks[si].empty()) continue;
              uint64_t sum = 0;
              TimedSpan("masked_sum", [&] {
                sum = metric->value.SumUnderMask(masks[si][d - kLo]);
              });
              replayed[{kStrategies[si], kMetrics[mi]}].sums[seg] +=
                  static_cast<double>(sum);
            }
          }
          for (size_t si = 0; si < kStrategies.size(); ++si) {
            if (masks[si].empty()) continue;
            replayed[{kStrategies[si], kMetrics[mi]}].counts[seg] +=
                static_cast<double>(masks[si].back().Cardinality());
          }
        }
      }
    }
    if (rep == 0) {
      ++out->attempted;
      if (!SameAnswer(replayed, expected.value().results)) {
        out->Fail("replayed segment sums differ from the fleet's answer");
      }
    }
  }
  uint64_t hot_hits = 0, fetches = 0;
  for (const auto& tier : tiers) {
    const TieredStore::Stats st = tier->stats();
    hot_hits += st.hot_hits;
    fetches += st.hot_hits + st.cold_reads;
  }
  out->Add("storage.fetch_us", rec.Self("fetch").mean_us(), "us");
  out->Add("storage.hot_hit_ratio",
           static_cast<double>(hot_hits) /
               static_cast<double>(std::max<uint64_t>(fetches, 1)),
           "ratio");
  out->Add("storage.fetches", static_cast<double>(fetches), "count");
  out->Add("bsi.decode_us", rec.Self("decode").mean_us(), "us");
  out->Add("bsi.decode_bytes",
           decode_bytes / static_cast<double>(std::max<uint64_t>(decodes, 1)),
           "B");
  out->Add("bsi.expose_mask_ms",
           rec.Total("expose_mask").total_ns / 1e6 / kReps, "ms");
  out->Add("bsi.masked_sum_ms",
           rec.Total("masked_sum").total_ns / 1e6 / kReps, "ms");
  out->Add("bsi.masked_sum_calls",
           static_cast<double>(rec.Total("masked_sum").count) / kReps,
           "count");

  // 2. ExecuteSegmentQuery per segment, summed per node; the slowest node
  // bounds the scatter.
  std::vector<double> slowest_ms;
  std::vector<std::vector<SegPartial>> partials(kNodes);
  for (int rep = 0; rep < kReps; ++rep) {
    double slowest = 0.0;
    for (int n = 0; n < kNodes; ++n) {
      uint64_t node_ns = 0;
      partials[n].clear();
      for (uint32_t seg : fleet->PrimarySegments(n)) {
        SegPartial partial;
        SegmentExecStats exec;
        Result<bool> ok = Status::Unavailable("not run");
        node_ns += TimedSpan("segment_execute", [&] {
          ok = ExecuteSegmentQuery(*tiers[n], static_cast<int>(seg),
                                   kStrategies, kMetrics, kLo, kHi,
                                   RetryPolicy{}, false, &partial, &exec);
        });
        if (!ok.ok() || !ok.value()) {
          out->Fail("ExecuteSegmentQuery failed in the replay");
          return;
        }
        partials[n].push_back(std::move(partial));
      }
      slowest = std::max(slowest, static_cast<double>(node_ns) / 1e6);
    }
    slowest_ms.push_back(slowest);
  }
  const double segment_execute_ms = Mean(slowest_ms);
  out->Add("cluster.segment_execute_ms", segment_execute_ms, "ms");

  // 3. The actual responses: one real request per node over a fresh
  // connection, then encode + decode of exactly those frames.
  double wire_bytes = 0.0;
  std::vector<wire::Envelope> responses;
  for (int n = 0; n < kNodes; ++n) {
    Result<net::Socket> conn = net::Connect(fleet->options.node_ports[n],
                                            net::Deadline::After(5.0));
    if (!conn.ok()) {
      out->Fail("replay connect failed");
      return;
    }
    wire::WireQueryRequest req;
    req.strategy_ids = kStrategies;
    req.metric_ids = kMetrics;
    req.date_lo = kLo;
    req.date_hi = kHi;
    req.segments = fleet->PrimarySegments(n);
    req.want_trace = fleet->options.want_trace;
    wire::Envelope env;
    env.type = wire::MsgType::kQueryRequest;
    env.request_id = 1000 + static_cast<uint64_t>(n);
    wire::EncodeQueryRequest(req, &env.payload);
    std::string frame;
    wire::EncodeEnvelope(env, &frame);
    wire_bytes += static_cast<double>(frame.size());
    const net::Deadline deadline = net::Deadline::After(5.0);
    if (!net::SendEnvelope(conn.value(), env, deadline, nullptr).ok()) {
      out->Fail("replay send failed");
      return;
    }
    Result<wire::Envelope> reply =
        net::RecvEnvelope(conn.value(), deadline, env.request_id);
    if (!reply.ok() || reply.value().type != wire::MsgType::kQueryResponse) {
      out->Fail("replay query RPC failed");
      return;
    }
    responses.push_back(std::move(reply).value());
  }
  constexpr int kCodecReps = 200;
  for (int rep = 0; rep < kCodecReps; ++rep) {
    for (size_t n = 0; n < responses.size(); ++n) {
      TimedSpan("codec", [&] {
        Result<wire::WireQueryResponse> decoded =
            wire::DecodeQueryResponse(responses[n].payload);
        wire::Envelope env = responses[n];
        env.payload.clear();
        if (decoded.ok()) wire::EncodeQueryResponse(decoded.value(), &env.payload);
        std::string frame;
        wire::EncodeEnvelope(env, &frame);
        const Result<wire::Envelope> back = wire::DecodeEnvelope(frame);
        if (rep == 0) {
          wire_bytes += static_cast<double>(frame.size());
          ++out->attempted;
          bool same = decoded.ok() && back.ok() &&
                      decoded.value().segments.size() == partials[n].size();
          for (size_t i = 0; same && i < partials[n].size(); ++i) {
            same = decoded.value().segments[i].sums == partials[n][i].sums &&
                   decoded.value().segments[i].counts == partials[n][i].counts;
          }
          if (!same) out->Fail("node response differs from the replay");
        }
      });
    }
  }
  const double codec_us = rec.Total("codec").total_ns / 1e3 / kCodecReps;
  out->Add("wire.codec_us", codec_us, "us");
  out->Add("wire.bytes_per_query", wire_bytes, "B");

  // 4. Transport: connect, and a ping over an open connection.
  // Median, not mean: a burst of connects can overflow the accept backlog
  // and one SYN retransmit would swamp the average.
  constexpr int kConnects = 100;
  std::vector<double> connect_ns;
  for (int i = 0; i < kConnects; ++i) {
    connect_ns.push_back(static_cast<double>(TimedSpan("connect", [&] {
      Result<net::Socket> c = net::Connect(
          fleet->options.node_ports[i % kNodes], net::Deadline::After(5.0));
      if (!c.ok()) out->Fail("replay connect failed");
    })));
  }
  const double connect_us = Median(connect_ns) / 1e3;
  out->Add("net.connect_us", connect_us, "us");
  {
    Result<net::Socket> conn = net::Connect(fleet->options.node_ports[0],
                                            net::Deadline::After(5.0));
    constexpr int kPings = 1000;
    for (int i = 0; conn.ok() && i < kPings; ++i) {
      TimedSpan("rpc_roundtrip", [&] {
        wire::Envelope ping;
        ping.type = wire::MsgType::kPing;
        ping.request_id = static_cast<uint64_t>(i + 1);
        const net::Deadline deadline = net::Deadline::After(5.0);
        if (!net::SendEnvelope(conn.value(), ping, deadline, nullptr).ok() ||
            !net::RecvEnvelope(conn.value(), deadline, ping.request_id).ok()) {
          out->Fail("ping round-trip failed");
        }
      });
    }
    if (!conn.ok()) out->Fail("replay ping connect failed");
  }
  const double rpc_us = rec.Self("rpc_roundtrip").mean_us();
  out->Add("net.rpc_roundtrip_us", rpc_us, "us");

  // 5. One client, back to back: what the scatter adds on top of the
  // slowest node's execution.
  std::vector<double> one_client_ms;
  for (int i = 0; i < 30; ++i) {
    const uint64_t t0 = NowNs();
    Result<AdhocCluster::QueryStats> r = Status::Unavailable("not run");
    TimedSpan("scatter_query", [&] {
      r = fleet->coordinator->QueryBsi(kStrategies, kMetrics, kLo, kHi);
    });
    ++out->attempted;
    if (!r.ok() || !SameAnswer(r.value().results, expected.value().results)) {
      out->Fail("one-client query answer changed");
      continue;
    }
    one_client_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  const double op_ms = Median(one_client_ms);
  out->Add("net.scatter_overhead_ms", op_ms - segment_execute_ms, "ms");
  uint64_t rejections = fleet->coordinator->admission_rejections();
  for (const auto& node : fleet->nodes) {
    rejections += node->backpressure_rejections();
  }
  out->Add("net.rejections", static_cast<double>(rejections), "count");

  // 6. Node restarts: node 0 comes back with a cold hot tier and serves
  // the first full-window query through a coordinator that knows its port.
  std::vector<double> restart_ms;
  for (int i = 0; i < kRestarts; ++i) {
    ++out->attempted;
    const std::optional<double> s =
        RestartNode(*fleet, expected.value().results);
    if (!s.has_value()) {
      out->Fail("restarted node served a wrong or no answer");
      continue;
    }
    restart_ms.push_back(*s * 1e3);
  }
  out->Add("net.node_restart_ms", Median(restart_ms), "ms");

  if (home) {
    mix.Report(out);
    const double covered =
        segment_execute_ms + (codec_us + connect_us + rpc_us) / 1e3;
    out->Add("obs.op_ms", op_ms, "ms");
    out->Add("obs.covered_ms", covered, "ms");
    out->Add("obs.uncovered_ms", op_ms - covered, "ms");
    out->Info("breakdown",
              "one full-window query, 1 client: slowest node's segment "
              "execution + wire codec + one connect + one round trip; the "
              "rest is thread spawn, merge and wait");
  }
  rec.set_enabled(false);
}

}  // namespace perfbench
