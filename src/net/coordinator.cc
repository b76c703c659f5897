#include "net/coordinator.h"

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cluster/segment_query.h"
#include "common/check.h"
#include "common/fault_injector.h"
#include "common/timer.h"
#include "obs/fleet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/trace.h"
#include "wire/messages.h"

namespace expbsi {
namespace net {

namespace {

// Per-RPC classification the wave loop acts on. Permanent failures travel
// as plain Status instead.
enum class RpcOutcome {
  kOk,            // response merged
  kNodeDead,      // connect/send/recv/decode failed: fail over + markdown
  kBackpressure,  // node alive but rejecting (kError/kUnavailable): fail
                  // over, node excluded this query, but not a crash
};

// One RPC of a wave: the primary send to a node, or a hedge re-send of a
// subset of its segments to another replica. Attempts that never completed
// (hedge raced and lost, or the winner arrived first) carry
// completed == false and are skipped by the accounting -- their node is
// neither credited nor penalized.
struct RpcAttempt {
  int node = -1;
  std::vector<uint32_t> segments;
  uint64_t request_id = 0;
  bool is_hedge = false;
  bool completed = false;
  Result<RpcOutcome> outcome{RpcOutcome::kNodeDead};
  wire::WireQueryResponse resp;
  double latency_seconds = 0.0;
};

// All attempts one scatter task made for one node's wave; [0] is the
// primary, any hedges follow in hedge-node order.
struct NodeTask {
  std::vector<RpcAttempt> attempts;
  // Hedge plan precomputed by the main thread under deterministic state:
  // (segment, next untried alive replica) for every segment that has one.
  std::vector<std::pair<uint32_t, int>> hedge_plan;
};

// Grafts a node's shipped span tree under the coordinator's current
// (node_rpc) span. Remote spans arrive in creation order, so parents are
// remapped before their children.
void GraftRemoteSpans(const std::vector<wire::WireSpan>& spans) {
  obs::QueryTrace* trace = obs::CurrentTrace();
  const uint32_t rpc_span = obs::CurrentSpanId();
  if (trace == nullptr || rpc_span == 0) return;
  std::unordered_map<uint32_t, uint32_t> local_id;
  std::unordered_map<uint32_t, uint64_t> remote_start;
  for (const wire::WireSpan& s : spans) {
    uint32_t parent = rpc_span;
    uint64_t parent_start = 0;
    if (s.parent_id != 0) {
      const auto it = local_id.find(s.parent_id);
      if (it == local_id.end()) continue;  // orphan: parent was dropped
      parent = it->second;
      parent_start = remote_start[s.parent_id];
    }
    const uint64_t rel_start =
        s.start_ns >= parent_start ? s.start_ns - parent_start : 0;
    local_id[s.id] =
        trace->ImportSpan(parent, s.name, rel_start, s.duration_ns, s.attrs);
    remote_start[s.id] = s.start_ns;
  }
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)),
      placement_(static_cast<int>(options_.node_ports.size()),
                 options_.num_segments, options_.replication_factor),
      health_(static_cast<int>(options_.node_ports.size())) {
  CHECK_GT(options_.node_ports.size(), 0u);
  CHECK_GT(options_.num_segments, 0);
  endpoints_.reserve(options_.node_ports.size());
  hedge_endpoints_.reserve(options_.node_ports.size());
  for (size_t n = 0; n < options_.node_ports.size(); ++n) {
    endpoints_.push_back(std::make_unique<FaultyEndpoint>(
        kNetClientEndpointBase + static_cast<uint64_t>(n)));
    hedge_endpoints_.push_back(std::make_unique<FaultyEndpoint>(
        kNetHedgeEndpointBase + static_cast<uint64_t>(n)));
  }
}

Result<AdhocCluster::QueryStats> Coordinator::QueryBsi(
    const std::vector<uint64_t>& strategy_ids,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi) {
  CHECK_LE(date_lo, date_hi);

  // Admission control: bound concurrent scatter/gathers instead of letting
  // queued queries blow every deadline downstream.
  struct RunningGuard {
    std::atomic<int>& counter;
    ~RunningGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  };
  if (running_queries_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_concurrent_queries) {
    RunningGuard guard{running_queries_};
    admission_rejections_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& rejected =
        obs::GetCounter("coordinator.admission_rejections");
    rejected.Add();
    return Status::Unavailable("coordinator: at max_concurrent_queries");
  }
  RunningGuard guard{running_queries_};

  const uint64_t markdowns_before = health_.markdown_count();
  std::vector<int> involved_nodes;
  Result<AdhocCluster::QueryStats> result = QueryBsiInternal(
      strategy_ids, metric_ids, date_lo, date_hi, &involved_nodes);
  if (!result.ok()) return result;
  // The internal call's ScopedTrace has closed: the root span is final and
  // the slow-query check has run, so the bundle freezes the same trace the
  // slow-query line printed.
  MaybeWritePostmortem(&result.value(), markdowns_before, involved_nodes);
  return result;
}

Result<AdhocCluster::QueryStats> Coordinator::QueryBsiInternal(
    const std::vector<uint64_t>& strategy_ids,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi,
    std::vector<int>* involved_nodes) {
  AdhocCluster::QueryStats stats;
  stats.trace = std::make_shared<obs::QueryTrace>("coordinator_query_bsi");
  obs::ScopedTrace install_trace(stats.trace.get());
  static obs::Counter& queries = obs::GetCounter("coordinator.queries");
  queries.Add();
  const uint64_t flight_trace_id = stats.trace->trace_id();
  obs::FlightRecorder::Global().Record(
      obs::FlightEventKind::kQueryAdmit,
      static_cast<uint64_t>(options_.num_segments));
  Stopwatch wall;
  const Deadline deadline =
      Deadline::After(options_.query_deadline_seconds);

  const int num_nodes = static_cast<int>(options_.node_ports.size());
  const int num_segments = options_.num_segments;
  const size_t num_metrics = metric_ids.size();
  const size_t slots = strategy_ids.size() * num_metrics;

  std::map<StrategyMetricPair, BucketValues> partials =
      MakeSegmentPartials(strategy_ids, metric_ids, num_segments);

  // Per-segment routing state. A segment is pending until answered or
  // declared lost; `tried[seg]` are replicas that had their chance (dead,
  // or answered lost=1). Loss is recorded only when no alive untried
  // replica remains -- with R=2 that needs BOTH replicas down.
  std::vector<bool> answered(num_segments, false);
  std::vector<bool> failed_over(num_segments, false);
  std::vector<std::vector<bool>> tried(
      num_segments, std::vector<bool>(num_nodes, false));
  std::vector<bool> alive(num_nodes, true);
  std::vector<uint32_t> pending;
  pending.reserve(num_segments);
  for (int seg = 0; seg < num_segments; ++seg) {
    pending.push_back(static_cast<uint32_t>(seg));
  }
  std::vector<int> lost_segments;
  std::set<int> involved;  // nodes any completed RPC attempt touched
  int wave_index = 0;
  static obs::Counter& waves_counter = obs::GetCounter("coordinator.waves");
  static obs::Counter& requeue_counter =
      obs::GetCounter("coordinator.requeued_segments");
  static obs::Counter& crash_counter =
      obs::GetCounter("coordinator.nodes_lost");
  static obs::Counter& seg_counter =
      obs::GetCounter("coordinator.segments_processed");
  static obs::Counter& hedged_rpcs = obs::GetCounter("coordinator.hedged_rpcs");
  static obs::Counter& hedge_wins = obs::GetCounter("coordinator.hedge_wins");

  auto build_request = [&](const std::vector<uint32_t>& segments,
                           uint64_t request_id) {
    wire::Envelope env;
    env.type = wire::MsgType::kQueryRequest;
    env.request_id = request_id;
    wire::WireQueryRequest req;
    req.strategy_ids = strategy_ids;
    req.metric_ids = metric_ids;
    req.date_lo = date_lo;
    req.date_hi = date_hi;
    req.segments = segments;
    req.allow_degraded = options_.allow_degraded;
    req.want_trace = options_.want_trace;
    wire::EncodeQueryRequest(req, &env.payload);
    return env;
  };

  // Gathers and classifies one reply. A response must answer exactly the
  // segments asked, with correctly-shaped vectors; anything else is a
  // protocol violation and the node is treated as dead rather than trusted.
  auto recv_and_classify =
      [&](Socket& sock, uint64_t request_id,
          const std::vector<uint32_t>& asked_segments,
          wire::WireQueryResponse* resp) -> Result<RpcOutcome> {
    Result<wire::Envelope> reply = RecvEnvelope(sock, deadline, request_id);
    if (!reply.ok()) return RpcOutcome::kNodeDead;
    if (reply.value().type == wire::MsgType::kError) {
      Result<wire::WireError> err = wire::DecodeError(reply.value().payload);
      if (!err.ok()) return RpcOutcome::kNodeDead;
      if (err.value().code == StatusCode::kUnavailable) {
        return RpcOutcome::kBackpressure;
      }
      // Permanent node-side failure (strict-mode Corruption etc.): fails
      // the query, exactly as the in-process cluster propagates it.
      return Status(err.value().code, "node error: " + err.value().message);
    }
    if (reply.value().type != wire::MsgType::kQueryResponse) {
      return RpcOutcome::kNodeDead;
    }
    Result<wire::WireQueryResponse> decoded =
        wire::DecodeQueryResponse(reply.value().payload);
    if (!decoded.ok()) return RpcOutcome::kNodeDead;
    const std::set<uint32_t> asked(asked_segments.begin(),
                                   asked_segments.end());
    std::set<uint32_t> seen;
    for (const wire::WireSegmentResult& seg : decoded.value().segments) {
      if (asked.count(seg.segment) == 0 || !seen.insert(seg.segment).second) {
        return RpcOutcome::kNodeDead;
      }
      if (seg.lost == 0 &&
          (seg.sums.size() != slots || seg.counts.size() != slots)) {
        return RpcOutcome::kNodeDead;
      }
    }
    if (seen.size() != asked.size()) return RpcOutcome::kNodeDead;
    *resp = std::move(decoded).value();
    return RpcOutcome::kOk;
  };

  // One scatter task: the primary RPC for one node's wave segments, plus
  // (when enabled and the primary is slow) hedge RPCs to each segment's
  // next replica. Runs in its own thread; touches no trace or routing
  // state -- all accounting happens post-join on the main thread, in
  // deterministic task order.
  auto run_task = [&](NodeTask& task) {
    // Appending hedge attempts must never reallocate `attempts` -- `primary`
    // stays bound to [0] -- so reserve the worst case (one hedge RPC per
    // other node) up front.
    task.attempts.reserve(options_.node_ports.size());
    RpcAttempt& primary = task.attempts[0];
    Stopwatch rpc_wall;
    auto finish = [&](RpcAttempt& a, Result<RpcOutcome> outcome) {
      a.outcome = std::move(outcome);
      a.latency_seconds = rpc_wall.ElapsedSeconds();
      a.completed = true;
    };
    Result<Socket> sock =
        Connect(options_.node_ports[primary.node], deadline);
    if (!sock.ok()) {
      finish(primary, RpcOutcome::kNodeDead);
      return;
    }
    if (!SendEnvelope(sock.value(),
                      build_request(primary.segments, primary.request_id),
                      deadline, endpoints_[primary.node].get())
             .ok()) {
      finish(primary, RpcOutcome::kNodeDead);
      return;
    }
    if (!options_.hedge_reads || task.hedge_plan.empty()) {
      finish(primary,
             recv_and_classify(sock.value(), primary.request_id,
                               primary.segments, &primary.resp));
      return;
    }

    // Hedged path: give the primary its hedge delay, then re-send the
    // outstanding segments to their next replicas and take the first valid
    // answer per segment.
    const double delay_s = health_.HedgeDelaySeconds(
        primary.node, options_.hedge_delay_seconds);
    const int delay_ms = std::min(
        std::max(1, static_cast<int>(delay_s * 1000.0)),
        deadline.RemainingMs());
    Result<bool> readable = WaitReadable(sock.value(), delay_ms);
    if (!readable.ok()) {
      finish(primary, RpcOutcome::kNodeDead);
      return;
    }
    if (readable.value()) {
      finish(primary,
             recv_and_classify(sock.value(), primary.request_id,
                               primary.segments, &primary.resp));
      return;
    }
    hedged_rpcs.Add();
    // Task threads have no thread-local trace installed, so the trace id is
    // stamped explicitly.
    obs::FlightRecorder::Global().RecordWithTraceId(
        obs::FlightEventKind::kHedgeFired,
        static_cast<uint64_t>(primary.node), 0, flight_trace_id);
    std::map<int, std::vector<uint32_t>> by_node;
    for (const auto& [seg, hedge_node] : task.hedge_plan) {
      by_node[hedge_node].push_back(seg);
    }
    for (auto& [hedge_node, hedge_segments] : by_node) {
      RpcAttempt a;
      a.node = hedge_node;
      a.segments = std::move(hedge_segments);
      a.is_hedge = true;
      // Hedge ids are allocated from racing task threads: fine here, but
      // the reason hedging stays off in determinism suites.
      a.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
      task.attempts.push_back(std::move(a));
    }
    std::vector<Socket> socks(task.attempts.size());
    socks[0] = std::move(sock).value();
    for (size_t i = 1; i < task.attempts.size(); ++i) {
      RpcAttempt& a = task.attempts[i];
      Result<Socket> hs = Connect(options_.node_ports[a.node], deadline);
      if (!hs.ok() ||
          !SendEnvelope(hs.value(), build_request(a.segments, a.request_id),
                        deadline, hedge_endpoints_[a.node].get())
               .ok()) {
        finish(a, RpcOutcome::kNodeDead);
        continue;
      }
      socks[i] = std::move(hs).value();
    }
    std::set<uint32_t> got;
    while (!deadline.expired()) {
      bool any_open = false;
      for (size_t i = 0; i < task.attempts.size(); ++i) {
        RpcAttempt& a = task.attempts[i];
        if (a.completed || !socks[i].valid()) continue;
        any_open = true;
        Result<bool> r = WaitReadable(socks[i], 20);
        if (!r.ok()) {
          finish(a, RpcOutcome::kNodeDead);
          continue;
        }
        if (!r.value()) continue;
        finish(a, recv_and_classify(socks[i], a.request_id, a.segments,
                                    &a.resp));
        if (a.outcome.ok() && a.outcome.value() == RpcOutcome::kOk) {
          if (a.is_hedge) hedge_wins.Add();
          for (const wire::WireSegmentResult& seg : a.resp.segments) {
            if (seg.lost == 0) got.insert(seg.segment);
          }
        }
      }
      if (!any_open) break;
      bool complete = true;
      for (uint32_t seg : primary.segments) {
        if (got.count(seg) == 0) {
          complete = false;
          break;
        }
      }
      if (complete) break;  // stragglers stay abandoned, never penalized
    }
  };

  while (true) {
    health_.BeginRound();
    // Route every pending segment to the healthiest alive replica it has
    // not tried; a segment with no such replica is lost right here --
    // explicitly, never silently.
    std::map<int, std::vector<uint32_t>> targets;
    std::vector<uint32_t> still_pending;
    for (uint32_t seg : pending) {
      int target = -1;
      int fallback = -1;  // alive untried replica that is marked down
      for (int n : placement_.ReplicasOf(static_cast<int>(seg))) {
        if (!alive[n] || tried[seg][n]) continue;
        if (fallback < 0) fallback = n;
        if (health_.Usable(n)) {
          target = n;
          break;
        }
      }
      // Every candidate marked down: probe the best one anyway -- loss is
      // only acceptable after an actual failed dial, not a stale markdown.
      if (target < 0) target = fallback;
      if (target < 0) {
        if (!options_.allow_degraded) {
          return Status::Unavailable(
              "coordinator: every replica of segment " +
              std::to_string(seg) + " lost mid-query");
        }
        lost_segments.push_back(static_cast<int>(seg));
        continue;
      }
      targets[target].push_back(seg);
      still_pending.push_back(seg);
    }
    pending = std::move(still_pending);
    if (targets.empty()) break;

    obs::ScopedSpan wave_span("wave");
    wave_span.AddAttr("wave", static_cast<uint64_t>(wave_index++));
    waves_counter.Add();

    // Dispatch: request ids allocated here, in node order, so fault
    // schedules and traces replay deterministically; hedge plans are
    // likewise fixed before any thread runs.
    std::vector<NodeTask> tasks(targets.size());
    size_t ti = 0;
    for (auto& [node, segments] : targets) {
      NodeTask& task = tasks[ti++];
      RpcAttempt primary;
      primary.node = node;
      primary.segments = std::move(segments);
      primary.request_id =
          next_request_id_.fetch_add(1, std::memory_order_relaxed);
      if (options_.hedge_reads) {
        for (uint32_t seg : primary.segments) {
          for (int n : placement_.ReplicasOf(static_cast<int>(seg))) {
            if (n == node || !alive[n] || tried[seg][n]) continue;
            task.hedge_plan.emplace_back(seg, n);
            break;
          }
        }
      }
      task.attempts.push_back(std::move(primary));
    }
    std::vector<std::thread> threads;
    threads.reserve(tasks.size());
    for (NodeTask& task : tasks) {
      threads.emplace_back([&run_task, &task] { run_task(task); });
    }
    for (std::thread& t : threads) t.join();

    // Post-join accounting, in task order on this thread only: trace span
    // ids, health updates and routing state all stay deterministic.
    std::vector<bool> counted_dead(num_nodes, false);
    for (NodeTask& task : tasks) {
      for (RpcAttempt& attempt : task.attempts) {
        if (!attempt.completed) continue;  // abandoned hedge straggler
        involved.insert(attempt.node);
        obs::ScopedSpan rpc_span("node_rpc");
        rpc_span.AddAttr("node", static_cast<uint64_t>(attempt.node));
        rpc_span.AddAttr("segments", attempt.segments.size());
        if (attempt.is_hedge) rpc_span.AddAttr("hedge", 1);
        if (!attempt.outcome.ok()) return attempt.outcome.status();
        switch (attempt.outcome.value()) {
          case RpcOutcome::kOk: {
            health_.RecordSuccess(attempt.node, attempt.latency_seconds);
            wire::WireQueryResponse& resp = attempt.resp;
            stats.degraded.retries += static_cast<int>(resp.retries);
            stats.degraded.faults_survived +=
                static_cast<int>(resp.faults_survived);
            stats.total_cpu_seconds += resp.cpu_seconds;
            stats.bytes_from_cold += resp.bytes_from_cold;
            stats.hot_hits += resp.hot_hits;
            rpc_span.AddAttr("cold_bytes", resp.bytes_from_cold);
            rpc_span.AddAttr("hot_hits", resp.hot_hits);
            GraftRemoteSpans(resp.spans);
            for (const wire::WireSegmentResult& seg : resp.segments) {
              if (seg.lost != 0) {
                // Node-side degradation: fail the segment over to its next
                // replica instead of recording it lost -- DegradedInfo is
                // reachable only once every replica had its chance.
                tried[seg.segment][attempt.node] = true;
                failed_over[seg.segment] = true;
                requeue_counter.Add();
                obs::FlightRecorder::Global().Record(
                    obs::FlightEventKind::kFailover, seg.segment,
                    static_cast<uint64_t>(attempt.node));
                continue;
              }
              if (answered[seg.segment]) continue;  // hedge duplicate
              answered[seg.segment] = true;
              seg_counter.Add();
              StoreSegmentPartial(strategy_ids, metric_ids,
                                  static_cast<int>(seg.segment), seg.sums,
                                  seg.counts, &partials);
              if (failed_over[seg.segment]) ++stats.degraded.faults_survived;
            }
            break;
          }
          case RpcOutcome::kNodeDead: {
            health_.RecordFailure(attempt.node);
            rpc_span.AddAttr("node_dead", 1);
            if (alive[attempt.node] && !counted_dead[attempt.node]) {
              counted_dead[attempt.node] = true;
              ++stats.degraded.nodes_lost;
              crash_counter.Add();
            }
            alive[attempt.node] = false;
            for (uint32_t seg : attempt.segments) {
              tried[seg][attempt.node] = true;
              if (!answered[seg]) {
                failed_over[seg] = true;
                requeue_counter.Add();
                obs::FlightRecorder::Global().Record(
                    obs::FlightEventKind::kFailover, seg,
                    static_cast<uint64_t>(attempt.node));
              }
            }
            break;
          }
          case RpcOutcome::kBackpressure: {
            // Alive but full: excluded for the rest of this query, its
            // segments fail over. Not a crash and not a health failure.
            rpc_span.AddAttr("backpressure", 1);
            alive[attempt.node] = false;
            for (uint32_t seg : attempt.segments) {
              if (!answered[seg]) {
                failed_over[seg] = true;
                requeue_counter.Add();
              }
            }
            break;
          }
        }
      }
    }
    std::vector<uint32_t> next_pending;
    for (uint32_t seg : pending) {
      if (!answered[seg]) next_pending.push_back(seg);
    }
    pending = std::move(next_pending);
    if (deadline.expired() && !pending.empty()) {
      if (!options_.allow_degraded) {
        return Status::Unavailable("coordinator: query deadline expired");
      }
      // Everything still unanswered is enumerated, never dropped quietly.
      for (uint32_t seg : pending) {
        lost_segments.push_back(static_cast<int>(seg));
      }
      pending.clear();
    }
    if (pending.empty()) break;
  }

  std::sort(lost_segments.begin(), lost_segments.end());
  lost_segments.erase(
      std::unique(lost_segments.begin(), lost_segments.end()),
      lost_segments.end());
  stats.degraded.segments_answered =
      num_segments - static_cast<int>(lost_segments.size());
  if (!lost_segments.empty()) {
    static obs::Counter& lost_counter =
        obs::GetCounter("coordinator.degraded_segments");
    lost_counter.Add(lost_segments.size());
  }
  obs::CurrentSpanAttr("waves", static_cast<uint64_t>(wave_index));
  obs::CurrentSpanAttr(
      "segments_answered",
      static_cast<uint64_t>(stats.degraded.segments_answered));
  obs::CurrentSpanAttr("lost_segments", lost_segments.size());
  obs::CurrentSpanAttr("retries",
                       static_cast<uint64_t>(stats.degraded.retries));
  obs::CurrentSpanAttr("nodes_lost",
                       static_cast<uint64_t>(stats.degraded.nodes_lost));
  stats.degraded.lost_segments = std::move(lost_segments);
  stats.results = std::move(partials);
  stats.latency_seconds = wall.ElapsedSeconds();
  if (stats.degraded.degraded()) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventKind::kQueryDegraded,
        stats.degraded.lost_segments.size(),
        static_cast<uint64_t>(stats.degraded.nodes_lost));
  }
  obs::FlightRecorder::Global().Record(
      obs::FlightEventKind::kQueryFinish,
      static_cast<uint64_t>(stats.latency_seconds * 1e6),
      stats.degraded.lost_segments.size());
  involved_nodes->assign(involved.begin(), involved.end());
  return stats;
}

void Coordinator::MaybeWritePostmortem(
    AdhocCluster::QueryStats* stats, uint64_t markdowns_before,
    const std::vector<int>& involved_nodes) {
  std::string reason;
  if (stats->degraded.degraded()) {
    reason = "degraded";
  } else if (health_.markdown_count() > markdowns_before ||
             stats->degraded.nodes_lost > 0) {
    reason = "node_markdown";
  } else {
    const double threshold_ms = obs::SlowQueryThresholdMs();
    if (threshold_ms >= 0.0 &&
        stats->latency_seconds * 1000.0 >= threshold_ms) {
      reason = "slow_query";
    }
  }
  if (reason.empty() || options_.postmortem_dir.empty()) return;

  obs::PostmortemBundle bundle;
  bundle.reason = reason;
  bundle.trace_id = stats->trace ? stats->trace->trace_id() : 0;
  bundle.query = "coordinator_query_bsi";
  bundle.duration_ms = stats->latency_seconds * 1000.0;
  for (int seg : stats->degraded.lost_segments) {
    bundle.lost_segments.push_back(static_cast<uint32_t>(seg));
  }
  bundle.segments_answered =
      static_cast<uint64_t>(stats->degraded.segments_answered);
  bundle.retries = static_cast<uint32_t>(stats->degraded.retries);
  bundle.faults_survived =
      static_cast<uint32_t>(stats->degraded.faults_survived);
  bundle.nodes_lost = static_cast<uint32_t>(stats->degraded.nodes_lost);
  if (stats->trace) bundle.trace_json = stats->trace->ToJson();
  const std::vector<NodeHealth::NodeSnapshot> health = health_.Snapshot();
  for (size_t n = 0; n < health.size(); ++n) {
    obs::PostmortemNodeHealth h;
    h.node = static_cast<int>(n);
    h.down = health[n].down;
    h.consecutive_failures = health[n].consecutive_failures;
    bundle.health.push_back(h);
  }
  // The coordinator's own ring: everything since the query began.
  obs::PostmortemFlightSlice self;
  self.label = "coordinator";
  self.fetched = true;
  self.events = obs::FlightRecorder::Global().Snapshot(
      stats->trace ? stats->trace->start_flight_seq() : 0);
  self.next_seq = obs::FlightRecorder::Global().NextSeq();
  bundle.slices.push_back(std::move(self));
  // Every node the query touched, pulled with the coordinator-held cursors
  // so consecutive bundles ship disjoint event ranges.
  {
    std::lock_guard<std::mutex> lock(pm_mu_);
    if (pm_cursors_.size() < options_.node_ports.size()) {
      pm_cursors_.resize(options_.node_ports.size(), 0);
    }
    for (int n : involved_nodes) {
      obs::PostmortemFlightSlice slice;
      slice.label =
          "127.0.0.1:" + std::to_string(options_.node_ports[n]);
      wire::WireStatsFetch fetch;
      fetch.since_seq = pm_cursors_[static_cast<size_t>(n)];
      fetch.want_metrics = false;
      fetch.want_events = true;
      Result<wire::WireStatsReply> reply =
          obs::FetchStats(options_.node_ports[n], fetch,
                          options_.postmortem_fetch_deadline_seconds);
      if (reply.ok()) {
        slice.fetched = true;
        slice.events = obs::EventsFromReply(reply.value());
        slice.next_seq = reply.value().next_seq;
        pm_cursors_[static_cast<size_t>(n)] = reply.value().next_seq;
      } else {
        slice.error = reply.status().ToString();
      }
      bundle.slices.push_back(std::move(slice));
    }
  }
  Result<std::string> written =
      obs::WritePostmortem(options_.postmortem_dir, bundle);
  if (written.ok()) stats->postmortem_path = std::move(written).value();
}

}  // namespace net
}  // namespace expbsi
