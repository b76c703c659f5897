#include "net/node_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <tuple>
#include <utility>

#include "cluster/segment_query.h"
#include "common/fault_injector.h"
#include "obs/fleet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"

namespace expbsi {
namespace net {

namespace {
// A node finishes any admitted request long before this; it only bounds a
// wedged peer.
constexpr double kServerIoDeadlineSeconds = 30.0;
}  // namespace

NodeServer::NodeServer(const BsiStore* cold, NodeServerOptions options)
    : cold_(cold),
      options_(options),
      tier_(cold, options.hot_capacity_bytes),
      send_endpoint_(static_cast<uint64_t>(options.node_id)) {}

NodeServer::~NodeServer() { Stop(); }

Status NodeServer::Start() {
  Result<Socket> listener = Listen(options_.port, &port_);
  RETURN_IF_ERROR(listener.status());
  listener_ = std::move(listener).value();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void NodeServer::Drain(double max_wait_seconds) {
  using Clock = std::chrono::steady_clock;
  // New connections stop here; established connections keep being served so
  // a request already buffered in a socket is still picked up (the handler
  // polls every 50ms, well inside the quiescence window below).
  draining_.store(true, std::memory_order_release);
  constexpr int64_t kQuiescenceNs = 500'000'000;  // 500ms without a query
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(max_wait_seconds));
  while (Clock::now() < give_up) {
    const int64_t last = last_query_ns_.load(std::memory_order_acquire);
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    if (inflight_.load(std::memory_order_acquire) == 0 &&
        now_ns - last >= kQuiescenceNs) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Stop();
}

void NodeServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::list<Handler> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  for (Handler& h : handlers) {
    if (h.thread.joinable()) h.thread.join();
  }
}

void NodeServer::ReapFinishedHandlers() {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_.remove_if([](Handler& h) {
    if (!h.done.load(std::memory_order_acquire)) return false;
    h.thread.join();  // already past HandleConnection: returns at once
    return true;
  });
}

void NodeServer::AcceptLoop() {
  FaultInjector* const fi = FaultInjector::Get();
  while (!stop_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire) && !crashed()) {
    ReapFinishedHandlers();
    Result<Socket> conn = Accept(listener_, /*deadline_ms=*/50);
    if (!conn.ok()) continue;  // timeout or transient; re-check stop flag
    const uint64_t accept_index =
        accepts_.fetch_add(1, std::memory_order_relaxed);
    if (fi != nullptr) {
      const uint64_t op =
          static_cast<uint64_t>(options_.node_id) * kNetOpStride + accept_index;
      const FaultDecision d = fi->EvaluateAt(fault_sites::kNetAccept, op);
      if (d.fail || d.crash) continue;  // connection dropped at accept
    }
    std::lock_guard<std::mutex> lock(handlers_mu_);
    Handler& h = handlers_.emplace_back();
    h.thread = std::thread([this, &h, c = std::move(conn).value()]() mutable {
      HandleConnection(std::move(c));
      h.done.store(true, std::memory_order_release);
    });
  }
}

void NodeServer::HandleConnection(Socket conn) {
  while (!stop_.load(std::memory_order_acquire) && !crashed() &&
         conn.valid()) {
    // Wait in short slices so Stop() never hangs on an idle connection.
    Result<bool> readable = WaitReadable(conn, /*timeout_ms=*/50);
    if (!readable.ok()) return;
    if (!readable.value()) continue;
    Result<wire::Envelope> env = RecvEnvelope(
        conn, Deadline::After(kServerIoDeadlineSeconds),
        /*expected_request_id=*/0);
    if (!env.ok()) return;  // peer closed, truncated frame, or corrupt
    switch (env.value().type) {
      case wire::MsgType::kPing: {
        wire::Envelope pong;
        pong.type = wire::MsgType::kPong;
        pong.request_id = env.value().request_id;
        if (!SendEnvelope(conn, pong,
                          Deadline::After(kServerIoDeadlineSeconds),
                          &send_endpoint_)
                 .ok()) {
          return;
        }
        break;
      }
      case wire::MsgType::kQueryRequest:
        if (!HandleQuery(conn, env.value().request_id,
                         env.value().payload)) {
          return;
        }
        break;
      case wire::MsgType::kSegmentFetch:
        if (!HandleSegmentFetch(conn, env.value().request_id,
                                env.value().payload)) {
          return;
        }
        break;
      case wire::MsgType::kStatsFetch:
        if (!HandleStatsFetch(conn, env.value().request_id,
                              env.value().payload)) {
          return;
        }
        break;
      default:
        // A node only serves; anything else on the wire is a protocol
        // error worth reporting but not worth dying for.
        if (!SendError(conn, env.value().request_id,
                       Status::InvalidArgument(
                           "node: unexpected message type"))) {
          return;
        }
        break;
    }
  }
}

bool NodeServer::HandleSegmentFetch(Socket& conn, uint64_t request_id,
                                    const std::string& payload) {
  // Repair pulls share the node's fault surface through the net.repair
  // site (explicitly indexed, like net.node_crash).
  FaultInjector* const fi = FaultInjector::Get();
  FaultDecision fault;
  if (fi != nullptr) {
    const uint64_t op =
        static_cast<uint64_t>(options_.node_id) * kNetOpStride +
        repairs_.fetch_add(1, std::memory_order_relaxed);
    fault = fi->EvaluateAt(fault_sites::kNetRepair, op);
    if (fault.delay_seconds > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fault.delay_seconds));
    }
    if (fault.crash) {
      crashed_.store(true, std::memory_order_release);
      conn.Close();
      return false;
    }
    if (fault.fail) {
      return SendError(conn, request_id,
                       Status::Unavailable("node: injected repair failure"));
    }
  }

  Result<wire::WireSegmentFetch> req = wire::DecodeSegmentFetch(payload);
  if (!req.ok()) return SendError(conn, request_id, req.status());
  const uint32_t segment = req.value().segment;

  wire::WireSegmentPush push;
  push.segment = segment;
  cold_->ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                          uint64_t fingerprint) {
    if (key.segment != segment) return;
    wire::WireRepairBlob blob;
    blob.kind = static_cast<uint8_t>(key.kind);
    blob.id = key.id;
    blob.date = key.date;
    blob.fingerprint = fingerprint;
    blob.bytes = bytes;
    push.blobs.push_back(std::move(blob));
  });
  if (push.blobs.empty()) {
    return SendError(conn, request_id,
                     Status::NotFound("node: segment not stored here"));
  }
  // Canonical order (also what DecodeSegmentPush enforces).
  std::sort(push.blobs.begin(), push.blobs.end(),
            [](const wire::WireRepairBlob& a, const wire::WireRepairBlob& b) {
              return std::make_tuple(a.kind, a.id, a.date) <
                     std::make_tuple(b.kind, b.id, b.date);
            });
  if (fault.corrupt && fi != nullptr) {
    // Flip bits in one blob but keep the claimed fingerprint: the receiver
    // must catch the lie by re-fingerprinting, never install the bytes.
    wire::WireRepairBlob& victim =
        push.blobs[fi->seed() % push.blobs.size()];
    fi->CorruptBlob(victim.id ^ victim.date, &victim.bytes);
  }

  static obs::Counter& served = obs::GetCounter("repair.fetches_served");
  static obs::Counter& blobs = obs::GetCounter("repair.blobs_served");
  served.Add();
  blobs.Add(push.blobs.size());
  obs::FlightRecorder::Global().RecordWithTraceId(
      obs::FlightEventKind::kRepair, segment, /*b=2: served*/ 2, request_id);

  wire::Envelope env;
  env.type = wire::MsgType::kSegmentPush;
  env.request_id = request_id;
  wire::EncodeSegmentPush(push, &env.payload);
  return SendEnvelope(conn, env, Deadline::After(kServerIoDeadlineSeconds),
                      &send_endpoint_)
      .ok();
}

bool NodeServer::HandleStatsFetch(Socket& conn, uint64_t request_id,
                                  const std::string& payload) {
  Result<wire::WireStatsFetch> req = wire::DecodeStatsFetch(payload);
  if (!req.ok()) return SendError(conn, request_id, req.status());
  static obs::Counter& fetches = obs::GetCounter("node.stats_fetches");
  fetches.Add();
  wire::WireStatsReply reply = obs::LocalStatsReply(
      req.value(), static_cast<uint32_t>(options_.node_id), queries_served(),
      backpressure_rejections());
  wire::Envelope env;
  env.type = wire::MsgType::kStatsReply;
  env.request_id = request_id;
  wire::EncodeStatsReply(reply, &env.payload);
  return SendEnvelope(conn, env, Deadline::After(kServerIoDeadlineSeconds),
                      &send_endpoint_)
      .ok();
}

bool NodeServer::SendError(Socket& conn, uint64_t request_id,
                           const Status& status) {
  wire::Envelope env;
  env.type = wire::MsgType::kError;
  env.request_id = request_id;
  wire::EncodeError(wire::WireError{status.code(), status.message()},
                    &env.payload);
  return SendEnvelope(conn, env, Deadline::After(kServerIoDeadlineSeconds),
                      &send_endpoint_)
      .ok();
}

bool NodeServer::HandleQuery(Socket& conn, uint64_t request_id,
                             const std::string& payload) {
  // Injected process kill: drop the connection mid-scatter and stop
  // serving. The coordinator sees EOF here and connection-refused on the
  // next wave -- exactly what a dead process looks like.
  last_query_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_release);
  FaultInjector* const fi = FaultInjector::Get();
  const uint64_t query_op =
      static_cast<uint64_t>(options_.node_id) * kNetOpStride +
      requests_.fetch_add(1, std::memory_order_relaxed);
  if (fi != nullptr) {
    const FaultDecision d =
        fi->EvaluateAt(fault_sites::kNetNodeCrash, query_op);
    if (d.crash || d.fail) {
      crashed_.store(true, std::memory_order_release);
      conn.Close();
      return false;
    }
  }

  // Backpressure: reject rather than queue unboundedly; the coordinator
  // treats kUnavailable as "requeue this wave elsewhere".
  struct InflightGuard {
    std::atomic<int>& counter;
    ~InflightGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  };
  if (inflight_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_inflight) {
    InflightGuard guard{inflight_};
    backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& rejected =
        obs::GetCounter("node.backpressure_rejections");
    rejected.Add();
    return SendError(conn, request_id,
                     Status::Unavailable("node: at max_inflight"));
  }
  InflightGuard guard{inflight_};

  Result<wire::WireQueryRequest> req = wire::DecodeQueryRequest(payload);
  if (!req.ok()) return SendError(conn, request_id, req.status());
  if (req.value().date_lo > req.value().date_hi) {
    return SendError(conn, request_id,
                     Status::InvalidArgument("node: date_lo > date_hi"));
  }
  for (uint32_t seg : req.value().segments) {
    if (seg > UINT16_MAX) {
      return SendError(conn, request_id,
                       Status::InvalidArgument("node: segment id overflow"));
    }
    // A misrouted segment against a pruned store would execute as silent
    // zeros (NotFound reads as semantic absence); refuse it loudly instead.
    if (!options_.owned_segments.empty() &&
        std::find(options_.owned_segments.begin(),
                  options_.owned_segments.end(),
                  seg) == options_.owned_segments.end()) {
      return SendError(conn, request_id,
                       Status::InvalidArgument("node: segment not owned"));
    }
  }

  static obs::Counter& queries = obs::GetCounter("node.queries");
  queries.Add();
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  // Flight events on the serving path carry the wire request_id as their
  // trace id, which is what the coordinator's postmortem correlates on.
  const uint64_t admit_seq = obs::FlightRecorder::Global().NextSeq();
  obs::FlightRecorder::Global().RecordWithTraceId(
      obs::FlightEventKind::kQueryAdmit, req.value().segments.size(), 0,
      request_id);
  const auto wall_start = std::chrono::steady_clock::now();

  wire::WireQueryResponse resp;
  const Status exec_status =
      ExecuteQueryRequest(tier_, req.value(), options_.retry, {}, &resp);
  uint64_t lost = 0;
  for (const wire::WireSegmentResult& seg : resp.segments) {
    if (seg.lost != 0) ++lost;
  }
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  obs::FlightRecorder::Global().RecordWithTraceId(
      obs::FlightEventKind::kQueryFinish, wall_us, lost, request_id);
  if (!exec_status.ok()) {
    // Strict mode: a permanent failure fails the whole request.
    return SendError(conn, request_id, exec_status);
  }
  if (lost > 0) {
    obs::FlightRecorder::Global().RecordWithTraceId(
        obs::FlightEventKind::kQueryDegraded, lost, 0, request_id);
    if (!options_.postmortem_dir.empty()) {
      // Node-local view of the degradation: this node's ring around the
      // query. The coordinator writes the fleet-wide bundle; this one
      // survives even if the coordinator never asks.
      obs::PostmortemBundle bundle;
      bundle.reason = "degraded";
      bundle.trace_id = request_id;
      bundle.query = "node_query";
      bundle.duration_ms = static_cast<double>(wall_us) / 1000.0;
      for (const wire::WireSegmentResult& seg : resp.segments) {
        if (seg.lost != 0) bundle.lost_segments.push_back(seg.segment);
      }
      bundle.segments_answered = resp.segments.size() - lost;
      bundle.retries = resp.retries;
      bundle.faults_survived = resp.faults_survived;
      obs::PostmortemFlightSlice slice;
      slice.label = "local";
      slice.fetched = true;
      slice.events = obs::FlightRecorder::Global().Snapshot(admit_seq);
      slice.next_seq = obs::FlightRecorder::Global().NextSeq();
      bundle.slices.push_back(std::move(slice));
      (void)obs::WritePostmortem(options_.postmortem_dir, bundle);
    }
  }

  static obs::Counter& segs = obs::GetCounter("node.segments_served");
  segs.Add(resp.segments.size());
  wire::Envelope env;
  env.type = wire::MsgType::kQueryResponse;
  env.request_id = request_id;
  wire::EncodeQueryResponse(resp, &env.payload);
  return SendEnvelope(conn, env, Deadline::After(kServerIoDeadlineSeconds),
                      &send_endpoint_)
      .ok();
}

}  // namespace net
}  // namespace expbsi
