#include "net/transport.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/fault_injector.h"
#include "obs/metrics.h"

namespace expbsi {
namespace net {

uint64_t FaultyEndpoint::NextSendIndex() {
  return endpoint_id_ * kNetOpStride +
         sends_.fetch_add(1, std::memory_order_relaxed);
}

Status SendEnvelope(Socket& sock, const wire::Envelope& envelope,
                    const Deadline& deadline, FaultyEndpoint* endpoint) {
  std::string frame;
  wire::EncodeEnvelope(envelope, &frame);
  int copies = 1;
  size_t bytes_to_send = frame.size();
  bool close_after = false;
  FaultInjector* const fi = FaultInjector::Get();
  if (fi != nullptr && endpoint != nullptr) {
    const FaultDecision d =
        fi->EvaluateAt(fault_sites::kNetSend, endpoint->NextSendIndex());
    if (d.delay_seconds > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(d.delay_seconds));
    }
    if (d.fail || d.crash) {
      // Drop: the frame never leaves this host. Closing (instead of
      // silently not writing) gives the peer a prompt EOF, so schedules
      // replay without waiting out a deadline.
      sock.Close();
      return Status::Unavailable("net.send: injected drop");
    }
    if (d.truncate) {
      bytes_to_send = frame.size() / 2;
      close_after = true;
    } else if (d.duplicate) {
      copies = 2;
    }
  }
  static obs::Counter& frames = obs::GetCounter("net.frames_sent");
  static obs::Counter& bytes = obs::GetCounter("net.bytes_sent");
  for (int i = 0; i < copies; ++i) {
    RETURN_IF_ERROR(SendAll(sock, frame.data(), bytes_to_send, deadline));
    frames.Add();
    bytes.Add(bytes_to_send);
  }
  if (close_after) {
    sock.Close();
    return Status::Unavailable("net.send: injected truncation");
  }
  return Status::OK();
}

Result<wire::Envelope> RecvEnvelope(Socket& sock, const Deadline& deadline,
                                    uint64_t expected_request_id) {
  static obs::Counter& frames = obs::GetCounter("net.frames_received");
  static obs::Counter& bytes = obs::GetCounter("net.bytes_received");
  static obs::Counter& dups = obs::GetCounter("net.frames_deduped");
  static obs::Counter& skip_cap = obs::GetCounter("net.frames_skipped");
  uint32_t skipped = 0;
  while (true) {
    if (skipped >= kMaxSkippedFrames) {
      // A peer streaming mismatched request_ids would otherwise pin this
      // receiver until the deadline; give up on the exchange instead.
      skip_cap.Add();
      sock.Close();
      return Status::Unavailable(
          "net.recv: skipped frame limit reached waiting for request_id");
    }
    char header[wire::kEnvelopeHeaderBytes];
    RETURN_IF_ERROR(RecvAll(sock, header, sizeof(header), deadline));
    Result<size_t> frame_size = wire::FrameSizeFromHeader(
        std::string_view(header, sizeof(header)));
    RETURN_IF_ERROR(frame_size.status());
    std::string frame(header, sizeof(header));
    frame.resize(frame_size.value());
    RETURN_IF_ERROR(RecvAll(sock, frame.data() + sizeof(header),
                            frame.size() - sizeof(header), deadline));
    Result<wire::Envelope> env = wire::DecodeEnvelope(frame);
    RETURN_IF_ERROR(env.status());
    frames.Add();
    bytes.Add(frame.size());
    if (expected_request_id != 0 &&
        env.value().request_id != expected_request_id) {
      // Duplicated or stale reply; skip it and keep reading.
      dups.Add();
      ++skipped;
      continue;
    }
    return env;
  }
}

ConnectionPool::ConnectionPool(std::vector<uint16_t> ports,
                               size_t max_idle_per_node)
    : ports_(std::move(ports)),
      max_idle_(max_idle_per_node),
      idle_(ports_.size()) {}

Result<Socket> ConnectionPool::Checkout(int node, const Deadline& deadline) {
  while (true) {
    Socket sock;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<Socket>& idle = idle_[static_cast<size_t>(node)];
      if (idle.empty()) break;
      sock = std::move(idle.back());
      idle.pop_back();
    }
    Result<bool> readable = WaitReadable(sock, /*timeout_ms=*/0);
    if (readable.ok() && !readable.value()) return sock;
    // Stale: `sock` closes here and the next idle one is tried.
  }
  static obs::Counter& connects = obs::GetCounter("net.connects");
  Result<Socket> sock = Connect(ports_[static_cast<size_t>(node)], deadline);
  if (sock.ok()) connects.Add();
  return sock;
}

void ConnectionPool::Return(int node, Socket sock) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Socket>& idle = idle_[static_cast<size_t>(node)];
  if (idle.size() < max_idle_) idle.push_back(std::move(sock));
}

}  // namespace net
}  // namespace expbsi
