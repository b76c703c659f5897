#ifndef EXPBSI_NET_TRANSPORT_H_
#define EXPBSI_NET_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "wire/envelope.h"

namespace expbsi {
namespace net {

// Framed envelope exchange over a socket, with the net.send fault site
// applied on the sending side (DESIGN.md §9 failure taxonomy):
//
//   drop       close the connection without writing -- the peer sees a
//              clean EOF instead of a timeout, so chaos schedules replay
//              at full speed
//   truncate   write a deterministic prefix of the frame, then close; the
//              peer fails the frame's CRC / length check
//   duplicate  write the frame twice; the receiver dedups by request_id
//   delay      sleep before writing (real wall-clock, so deadline-expiry
//              schedules exercise the actual timeout path)
//
// Fault op indices are explicit: endpoint_id * kNetOpStride + a
// per-endpoint send counter, so multi-threaded servers evaluate the same
// (site, index) stream regardless of connection interleaving.

// Per-endpoint send state; one per connection direction.
class FaultyEndpoint {
 public:
  explicit FaultyEndpoint(uint64_t endpoint_id)
      : endpoint_id_(endpoint_id) {}

  uint64_t endpoint_id() const { return endpoint_id_; }
  // Consumes and returns the next net.send op index for this endpoint.
  uint64_t NextSendIndex();

 private:
  uint64_t endpoint_id_;
  std::atomic<uint64_t> sends_{0};
};

// Encodes and writes one envelope. On an injected drop/truncate the socket
// is closed and Unavailable("net.send: injected ...") is returned -- the
// sender knows its peer will never see the frame.
Status SendEnvelope(Socket& sock, const wire::Envelope& envelope,
                    const Deadline& deadline, FaultyEndpoint* endpoint);

// Bound on mismatched-request_id frames one RecvEnvelope call will skip.
// Past it the receiver closes the connection and returns kUnavailable
// (counted in net.frames_skipped): a peer flooding stale ids must not pin
// the receiver until its deadline.
inline constexpr uint32_t kMaxSkippedFrames = 64;

// Reads one envelope: header first (validated -- CRC, magic, length cap --
// before the body read is sized), then exactly the promised body. Frames
// whose request_id is not `expected_request_id` are skipped (duplicated or
// stale replies from an abandoned exchange, up to kMaxSkippedFrames); pass
// 0 to accept any id.
Result<wire::Envelope> RecvEnvelope(Socket& sock, const Deadline& deadline,
                                    uint64_t expected_request_id);

// Idle client connections to a fixed set of loopback nodes (DESIGN.md
// §9.2), so a scatter reuses one socket per node instead of dialing per
// RPC. Thread-safe; a socket is owned by exactly one exchange at a time.
class ConnectionPool {
 public:
  // `ports[n]` is node n's port; at most `max_idle_per_node` idle sockets
  // are kept per node, the rest are closed on Return.
  ConnectionPool(std::vector<uint16_t> ports, size_t max_idle_per_node);

  // An idle socket to `node` that is still quiet, else a new connection
  // (counted in net.connects). An idle socket that polls readable holds an
  // EOF from a stopped or restarted node, or a stray duplicate frame; it is
  // closed here, before anything is sent on it, so it never costs the
  // caller an RPC failure.
  Result<Socket> Checkout(int node, const Deadline& deadline);
  // Parks a socket whose last exchange was read to its end: a complete
  // reply carrying the expected request_id. Any other socket must simply
  // be dropped (closed), never returned.
  void Return(int node, Socket sock);

 private:
  const std::vector<uint16_t> ports_;
  const size_t max_idle_;
  std::mutex mu_;
  std::vector<std::vector<Socket>> idle_;  // index = node; LIFO
};

}  // namespace net
}  // namespace expbsi

#endif  // EXPBSI_NET_TRANSPORT_H_
