#ifndef EXPBSI_NET_COORDINATOR_H_
#define EXPBSI_NET_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/segment_query.h"
#include "common/retry.h"
#include "net/node_health.h"
#include "storage/bsi_store.h"

namespace expbsi {
namespace net {

// The scatter/gather coordinator (DESIGN.md §5, §9, §11): the one wave
// loop, failover rule, degraded accounting and postmortem writer, behind
// both the remote fleet and the in-process AdhocCluster. Placement is the
// shared rendezvous table (cluster/placement.h): each segment maps to
// `replication_factor` distinct nodes in failover-preference order, and
// every wave routes a segment to the healthiest alive replica it has not
// tried yet. A node link then runs the wave's node tasks: the TCP link on
// a coordinator-owned ThreadPool over pooled sockets to NodeServers, the
// in-process link one task after another on the calling thread (so
// per-site fault op counters replay identically for a seed), each through
// ExecuteQueryRequest -- the function a NodeServer runs per request. A
// fault-free scorecard is therefore bit-identical across the links (only
// primaries run then).
//
// Failure taxonomy per node RPC:
//   connect refused / EOF / truncated or corrupt frame  -> node dead for
//       this query (and one NodeHealth failure): its segments fail over to
//       their next untried replica
//   in-process adhoc.node_segment kCrash                -> node dead (as
//       a dropped connection)
//   kError(kUnavailable) reply (backpressure)           -> node excluded
//       for the rest of this query, segments fail over; not a crash and
//       not a health failure
//   kError(other) reply                                 -> permanent:
//       fails the query (strict semantics, as in-process)
//   response with lost=1 segments (node-side degraded)  -> those segments
//       fail over to the next replica; only when every replica has been
//       tried are they recorded in DegradedInfo::lost_segments
//   all replicas of a segment down                      -> strict: the
//       query fails Unavailable; degraded: the exact segment is enumerated
//   per-query deadline expires                          -> strict: fails
//       Unavailable; degraded: every unanswered segment is enumerated
//
// DegradedInfo is therefore reachable only when all `replication_factor`
// replicas of some segment are down (or the deadline expires) -- any single
// node failure with R >= 2 yields a complete, bit-identical scorecard.
//
// Hedged reads (off by default, `hedge_reads`): when a node's response has
// not arrived within its hedge delay -- the configured quantile of that
// node's recent latencies via NodeHealth, falling back to
// `hedge_delay_seconds` -- the outstanding segments are re-sent to their
// next untried replica and the first valid response wins per segment
// (request_id dedup already drops the straggler). Hedge sends draw op
// indices from kNetHedgeEndpointBase so enabling hedging does not perturb
// primary fault schedules.
struct CoordinatorOptions {
  // TCP link: 127.0.0.1, index = node id. Unused by the in-process link.
  std::vector<uint16_t> node_ports;
  int num_segments = 0;
  // Replicas per segment (clamped to [1, num_nodes]). Nodes must serve the
  // matching replica set (Placement::SegmentsOf) or the full store.
  int replication_factor = 2;
  double query_deadline_seconds = 10.0;
  // Admission control: queries beyond this many running concurrently are
  // rejected Unavailable up front instead of queuing. The TCP link also
  // sizes from it: at most this many idle sockets per node, and
  // (num_nodes - 1) x this many wave workers.
  int max_concurrent_queries = 8;
  bool allow_degraded = false;
  bool want_trace = true;  // graft node span trees into the query trace
  // Hedged reads: re-send slow outstanding RPCs to the next replica after
  // the per-node hedge delay. Off by default -- hedges allocate request ids
  // from racing threads, so determinism suites leave this off.
  bool hedge_reads = false;
  double hedge_delay_seconds = 0.02;
  // When non-empty, a query that comes back degraded, marks a node down, or
  // trips the slow-query threshold (EXPBSI_SLOW_QUERY_MS) writes a
  // postmortem bundle (obs/postmortem.h) here: the finished trace tree,
  // the health registry and the coordinator's flight-recorder slice; the
  // TCP link adds one slice pulled from every node the query touched
  // (kStatsFetch with coordinator-held since-seq cursors). The path lands
  // in QueryStats::postmortem_path.
  std::string postmortem_dir;
  // Deadline for each postmortem kStatsFetch pull; kept short so a dead
  // node delays the bundle, never the query (the bundle is written after
  // QueryStats are final).
  double postmortem_fetch_deadline_seconds = 1.0;
};

// The in-process node link's nodes: `num_nodes` TieredStores, each with
// its own hot tier in front of the shared `warehouse` (not owned), so any
// node can serve any segment. Segments in `lost_segments` are answered
// lost=1 without being executed -- their warehouse blobs are known gone.
struct InProcessNodes {
  const BsiStore* warehouse = nullptr;
  int num_nodes = 0;
  size_t hot_capacity_bytes = 0;
  RetryPolicy retry;
  std::vector<int> lost_segments;
};

class NodeLink;  // coordinator.cc: runs one wave's node tasks

class Coordinator {
 public:
  // TCP link to the NodeServers at options.node_ports.
  explicit Coordinator(CoordinatorOptions options);
  // In-process link over `nodes` (options.node_ports is ignored). The trace
  // root and postmortem query are named "adhoc_query_bsi" and the bundle
  // carries one "local" flight-recorder slice.
  Coordinator(CoordinatorOptions options, InProcessNodes nodes);
  ~Coordinator();

  // Scatter the scorecard query over the nodes, gather and merge.
  // latency_seconds is the query's measured wall time.
  Result<QueryStats> QueryBsi(
      const std::vector<uint64_t>& strategy_ids,
      const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi);

  uint64_t admission_rejections() const {
    return admission_rejections_.load(std::memory_order_relaxed);
  }

  const Placement& placement() const { return placement_; }
  // Cross-query health state (markdown / probe / latency windows).
  NodeHealth& health() { return health_; }

 private:
  Coordinator(CoordinatorOptions options, std::unique_ptr<NodeLink> link);

  // The scatter/gather body. Holds the query's ScopedTrace, so by the time
  // it returns the root span is closed and the slow-query check has run --
  // the postmortem (written by the QueryBsi wrapper) sees a finished trace.
  // `involved_nodes` collects every node id an RPC attempt completed
  // against, the set whose flight recorders a postmortem pulls.
  Result<QueryStats> QueryBsiInternal(
      const std::vector<uint64_t>& strategy_ids,
      const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi,
      std::vector<int>* involved_nodes);
  // Evaluates the postmortem triggers against finished stats and, when one
  // fires and postmortem_dir is set, assembles + writes the bundle and
  // records its path in the stats. `markdowns_before` is
  // health_.markdown_count() sampled at admission.
  void MaybeWritePostmortem(QueryStats* stats,
                            uint64_t markdowns_before,
                            const std::vector<int>& involved_nodes);

  CoordinatorOptions options_;
  std::unique_ptr<NodeLink> link_;
  Placement placement_;
  NodeHealth health_;
  std::atomic<int> running_queries_{0};
  std::atomic<uint64_t> admission_rejections_{0};
  std::atomic<uint64_t> next_request_id_{1};
};

}  // namespace net
}  // namespace expbsi

#endif  // EXPBSI_NET_COORDINATOR_H_
