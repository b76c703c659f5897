#ifndef EXPBSI_CLUSTER_SEGMENT_QUERY_H_
#define EXPBSI_CLUSTER_SEGMENT_QUERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "expdata/schema.h"
#include "obs/trace.h"
#include "stats/bucket_stats.h"
#include "storage/tiered_store.h"
#include "wire/messages.h"

namespace expbsi {

// Per-segment BSI query execution and the scorecard a scatter/gather
// assembles from it. ExecuteQueryRequest is the one node-side execution
// path -- the remote NodeServer (src/net) and the coordinator's in-process
// node link both run it -- so the serving paths are bit-identical by
// construction: the cross-process differential compares them with ==.

// Explicit degradation accounting (never silent: a partial scorecard is
// returned *flagged*, following the SRM-bias argument that dropping a
// failed segment without saying so biases every downstream statistic).
struct DegradedInfo {
  // Segments absent from the result (sorted, unique). Their slots in every
  // BucketValues vector are zero and must be excluded from inference.
  std::vector<int> lost_segments;
  int segments_answered = 0;
  int retries = 0;          // fetch retry attempts taken across the query
  int faults_survived = 0;  // faults recovered (retry or failover success)
  int nodes_lost = 0;       // nodes that died mid-query

  bool degraded() const { return !lost_segments.empty(); }
};

// What one scatter/gather query returns (net::Coordinator::QueryBsi).
struct QueryStats {
  double latency_seconds = 0.0;  // measured wall time
  double total_cpu_seconds = 0.0;
  uint64_t bytes_from_cold = 0;
  uint64_t hot_hits = 0;
  std::map<StrategyMetricPair, BucketValues> results;
  DegradedInfo degraded;
  // Full span tree of this query (waves, per-node RPCs with the nodes'
  // grafted execution spans, per-segment work, retries). Finished -- root
  // closed, slow-query check applied -- before the stats are returned;
  // shared so callers can keep it past the stats object.
  std::shared_ptr<obs::QueryTrace> trace;
  // Path of the postmortem bundle written for this query ("" when no
  // trigger fired or no postmortem directory is configured). See
  // obs/postmortem.h.
  std::string postmortem_path;
};

// One segment's contribution to every requested (strategy, metric) pair,
// kept separate from the merged scorecard until the owning node's wave
// completes: a crashed node loses its whole in-flight wave, like a
// scatter-gather RPC whose response never arrives.
struct SegPartial {
  std::vector<double> sums;    // [si * num_metrics + mi]
  std::vector<double> counts;
};

// The scorecard a scatter/gather assembles: per (strategy, metric) pair,
// one zero-filled BucketValues slot per segment (the bucket is the segment
// on the serving path), filled as segments' partials arrive.
std::map<StrategyMetricPair, BucketValues> MakeSegmentPartials(
    const std::vector<uint64_t>& strategy_ids,
    const std::vector<uint64_t>& metric_ids, int num_segments);

// Stores segment `seg`'s partial, laid out [si * num_metrics + mi] as in
// SegPartial, into slot `seg` of every pair in `partials`.
void StoreSegmentPartial(const std::vector<uint64_t>& strategy_ids,
                         const std::vector<uint64_t>& metric_ids, int seg,
                         const std::vector<double>& sums,
                         const std::vector<double>& counts,
                         std::map<StrategyMetricPair, BucketValues>* partials);

// Recovery accounting for one segment's execution, accumulated by the
// caller into its DegradedInfo / response stats.
struct SegmentExecStats {
  int retries = 0;          // fetch retry attempts taken
  int faults_survived = 0;  // fetches that recovered via retry
};

// Runs one segment's expose-mask + masked-sum plan against `tier`.
// ok(true): `out` filled. ok(false): segment lost after retries
// (allow_degraded only). error: permanent failure, propagated (strict
// mode). Fetches retry under `retry`; NotFound is semantic absence and
// never retried. Emits the "segment_execute" trace span when a trace is
// installed on the calling thread.
Result<bool> ExecuteSegmentQuery(TieredStore& tier, int seg,
                                 const std::vector<uint64_t>& strategy_ids,
                                 const std::vector<uint64_t>& metric_ids,
                                 Date date_lo, Date date_hi,
                                 const RetryPolicy& retry,
                                 bool allow_degraded, SegPartial* out,
                                 SegmentExecStats* exec_stats);

// What a node does with one requested segment, decided just before the
// segment would run (ExecuteQueryRequest's `gate`).
enum class SegmentGate {
  kExecute,  // run it
  kLost,     // answer lost=1 without running it (its blobs are known gone)
  kAbort,    // stop the request here; the caller discards the response
};

// Executes one query request against a node's `tier` -- ExecuteSegmentQuery
// per requested segment, asking `gate` (when set) first -- and fills `resp`:
// per-segment results (lost=1 when degraded), retries, CPU time, tier I/O
// and, when req.want_trace, the closed "node_query" span tree. No sockets,
// no encoding. Returns the first permanent segment failure (strict mode).
Status ExecuteQueryRequest(TieredStore& tier,
                           const wire::WireQueryRequest& req,
                           const RetryPolicy& retry,
                           const std::function<SegmentGate(uint32_t)>& gate,
                           wire::WireQueryResponse* resp);

}  // namespace expbsi

#endif  // EXPBSI_CLUSTER_SEGMENT_QUERY_H_
