#ifndef EXPBSI_CLUSTER_SEGMENT_QUERY_H_
#define EXPBSI_CLUSTER_SEGMENT_QUERY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "expdata/schema.h"
#include "stats/bucket_stats.h"
#include "storage/tiered_store.h"

namespace expbsi {

// Per-segment BSI query execution, shared verbatim by the in-process
// AdhocCluster and the remote NodeServer (src/net) so the two serving paths
// are bit-identical by construction: the cross-process differential sweep
// compares their scorecards with ==, and any divergence would mean the code
// paths forked.

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

}  // namespace expbsi

#endif  // EXPBSI_CLUSTER_SEGMENT_QUERY_H_
