#ifndef EXPBSI_CLUSTER_ADHOC_CLUSTER_H_
#define EXPBSI_CLUSTER_ADHOC_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/precompute_pipeline.h"
#include "cluster/segment_query.h"
#include "common/retry.h"
#include "engine/experiment_data.h"
#include "engine/normal_engine.h"
#include "expdata/generator.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"

namespace expbsi {

class IngestStore;  // wal/ingest_store.h
namespace net {
class Coordinator;  // net/coordinator.h
}  // namespace net

// ClickHouse-like ad-hoc query cluster (§5.3, Fig. 8, Table 8): every
// segment has a primary node; a query fans out, runs on each node and the
// coordinator merges per-segment partials. Nodes keep hot data in a local
// tier and pull cold blobs from the warehouse on demand.
//
// QueryBsi is the network coordinator's scatter/gather (net::Coordinator)
// over an in-process node link: the nodes run one after another on the
// calling thread, so latency_seconds is measured wall time with the nodes
// serialized, not a parallel cluster's latency.
struct AdhocClusterConfig {
  int num_nodes = 4;
  size_t hot_capacity_bytes_per_node = 256u << 20;
  // Recovery layer: cold-tier fetch + decode runs under this policy
  // (transient unavailability and corrupt transfers are retried with
  // simulated backoff; NotFound is semantic absence and never retried).
  RetryPolicy retry;
  // When true, a segment whose blobs stay unfetchable or corrupt on every
  // node -- or whose every node died -- is dropped from the scorecard and
  // reported in QueryStats::degraded instead of failing the whole query.
  // Off by default: absent faults the strict mode behaves exactly as before
  // (errors surface as Status).
  bool allow_degraded = false;
  // Durable warehouse (§6 of DESIGN.md). When non-empty the cluster first
  // tries to cold-start its warehouse from the newest valid snapshot in
  // this directory; if nothing usable is there it builds from `bsi` as
  // before and then commits a fresh snapshot. Segments the snapshot lost
  // are surfaced through QueryStats::degraded (or fail strict-mode queries
  // with Corruption) -- never silently zero.
  std::string snapshot_dir;
  // Streaming warehouse (DESIGN.md §8.5). When set (not owned, must
  // outlive the cluster), the cluster serves the ingest store's live data:
  // the store has already done snapshot+WAL point-in-time recovery, so the
  // cluster's cold warehouse is built from it directly and snapshot_dir
  // handling is left to the store's own checkpoints. Mutually exclusive
  // with passing `bsi` (the store IS the BSI source).
  IngestStore* ingest = nullptr;
  // When non-empty, a degraded, node-losing or slow QueryBsi writes a
  // postmortem bundle (obs/postmortem.h) here. The in-process cluster has
  // no remote rings to pull, so the bundle carries one "local"
  // flight-recorder slice plus the finished trace. The path lands in
  // QueryStats::postmortem_path.
  std::string postmortem_dir;
};

class AdhocCluster {
 public:
  using DegradedInfo = expbsi::DegradedInfo;
  using QueryStats = expbsi::QueryStats;

  // `dataset` backs the normal-format baseline; `bsi` is serialized into the
  // cluster's cold warehouse store. Both must outlive the cluster. The
  // dataset must use bucket_equals_segment (the ad-hoc scenario).
  //
  // With config.snapshot_dir set, either may be nullptr: a cluster
  // cold-starting from a snapshot serves QueryBsi straight from the
  // recovered warehouse (QueryNormalBitmap then requires `dataset` and
  // CHECK-fails without it). Without a snapshot dir both are required.
  AdhocCluster(const Dataset* dataset, const ExperimentBsiData* bsi,
               AdhocClusterConfig config);
  ~AdhocCluster();

  // BSI method: per node, fetch + deserialize expose/metric blobs (hot tier
  // first), build the per-day expose masks and sum the metrics under them.
  //
  // Failure handling is net::Coordinator's: fetches retry under
  // config.retry; a node that crashes mid-query (adhoc.node_segment) loses
  // its in-flight wave and its segments fail over to their next replica
  // (every node replicates every segment here). An unrecoverable segment
  // either fails the query (the strict default) or -- with
  // config.allow_degraded -- is reported in QueryStats::degraded.
  Result<QueryStats> QueryBsi(const std::vector<uint64_t>& strategy_ids,
                              const std::vector<uint64_t>& metric_ids,
                              Date date_lo, Date date_hi);

  // Normal-format baseline (§6.3): per-day expose bitmaps cached in memory,
  // metric-log rows scanned and filtered through them, node by node over
  // each node's primary segments. latency_seconds is the measured wall time
  // of the scan (nodes serialized, like QueryBsi), excluding the bitmap
  // cache build.
  Result<QueryStats> QueryNormalBitmap(
      const std::vector<uint64_t>& strategy_ids,
      const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi);

  // Primary owner of a segment under the shared rendezvous placement
  // (cluster/placement.h) -- the same primaries the network Coordinator
  // derives, replacing the old `segment % num_nodes` rule.
  int NodeOfSegment(int segment) const;

  const BsiStore& cold_store() const { return cold_; }

  // Mutable access to the warehouse store, for failure injection in tests
  // and for operational re-ingestion.
  BsiStore& mutable_cold_store() { return cold_; }

  // Cold-start provenance (config.snapshot_dir): whether the warehouse was
  // recovered from a snapshot instead of rebuilt, the full recovery report
  // (lost segments, quarantined files), and the status of the snapshot
  // written after a fresh build (OK when none was attempted).
  bool cold_started_from_snapshot() const {
    return cold_started_from_snapshot_;
  }
  const RecoveryReport& recovery_report() const { return recovery_report_; }
  const Status& snapshot_write_status() const {
    return snapshot_write_status_;
  }

  int num_segments() const { return num_segments_; }

 private:
  // Lazily built (and then reused) per-strategy expose bitmap caches for the
  // baseline, mirroring the paper's "cache these bitmaps in memory". Sets
  // `*built` to whether this call (re)built the cache rather than reusing
  // the in-memory copy, so the caller can account the cold read.
  const ExposeBitmapCache& GetOrBuildBitmapCache(uint64_t strategy_id,
                                                 Date date_lo, Date date_hi,
                                                 bool* built);

  const Dataset* dataset_;
  const ExperimentBsiData* bsi_;
  std::unique_ptr<NormalDataIndex> normal_index_;
  AdhocClusterConfig config_;
  BsiStore cold_;
  int num_segments_ = 0;
  bool cold_started_from_snapshot_ = false;
  RecoveryReport recovery_report_;
  Status snapshot_write_status_;
  // Segments (< num_segments_) the snapshot recovery lost; every node
  // answers them lost=1 without executing them.
  std::vector<int> recovery_lost_segments_;
  std::unique_ptr<net::Coordinator> coordinator_;
  std::map<uint64_t, ExposeBitmapCache> bitmap_caches_;
  // (metric_id, segment) row groups the baseline has already scanned; a
  // first scan is a cold read of the rows' bytes, a repeat is a hot hit --
  // the same accounting the BSI path gets from its TieredStore, so
  // QueryStats is comparable across the two paths.
  std::set<std::pair<uint64_t, int>> normal_scanned_;
};

// Serializes every expose/metric/dimension BSI of `data` into a BsiStore
// (the warehouse contents of Fig. 7).
BsiStore BuildColdStore(const ExperimentBsiData& data);

// Inverse of BuildColdStore, for a warehouse that crossed a crash boundary:
// decodes every blob back into an ExperimentBsiData so the full query
// engine can run against a recovered store. Shape metadata (segment /
// bucket counts, bucketing mode) is not stored in the warehouse and must be
// supplied; num_segments <= 0 derives it from the largest segment id
// present. Position encoders are build-time state and are not (and need not
// be) reconstructed -- queries never touch them. Any undecodable or
// mis-keyed blob fails with Corruption.
Result<ExperimentBsiData> ReconstructBsiData(const BsiStore& store,
                                             int num_segments,
                                             int num_buckets,
                                             bool bucket_equals_segment);

}  // namespace expbsi

#endif  // EXPBSI_CLUSTER_ADHOC_CLUSTER_H_
