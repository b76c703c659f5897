#ifndef EXPBSI_CLUSTER_PRECOMPUTE_PIPELINE_H_
#define EXPBSI_CLUSTER_PRECOMPUTE_PIPELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "engine/experiment_data.h"
#include "engine/normal_engine.h"
#include "expdata/generator.h"
#include "stats/bucket_stats.h"

namespace expbsi {

class IngestStore;  // wal/ingest_store.h

// Spark-like batch pre-compute pipeline (§5.2, Table 7). The paper submits
// daily jobs that each compute a batch of strategy-metric pairs; we model an
// executor pool (thread pool), per-pair tasks, CPU-time accounting (Table 7
// reports CPU hours, which are scheduler-independent) and warehouse-read
// traffic accounting.
struct PrecomputeConfig {
  int num_threads = 4;
  // Pairs per job; batching amortizes warehouse reads (§5.2: "each job
  // computes a batch of strategy-metric pairs for better utilizing network
  // traffic").
  int batch_size = 64;
  // Executor-failure recovery: a task attempt killed by fault injection is
  // retried under this policy (backoff is simulated, not slept). A pair
  // whose attempts are exhausted lands in PrecomputeStats::failed_pairs --
  // the batch keeps running, the failure is never silent.
  RetryPolicy retry;
  // When non-empty, a fully successful RunBsi (no failed pairs) serializes
  // the warehouse contents and commits a snapshot version into this
  // directory (storage/snapshot.h), the paper's daily-build-then-serve
  // handoff. Outcome lands in PrecomputeStats::snapshot_*; a batch with
  // failed pairs never publishes.
  std::string snapshot_dir;
  // Streaming handoff (DESIGN.md §8.5): when set (not owned, must outlive
  // the pipeline), a fully successful RunBsi checkpoints the ingest store
  // -- snapshot tagged with the last WAL sequence, WAL tail trimmed --
  // instead of serializing the pipeline's own BSI data. This is the
  // paper's daily rebuild replaced by an incremental checkpoint: the next
  // recovery replays only the WAL written after it. Takes precedence over
  // snapshot_dir.
  IngestStore* ingest = nullptr;
};

struct PrecomputeStats {
  double cpu_seconds = 0.0;   // summed across all tasks
  double wall_seconds = 0.0;
  uint64_t bytes_read = 0;    // simulated reads from the warehouse
  int pairs_computed = 0;     // pairs that produced a result
  // Failure accounting (chaos tests). failed_pairs is sorted; a failed pair
  // has no cached result (GetResult returns nullptr) rather than a stale or
  // partial one.
  int retries = 0;
  double backoff_seconds = 0.0;  // simulated backoff, not part of wall time
  std::vector<StrategyMetricPair> failed_pairs;
  // Snapshot publication (PrecomputeConfig::snapshot_dir). Written only by
  // RunBsi and only when failed_pairs is empty; snapshot_error holds the
  // write failure otherwise ("" = not attempted or succeeded).
  bool snapshot_written = false;
  uint64_t snapshot_version = 0;
  std::string snapshot_error;
  // WAL sequence the checkpoint covered (PrecomputeConfig::ingest path).
  uint64_t wal_checkpoint_sequence = 0;
};

class PrecomputePipeline {
 public:
  // Both representations of the same dataset; either may be omitted
  // (nullptr) if only one method will run. Pointers must outlive the
  // pipeline.
  PrecomputePipeline(const Dataset* dataset, const ExperimentBsiData* bsi,
                     PrecomputeConfig config);

  // Computes every pair's scorecard bucket values over [date_lo, date_hi]
  // with the BSI method (§4.2). Results are cached for GetResult.
  PrecomputeStats RunBsi(const std::vector<StrategyMetricPair>& pairs,
                         Date date_lo, Date date_hi);

  // Same computation with the normal-format baseline (§6.2: Spark-SQL-style
  // join + aggregate over pruned (strategy, metric) partitions). The
  // partition index is built once on first use -- it models the warehouse's
  // data layout, not per-pair work -- so it is excluded from the CPU stats.
  PrecomputeStats RunNormal(const std::vector<StrategyMetricPair>& pairs,
                            Date date_lo, Date date_hi);

  // Cached result of the last run for a pair, or nullptr.
  const BucketValues* GetResult(const StrategyMetricPair& pair) const;

 private:
  const Dataset* dataset_;
  const ExperimentBsiData* bsi_;
  PrecomputeConfig config_;
  std::unique_ptr<NormalDataIndex> normal_index_;
  std::map<StrategyMetricPair, BucketValues> cache_;
};

// Warehouse bytes a BSI-method pair read: the strategy's expose BSIs plus
// the metric's per-day value BSIs (what the job pulls over the network).
uint64_t BsiPairReadBytes(const ExperimentBsiData& data, uint64_t strategy_id,
                          uint64_t metric_id, Date date_lo, Date date_hi);

// Warehouse bytes the normal-format pair read: its expose rows plus the
// metric rows of the date range at their §6.1/§6.2 row widths, found through
// the partition index (O(rows of the pair), the form RunNormal times).
uint64_t NormalPairReadBytes(const Dataset& dataset,
                             const NormalDataIndex& index,
                             uint64_t strategy_id, uint64_t metric_id,
                             Date date_lo, Date date_hi);

}  // namespace expbsi

#endif  // EXPBSI_CLUSTER_PRECOMPUTE_PIPELINE_H_
