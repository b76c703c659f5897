#include "cluster/precompute_pipeline.h"

#include <algorithm>
#include <mutex>

#include "cluster/adhoc_cluster.h"
#include "common/check.h"
#include "common/fault_injector.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "engine/normal_engine.h"
#include "engine/scorecard.h"
#include "obs/metrics.h"
#include "wal/ingest_store.h"

namespace expbsi {

PrecomputePipeline::PrecomputePipeline(const Dataset* dataset,
                                       const ExperimentBsiData* bsi,
                                       PrecomputeConfig config)
    : dataset_(dataset), bsi_(bsi), config_(config) {
  CHECK_GT(config_.num_threads, 0);
  CHECK_GT(config_.batch_size, 0);
}

namespace {

// Runs `pairs` through `compute_one` on a pool, batching like the paper's
// jobs, and accumulates CPU time across tasks. Executor faults (injected at
// fault_sites::kPipelineTask, indexed pair_index * kPipelineAttemptStride +
// attempt so schedules do not depend on worker interleaving) fail single
// attempts; attempts retry under config.retry and exhausted pairs are
// reported in failed_pairs with their cache entry removed -- a failed pair
// is explicit, never a silently missing or stale number.
template <typename ComputeFn>
PrecomputeStats RunPairs(const std::vector<StrategyMetricPair>& pairs,
                         const PrecomputeConfig& config,
                         std::map<StrategyMetricPair, BucketValues>* cache,
                         ComputeFn compute_one) {
  PrecomputeStats stats;
  Stopwatch wall;
  ThreadPool pool(config.num_threads);
  std::mutex mu;
  for (size_t batch_start = 0; batch_start < pairs.size();
       batch_start += config.batch_size) {
    const size_t batch_end =
        std::min(pairs.size(), batch_start + config.batch_size);
    // One job per batch; within the job each pair is a task.
    for (size_t i = batch_start; i < batch_end; ++i) {
      const StrategyMetricPair pair = pairs[i];
      pool.Submit([&, pair, i] {
        CpuTimer cpu;
        uint64_t bytes = 0;
        int attempt = 0;
        RetryStats rstats;
        Result<BucketValues> result = RetryWithPolicy<BucketValues>(
            config.retry, /*jitter_token=*/i, &rstats,
            [&]() -> Result<BucketValues> {
              const int this_attempt = attempt++;
              if (FaultInjector* fi = FaultInjector::Get(); fi != nullptr) {
                const FaultDecision d = fi->EvaluateAt(
                    fault_sites::kPipelineTask,
                    i * kPipelineAttemptStride +
                        static_cast<uint64_t>(this_attempt));
                if (d.fail || d.crash) {
                  return Status::Unavailable(
                      "precompute: injected executor failure");
                }
              }
              bytes = 0;
              return compute_one(pair, &bytes);
            });
        const double cpu_used = cpu.ElapsedSeconds();
        std::lock_guard<std::mutex> lock(mu);
        stats.cpu_seconds += cpu_used;
        stats.retries += rstats.retries;
        stats.backoff_seconds += rstats.backoff_seconds;
        if (result.ok()) {
          stats.bytes_read += bytes;
          ++stats.pairs_computed;
          (*cache)[pair] = std::move(result).value();
        } else {
          stats.failed_pairs.push_back(pair);
          cache->erase(pair);
        }
      });
    }
    pool.Wait();  // job barrier
  }
  std::sort(stats.failed_pairs.begin(), stats.failed_pairs.end());
  stats.wall_seconds = wall.ElapsedSeconds();
  // Fleet accounting (Table 7 reports the pre-compute jobs' CPU-hours):
  // the cpu_seconds gauge accumulates monotonically across batches, so a
  // scrape divided by 3600 is the reproduction's CPU-hour figure.
  static obs::Counter& pairs_counter =
      obs::GetCounter("pipeline.pairs_computed");
  static obs::Counter& failed_counter =
      obs::GetCounter("pipeline.pairs_failed");
  static obs::Counter& bytes_counter = obs::GetCounter("pipeline.bytes_read");
  static obs::Gauge& cpu_gauge = obs::GetGauge("pipeline.cpu_seconds");
  pairs_counter.Add(static_cast<uint64_t>(stats.pairs_computed));
  failed_counter.Add(stats.failed_pairs.size());
  bytes_counter.Add(stats.bytes_read);
  cpu_gauge.Add(stats.cpu_seconds);
  return stats;
}

}  // namespace

PrecomputeStats PrecomputePipeline::RunBsi(
    const std::vector<StrategyMetricPair>& pairs, Date date_lo,
    Date date_hi) {
  CHECK(bsi_ != nullptr);
  // Expose filters are shared by every metric of a strategy; build them
  // once per batch (this is why jobs batch strategy-metric pairs, §5.2).
  // The build cost is part of the measured CPU.
  std::map<uint64_t, ExposeMaskCache> mask_caches;
  CpuTimer prep;
  for (const StrategyMetricPair& pair : pairs) {
    if (mask_caches.find(pair.first) == mask_caches.end()) {
      mask_caches.emplace(pair.first, ExposeMaskCache::Build(
                                          *bsi_, pair.first, date_lo,
                                          date_hi));
    }
  }
  const double prep_cpu = prep.ElapsedSeconds();
  PrecomputeStats stats = RunPairs(
      pairs, config_, &cache_,
      [this, &mask_caches, date_lo, date_hi](const StrategyMetricPair& pair,
                                             uint64_t* bytes) {
        *bytes = BsiPairReadBytes(*bsi_, pair.first, pair.second, date_lo,
                                  date_hi);
        return ComputeStrategyMetricBsiCached(*bsi_,
                                              mask_caches.at(pair.first),
                                              pair.second, date_lo, date_hi);
      });
  stats.cpu_seconds += prep_cpu;
  if (config_.ingest != nullptr && stats.failed_pairs.empty()) {
    // Streaming handoff: checkpoint through the WAL -- the ingest store
    // snapshots its live data tagged with the last ingested sequence and
    // trims the covered WAL segments. No full rebuild, no re-serialization
    // of this pipeline's inputs.
    Result<IngestCheckpointStats> checkpointed = config_.ingest->Checkpoint();
    if (checkpointed.ok()) {
      stats.snapshot_written = true;
      stats.snapshot_version = checkpointed.value().snapshot.version;
      stats.wal_checkpoint_sequence = checkpointed.value().sequence;
    } else {
      stats.snapshot_error = checkpointed.status().message();
    }
  } else if (!config_.snapshot_dir.empty() && stats.failed_pairs.empty()) {
    // Daily-build handoff: publish the warehouse as a new snapshot version
    // so serving clusters can cold-start from it. A batch with failed pairs
    // must not publish -- a recovered-from snapshot missing pairs would be
    // a silently stale warehouse.
    const BsiStore store = BuildColdStore(*bsi_);
    Result<SnapshotWriteStats> written =
        SnapshotWriter::Write(store, config_.snapshot_dir);
    if (written.ok()) {
      stats.snapshot_written = true;
      stats.snapshot_version = written.value().version;
    } else {
      stats.snapshot_error = written.status().message();
    }
  }
  return stats;
}

PrecomputeStats PrecomputePipeline::RunNormal(
    const std::vector<StrategyMetricPair>& pairs, Date date_lo,
    Date date_hi) {
  CHECK(dataset_ != nullptr);
  if (normal_index_ == nullptr) {
    normal_index_ =
        std::make_unique<NormalDataIndex>(NormalDataIndex::Build(*dataset_));
  }
  return RunPairs(
      pairs, config_, &cache_,
      [this, date_lo, date_hi](const StrategyMetricPair& pair,
                               uint64_t* bytes) {
        *bytes = NormalPairReadBytes(*dataset_, *normal_index_, pair.first,
                                     pair.second, date_lo, date_hi);
        return ComputeStrategyMetricNormalIndexed(*dataset_, *normal_index_,
                                                  pair.first, pair.second,
                                                  date_lo, date_hi);
      });
}

const BucketValues* PrecomputePipeline::GetResult(
    const StrategyMetricPair& pair) const {
  auto it = cache_.find(pair);
  return it == cache_.end() ? nullptr : &it->second;
}

uint64_t BsiPairReadBytes(const ExperimentBsiData& data, uint64_t strategy_id,
                          uint64_t metric_id, Date date_lo, Date date_hi) {
  uint64_t bytes = 0;
  for (const SegmentBsiData& seg : data.segments) {
    const ExposeBsi* expose = seg.FindExpose(strategy_id);
    if (expose != nullptr) bytes += expose->SizeInBytes();
    for (Date date = date_lo; date <= date_hi; ++date) {
      const MetricBsi* metric = seg.FindMetric(metric_id, date);
      if (metric != nullptr) bytes += metric->SizeInBytes();
    }
  }
  return bytes;
}

uint64_t NormalPairReadBytes(const Dataset& dataset,
                             const NormalDataIndex& index,
                             uint64_t strategy_id, uint64_t metric_id,
                             Date date_lo, Date date_hi) {
  constexpr uint64_t kExposeRowBytes = 16;  // §6.2 normal expose schema
  constexpr uint64_t kMetricRowBytes = 18;  // §6.1 normal metric schema
  uint64_t bytes = 0;
  for (int seg = 0; seg < dataset.config.num_segments; ++seg) {
    const std::vector<ExposeRow>* expose = index.ExposeRows(strategy_id, seg);
    if (expose != nullptr) bytes += expose->size() * kExposeRowBytes;
    const std::vector<MetricRow>* rows = index.MetricRows(metric_id, seg);
    if (rows == nullptr) continue;
    for (const MetricRow& row : *rows) {
      if (row.date >= date_lo && row.date <= date_hi) {
        bytes += kMetricRowBytes;
      }
    }
  }
  return bytes;
}

}  // namespace expbsi
