// precompute_1024b: the daily batch (paper §5.2, Table 7) over 1024 bucket
// replicates. One 3-arm experiment x 10 core metrics = 30 strategy-metric
// pairs per pass, run through PrecomputePipeline::RunBsi with 3 threads and
// 16-pair jobs, so the job barrier is on the measured path.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "bsi/bsi_group_by.h"
#include "cluster/precompute_pipeline.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"

namespace perfbench {
namespace {

using namespace expbsi;

constexpr uint64_t kUsers = 262144;
constexpr int kSegments = 8;
constexpr int kBuckets = 1024;
constexpr int kDays = 7;
constexpr Date kLo = 0;
constexpr Date kHi = kLo + kDays - 1;
constexpr int kNumMetrics = 10;
constexpr int kThreads = 3;
constexpr int kBatchSize = 16;
constexpr int kReadsPerPass = 200;
constexpr uint64_t kPopulationSeed = 9;
const std::vector<uint64_t> kStrategies = {101, 102, 103};  // 101 = control

struct Batch {
  Dataset dataset;
  ExperimentBsiData bsi;
  std::vector<StrategyMetricPair> pairs;
};

std::unique_ptr<Batch> BuildBatch(uint64_t seed) {
  auto batch = std::make_unique<Batch>();
  DatasetConfig config;
  config.num_users = kUsers;
  config.num_segments = kSegments;
  config.num_buckets = kBuckets;
  config.bucket_equals_segment = false;
  config.num_days = kDays;
  config.start_date = kLo;
  config.seed = seed;
  ExperimentConfig exp;
  exp.strategy_ids = kStrategies;
  exp.arm_effects = {1.0, 1.05, 0.97};
  exp.traffic_salt = 1;
  // The metric shapes (value ranges, skew, participation) are part of the
  // workload's definition; the seed draws the users' data.
  const std::vector<MetricConfig> metrics =
      MakeCoreMetricPopulation(kNumMetrics, 1001, kPopulationSeed);
  batch->dataset = GenerateDataset(config, {exp}, metrics, {});
  batch->bsi = BuildExperimentBsiData(batch->dataset, true);
  for (uint64_t s : kStrategies) {
    for (const MetricConfig& m : metrics) batch->pairs.emplace_back(s, m.metric_id);
  }
  return batch;
}

bool SameValues(const BucketValues& a, const BucketValues& b) {
  return a.sums == b.sums && a.counts == b.counts;
}

// A downstream read of the batch's output: the whole scorecard (every
// treatment arm against the control, every metric) from the cached results.
// Returns false when a pair has no result.
bool ReadScorecard(const PrecomputePipeline& pipe, const Batch& batch,
                   double* checksum) {
  for (const StrategyMetricPair& pair : batch.pairs) {
    if (pair.first == kStrategies[0]) continue;
    const BucketValues* treatment = pipe.GetResult(pair);
    const BucketValues* control = pipe.GetResult({kStrategies[0], pair.second});
    if (treatment == nullptr || control == nullptr) return false;
    const ScorecardEntry entry = CompareStrategies(
        pair.second, pair.first, *treatment, kStrategies[0], *control);
    *checksum += entry.ttest.p_value;
  }
  return true;
}

}  // namespace

Outcome RunPrecompute(const Args& args) {
  Outcome out;
  PrecomputeConfig config;
  config.num_threads = kThreads;
  config.batch_size = kBatchSize;

  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Batch> batch;
  std::unique_ptr<PrecomputePipeline> pipe;
  for (int i = 0; i < setups; ++i) {
    pipe.reset();
    batch.reset();
    const uint64_t t0 = NowNs();
    batch = BuildBatch(args.seed);
    pipe = std::make_unique<PrecomputePipeline>(&batch->dataset, &batch->bsi,
                                                config);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const size_t num_pairs = batch->pairs.size();

  // Passes until the window is spent. In a traced run the second half of
  // the window runs with a span around every pass.
  std::vector<double> pass_ms[2];
  std::vector<double> read_ms;
  std::map<StrategyMetricPair, BucketValues> first_results;
  std::vector<double> cpu_ms_per_pair;  // one entry per pass
  double checksum = 0.0;
  uint64_t bytes_read = 0, pairs_done = 0;
  double run_bsi_s = 0.0;  // summed RunBsi wall time of every pass
  for (int half = 0; half < (args.trace ? 2 : 1); ++half) {
    SpanRecorder::Global().set_enabled(half == 1);
    const double window = args.trace ? args.seconds / 2 : args.seconds;
    const uint64_t start = NowNs();
    while (pass_ms[half].empty() ||
           static_cast<double>(NowNs() - start) / 1e9 < window) {
      SpanRecorder::BeginOp(pass_ms[half].size() + 1);
      const double cpu0 = ProcessCpuSeconds();
      const uint64_t t0 = NowNs();
      PrecomputeStats stats;
      {
        ScopedSpan span("precompute_pass");
        stats = pipe->RunBsi(batch->pairs, kLo, kHi);
      }
      const double pass_s = static_cast<double>(NowNs() - t0) / 1e9;
      run_bsi_s += pass_s;
      cpu_ms_per_pair.push_back((ProcessCpuSeconds() - cpu0) * 1e3 /
                                static_cast<double>(num_pairs));
      pass_ms[half].push_back(pass_s * 1e3);
      out.attempted += num_pairs;
      out.failed += stats.failed_pairs.size();
      if (!stats.failed_pairs.empty()) out.correct = false;
      pairs_done += static_cast<uint64_t>(stats.pairs_computed);
      bytes_read += stats.bytes_read;
      // Every pass must reproduce the first pass exactly.
      for (const StrategyMetricPair& pair : batch->pairs) {
        const BucketValues* got = pipe->GetResult(pair);
        if (got == nullptr) continue;
        const auto it = first_results.find(pair);
        if (it == first_results.end()) {
          first_results.emplace(pair, *got);
        } else if (!SameValues(it->second, *got)) {
          out.Fail("a later pass changed a pair's bucket values");
        }
      }
      for (int r = 0; r < kReadsPerPass; ++r) {
        const uint64_t r0 = NowNs();
        const bool ok = ReadScorecard(*pipe, *batch, &checksum);
        read_ms.push_back(static_cast<double>(NowNs() - r0) / 1e6);
        if (!ok) {
          out.Fail("scorecard read found a pair without a result");
          break;
        }
      }
    }
  }
  SpanRecorder::Global().set_enabled(false);
  if (args.trace) {
    out.Add("obs.trace_overhead", Median(pass_ms[1]) - Median(pass_ms[0]),
            "ms");
  }
  const double peak_rss = PeakRssMb();

  // Output gate: sampled pairs against the scalar oracle.
  const RefExperimentData ref = BuildRefExperimentData(batch->dataset);
  for (size_t si = 0; si < kStrategies.size(); ++si) {
    const StrategyMetricPair& pair =
        batch->pairs[si * kNumMetrics + (args.seed + si) % kNumMetrics];
    ++out.attempted;
    const BucketValues* got = pipe->GetResult(pair);
    const BucketValues want =
        RefComputeStrategyMetric(ref, pair.first, pair.second, kLo, kHi);
    if (got == nullptr || !SameValues(*got, want)) {
      out.Fail("precomputed pair differs from the scalar oracle");
    }
  }

  std::vector<double> all_passes = pass_ms[0];
  all_passes.insert(all_passes.end(), pass_ms[1].begin(), pass_ms[1].end());
  const double pairs = std::max(static_cast<double>(pairs_done), 1.0);
  out.Add("setup_s", Median(setup_s), "s");
  // Pairs completed per second of RunBsi wall time, over all passes; the
  // pass latency and CPU per pair below are medians over passes.
  out.Add("throughput_per_s", static_cast<double>(pairs_done) / run_bsi_s,
          "1/s");
  out.Add("latency_ms", Median(all_passes), "ms");
  out.Add("latency_tail_ms", Tail(all_passes), "ms");
  out.Add("read_p50_ms", Median(read_ms), "ms");
  out.Add("cpu_ms_per_op", Median(cpu_ms_per_pair), "ms");
  out.Add("bytes_per_op", static_cast<double>(bytes_read) / pairs, "B");
  out.Add("peak_rss_mb", peak_rss, "MB");
  out.Info("op", "RunBsi pass over 30 pairs (latency); one pair (rates)");
  out.Info("run_bsi_s", run_bsi_s);  out.Info("loop", "closed, one batch at a time");
  out.Info("threads", kThreads);
  out.Info("passes", static_cast<double>(all_passes.size()));
  out.Info("reads", static_cast<double>(read_ms.size()));
  out.Info("read_checksum", checksum);
  return out;
}

void ReplayPrecompute(const Args& args, bool home, Outcome* out) {
  const std::unique_ptr<Batch> batch = BuildBatch(args.seed);
  const ExperimentBsiData& bsi = batch->bsi;
  SpanRecorder& rec = SpanRecorder::Global();
  rec.set_enabled(true);

  // Sampled pairs: every arm x the first two metrics.
  std::vector<StrategyMetricPair> pairs;
  for (size_t si = 0; si < kStrategies.size(); ++si) {
    for (int mi = 0; mi < 2; ++mi) {
      pairs.push_back(batch->pairs[si * kNumMetrics + mi]);
    }
  }
  std::map<uint64_t, ExposeMaskCache> caches;
  for (uint64_t s : kStrategies) {
    std::optional<ExposeMaskCache> cache;
    TimedSpan("mask_cache_build", [&] {
      cache.emplace(ExposeMaskCache::Build(bsi, s, kLo, kHi));
    });
    caches.emplace(s, std::move(*cache));
  }
  out->Add("engine.mask_cache_build_ms",
           rec.Total("mask_cache_build").total_ns / 1e6 / kStrategies.size(),
           "ms");

  std::map<StrategyMetricPair, BucketValues> serial;
  std::map<StrategyMetricPair, double> serial_pair_ns;
  double serial_ns = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    SpanRecorder::BeginOp(i + 1);
    const uint64_t ns = TimedSpan("pair", [&] {
      serial[pairs[i]] = ComputeStrategyMetricBsiCached(
          bsi, caches.at(pairs[i].first), pairs[i].second, kLo, kHi);
    });
    serial_pair_ns[pairs[i]] = static_cast<double>(ns);
    serial_ns += static_cast<double>(ns);
  }
  const double pair_ms = serial_ns / 1e6 / static_cast<double>(pairs.size());
  out->Add("engine.pair_ms", pair_ms, "ms");

  // The same pairs through the pool: how much of 3 threads' wall the
  // serial work fills.
  PrecomputeConfig config;
  config.num_threads = kThreads;
  config.batch_size = kBatchSize;
  PrecomputePipeline pipe(nullptr, &bsi, config);
  PrecomputeStats stats;
  const uint64_t pool_ns =
      TimedSpan("run_bsi", [&] { stats = pipe.RunBsi(pairs, kLo, kHi); });
  out->Add("common.pool_efficiency",
           serial_ns / (static_cast<double>(pool_ns) * kThreads), "ratio");
  for (const StrategyMetricPair& pair : pairs) {
    ++out->attempted;
    const BucketValues* got = pipe.GetResult(pair);
    if (got == nullptr || !SameValues(*got, serial.at(pair))) {
      out->Fail("pooled pair differs from the serial replay");
    }
  }

  // Two pairs taken apart: the radix partition alone (no-op visitor), then
  // the partition with one masked sum per bucket. The per-bucket sums must
  // rebuild the pair's bucket values exactly.
  uint64_t partition_calls = 0;
  double partition_ns = 0.0, mask_card = 0.0;
  uint64_t bucket_masks = 0;
  const std::vector<StrategyMetricPair> detail = {pairs[0], pairs[2]};
  for (const StrategyMetricPair& pair : detail) {
    const ExposeMaskCache& cache = caches.at(pair.first);
    std::vector<double> sums(kBuckets, 0.0);
    for (int seg = 0; seg < kSegments; ++seg) {
      const SegmentBsiData& sbd = bsi.segments[seg];
      const ExposeBsi* expose = sbd.FindExpose(pair.first);
      for (Date d = kLo; d <= kHi; ++d) {
        const MetricBsi* metric = sbd.FindMetric(pair.second, d);
        const RoaringBitmap& mask = cache.Mask(seg, d);
        if (metric == nullptr || expose == nullptr || mask.IsEmpty()) continue;
        partition_ns += static_cast<double>(TimedSpan("partition", [&] {
          PartitionByBucket(expose->bucket, kBuckets, mask,
                            [](int, const RoaringBitmap&) {});
        }));
        ++partition_calls;
        std::vector<uint64_t> day_sums(kBuckets, 0);
        TimedSpan("partition_and_sum", [&] {
          PartitionByBucket(
              expose->bucket, kBuckets, mask,
              [&](int b, const RoaringBitmap& members) {
                TimedSpan("bucket_sum", [&] {
                  day_sums[b] = metric->value.SumUnderMask(members);
                });
                mask_card += static_cast<double>(members.Cardinality());
                ++bucket_masks;
              });
        });
        for (int b = 0; b < kBuckets; ++b) {
          sums[b] += static_cast<double>(day_sums[b]);
        }
      }
    }
    ++out->attempted;
    if (sums != serial.at(pair).sums) {
      out->Fail("per-bucket replay sums differ from the pair's values");
    }
  }
  const double partition_ms =
      partition_ns / 1e6 / static_cast<double>(std::max<uint64_t>(partition_calls, 1));
  const SpanRecorder::SelfTime bucket_sum = rec.Total("bucket_sum");
  out->Add("bsi.partition_ms", partition_ms, "ms");
  out->Add("bsi.bucket_sum_us", bucket_sum.mean_us(), "us");
  out->Add("bsi.bucket_mask_card",
           mask_card / static_cast<double>(std::max<uint64_t>(bucket_masks, 1)),
           "count");

  if (home) {
    ContainerMix mix;
    for (const SegmentBsiData& sbd : bsi.segments) {
      for (const auto& [key, metric] : sbd.metrics) mix.AddSlices(metric.value);
      for (uint64_t s : kStrategies) {
        const ExposeBsi* expose = sbd.FindExpose(s);
        if (expose == nullptr) continue;
        mix.AddSlices(expose->offset);
        mix.AddSlices(expose->bucket);
      }
    }
    mix.Report(out);
    // One pair = its partitions plus its per-bucket sums; the rest is
    // mask lookups, the count partition and the double folding.
    double op_ns = 0.0;
    for (const StrategyMetricPair& pair : detail) op_ns += serial_pair_ns.at(pair);
    const double n = static_cast<double>(detail.size());
    const double op_ms = op_ns / 1e6 / n;
    const double covered = (partition_ns + bucket_sum.total_ns) / 1e6 / n;
    out->Add("obs.op_ms", op_ms, "ms");
    out->Add("obs.covered_ms", covered, "ms");
    out->Add("obs.uncovered_ms", op_ms - covered, "ms");
    out->Info("breakdown",
              "one strategy-metric pair, serial: PartitionByBucket + "
              "per-bucket SumUnderMask; the rest is the count partition, "
              "mask lookups and folding");
  }
  rec.set_enabled(false);
}

}  // namespace perfbench
