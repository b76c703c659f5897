// ingest_live: continuous log ingestion beside live reads. One thread
// streams the generated events through IngestStore::Ingest in 512-event
// batches (WAL records to the page cache, see BenchWalOptions), runs an EQL
// deep-dive on the live store every 64 batches and checkpoints every 1024.
// At the end of a pass the store is dropped without a final checkpoint and
// reopened.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "wal/delta_builder.h"
#include "wal/event_stream.h"
#include "wal/ingest_store.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using namespace expbsi;

constexpr uint64_t kUsers = 262144;
constexpr int kSegments = 8;
constexpr int kDays = 7;
constexpr size_t kBatchEvents = 512;
constexpr size_t kQueryEvery = 64;
constexpr size_t kCheckpointEvery = 1024;
constexpr size_t kNumQueries = 6;
// The ack tail is p98, not p99: each WAL segment roll (every ~221 batches,
// 0.45% of acks) closes and fsyncs a 4 MB segment for 4-5 ms. That puts
// the roll stalls right at p99, which flipped between the roll mode and
// the sub-millisecond mode from run to run (0.8-2.4 ms on one seed). The
// roll cost itself is wal.roll_append_us in the traced run.
constexpr double kTailQuantile = 0.98;
// The typical ack is the mean of the acks up to that tail, not their p50.
// A batch holds the events of one (date, kind, id) run, because
// MakeWalEventStream sorts by that key, so batch costs cluster by event
// kind: 0.37 ms for the 0/1 metric, 0.52-0.56 ms for the wide metrics and
// the dimension. The p50 fell where the clusters meet and moved 1.5-2x as
// much as throughput from run to run; the mean moves with throughput.
constexpr uint32_t kDimension = 11;
const std::vector<uint64_t> kStrategies = {801, 802};
const std::vector<uint64_t> kMetrics = {1001, 1002, 1003};

struct Stream {
  Dataset dataset;
  std::vector<std::vector<WalEvent>> batches;
  uint64_t events = 0;
  std::vector<std::string> queries;
};

std::unique_ptr<Stream> BuildStream(uint64_t seed) {
  auto stream = std::make_unique<Stream>();
  DatasetConfig config;
  config.num_users = kUsers;
  config.num_segments = kSegments;
  config.num_days = kDays;
  config.start_date = 0;
  config.seed = seed;
  ExperimentConfig experiment;
  experiment.strategy_ids = kStrategies;
  experiment.arm_effects = {1.0, 1.05};
  experiment.traffic_fraction = 0.9;
  MetricConfig m1;
  m1.metric_id = kMetrics[0];
  m1.value_range = 200;
  MetricConfig m2;
  m2.metric_id = kMetrics[1];
  m2.value_range = 30;
  m2.daily_participation = 0.6;
  MetricConfig m3;
  m3.metric_id = kMetrics[2];
  m3.value_range = 1;
  m3.daily_participation = 0.8;
  DimensionConfig dim;
  dim.dimension_id = kDimension;
  dim.cardinality = 8;
  stream->dataset = GenerateDataset(config, {experiment}, {m1, m2, m3}, {dim});
  const std::vector<WalEvent> events = MakeWalEventStream(stream->dataset);
  stream->events = events.size();
  stream->batches = BatchWalEvents(events, kBatchEvents);

  // The deep-dive list: each arm x metric over the whole week, users of
  // one dimension band on the middle day, per bucket.
  const uint64_t bands[] = {2, 4, 6};
  for (size_t mi = 0; mi < kMetrics.size(); ++mi) {
    for (uint64_t strategy : kStrategies) {
      stream->queries.push_back(
          "SELECT sum(value), count(*) FROM metric(" +
          std::to_string(kMetrics[mi]) + ", date = 0, to = " +
          std::to_string(kDays - 1) + ") WHERE exposed(" +
          std::to_string(strategy) + ") AND dim(" +
          std::to_string(kDimension) + ", date = " +
          std::to_string(kDays / 2) + ") <= " +
          std::to_string(bands[mi]) + " GROUP BY BUCKET");
    }
  }
  return stream;
}

// Records go to the page cache; durability barriers are the checkpoints,
// segment rolls and close. The default fsync per record is left out of the
// end-to-end path because its latency on a shared disk swung run to run by
// more than any bound could absorb; the traced replay times it per record
// as wal.fsync_us.
WalOptions BenchWalOptions() {
  WalOptions options;
  options.sync_each_append = false;
  return options;
}

IngestOptions StoreOptions() {
  IngestOptions options;
  options.wal = BenchWalOptions();
  options.num_segments = kSegments;
  options.num_buckets = 0;
  options.bucket_equals_segment = true;
  return options;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.columns == b.columns && a.row == b.row &&
         a.per_bucket == b.per_bucket;
}

// Runs every deep-dive on `data`; nullopt when one fails.
std::optional<std::vector<QueryResult>> AnswerAll(
    const ExperimentBsiData& data, const std::vector<std::string>& queries) {
  std::vector<QueryResult> answers;
  for (const std::string& q : queries) {
    Result<QueryResult> r = RunQuery(data, q);
    if (!r.ok()) return std::nullopt;
    answers.push_back(std::move(r).value());
  }
  return answers;
}

bool SameAnswers(const std::vector<QueryResult>& a,
                 const std::vector<QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameResult(a[i], b[i])) return false;
  }
  return true;
}

// Samples of every pass, pooled, plus one entry per pass for each reported
// rate, mean and percentile, so the reported value is a median over passes.
struct PassTotals {
  std::vector<double> ack_ms;
  std::vector<double> live_ms;
  std::vector<double> bytes_per_event;
  std::vector<double> events_per_s;
  std::vector<double> cpu_ms_per_batch;
  std::vector<double> ack_mean_ms;  // below the tail, see kTailQuantile
  std::vector<double> tail_ms;  // p98 of the pass's acks, see kTailQuantile
  std::vector<double> live_p50_ms;
  uint64_t batches = 0;
};

// One pass: a fresh store takes the whole stream, then is dropped without
// a final checkpoint and reopened. Returns the live answers at the end.
std::optional<std::vector<QueryResult>> RunPass(const Stream& stream,
                                                const std::string& dir,
                                                PassTotals* totals,
                                                Outcome* out) {
  const std::string wal_dir = dir + "/wal";
  const std::string snap_dir = dir + "/snap";
  if (!ResetDir(wal_dir) || !ResetDir(snap_dir)) {
    out->Fail("cannot prepare " + dir);
    return std::nullopt;
  }
  Result<std::unique_ptr<IngestStore>> opened =
      IngestStore::Open(wal_dir, snap_dir, StoreOptions());
  if (!opened.ok()) {
    out->Fail("ingest store open failed: " + opened.status().ToString());
    return std::nullopt;
  }
  std::unique_ptr<IngestStore> store = std::move(opened).value();
  size_t next_query = 0;
  uint64_t events = 0;
  const size_t acks_before = totals->ack_ms.size();
  const size_t live_before = totals->live_ms.size();
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  for (size_t b = 0; b < stream.batches.size(); ++b) {
    SpanRecorder::BeginOp(b + 1);
    ++out->attempted;
    const uint64_t a0 = NowNs();
    Result<uint64_t> seq = Status::Unavailable("not run");
    {
      ScopedSpan span("ingest");
      seq = store->Ingest(stream.batches[b]);
    }
    totals->ack_ms.push_back(static_cast<double>(NowNs() - a0) / 1e6);
    if (!seq.ok()) {
      out->Fail("ingest rejected a batch: " + seq.status().ToString());
      continue;
    }
    events += stream.batches[b].size();
    ++totals->batches;
    if ((b + 1) % kQueryEvery == 0) {
      ++out->attempted;
      const uint64_t q0 = NowNs();
      const Result<QueryResult> r =
          RunQuery(store->data(), stream.queries[next_query++ % kNumQueries]);
      totals->live_ms.push_back(static_cast<double>(NowNs() - q0) / 1e6);
      if (!r.ok()) out->Fail("live query failed: " + r.status().ToString());
    }
    if ((b + 1) % kCheckpointEvery == 0) {
      ++out->attempted;
      if (!store->Checkpoint().ok()) out->Fail("checkpoint failed");
    }
  }
  const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  totals->events_per_s.push_back(static_cast<double>(events) / wall_s);
  totals->cpu_ms_per_batch.push_back(
      cpu_s * 1e3 / static_cast<double>(stream.batches.size()));
  const std::vector<double> pass_acks(
      totals->ack_ms.begin() + static_cast<std::ptrdiff_t>(acks_before),
      totals->ack_ms.end());
  totals->ack_mean_ms.push_back(MeanBelow(pass_acks, kTailQuantile));
  totals->tail_ms.push_back(Quantile(pass_acks, kTailQuantile));
  totals->live_p50_ms.push_back(Median(std::vector<double>(
      totals->live_ms.begin() + static_cast<std::ptrdiff_t>(live_before),
      totals->live_ms.end())));

  std::optional<std::vector<QueryResult>> live =
      AnswerAll(store->data(), stream.queries);
  totals->bytes_per_event.push_back(
      static_cast<double>(DirBytes(wal_dir) + DirBytes(snap_dir)) /
      static_cast<double>(stream.events));
  const uint64_t last_sequence = store->last_sequence();
  store.reset();  // dropped without a final checkpoint
  // The pass leaves ~170 MB of unsynced WAL behind; flush it untimed so the
  // next pass does not race the kernel's writeback of it.
  SyncTree(dir);

  // The reopened store replays the uncheckpointed tail on top of the last
  // snapshot and must answer as the live store did.
  ++out->attempted;
  Result<std::unique_ptr<IngestStore>> recovered =
      IngestStore::Open(wal_dir, snap_dir, StoreOptions());
  if (!recovered.ok() || recovered.value()->last_sequence() != last_sequence) {
    out->Fail("recovery did not restore the acked log");
  } else if (!live.has_value() ||
             !SameAnswers(*live, AnswerAll(recovered.value()->data(),
                                           stream.queries)
                                     .value_or(std::vector<QueryResult>{}))) {
    out->Fail("recovered store answers differently from the live store");
  }
  RemoveTree(dir);
  return live;
}

}  // namespace

Outcome RunIngest(const Args& args) {
  Outcome out;
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Stream> stream;
  for (int i = 0; i < setups; ++i) {
    stream.reset();
    const uint64_t t0 = NowNs();
    stream = BuildStream(args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const std::string root =
      args.out_dir + "/ingest-" + std::to_string(::getpid());
  PassTotals all;
  size_t untraced_acks = 0;
  std::vector<std::vector<QueryResult>> pass_answers;
  for (int half = 0; half < (args.trace ? 2 : 1); ++half) {
    SpanRecorder::Global().set_enabled(half == 1);
    const double window = args.trace ? args.seconds / 2 : args.seconds;
    const uint64_t start = NowNs();
    int pass = 0;
    while (pass == 0 || static_cast<double>(NowNs() - start) / 1e9 < window) {
      std::optional<std::vector<QueryResult>> answers =
          RunPass(*stream, root + "/pass-" + std::to_string(half) + "-" +
                               std::to_string(pass++),
                  &all, &out);
      if (!answers.has_value()) {
        out.Fail("live answers unavailable after a pass");
        break;
      }
      pass_answers.push_back(std::move(*answers));
    }
    if (half == 0) untraced_acks = all.ack_ms.size();
  }
  SpanRecorder::Global().set_enabled(false);
  RemoveTree(root);
  if (args.trace) {
    const auto split = all.ack_ms.begin() +
                       static_cast<std::ptrdiff_t>(untraced_acks);
    out.Add("obs.trace_overhead",
            MeanBelow(std::vector<double>(split, all.ack_ms.end()),
                      kTailQuantile) -
                MeanBelow(std::vector<double>(all.ack_ms.begin(), split),
                          kTailQuantile),
            "ms");
  }
  const double peak_rss = PeakRssMb();

  // Output gate: every pass's final answers equal the same deep-dives on a
  // batch build of the ingested events.
  const ExperimentBsiData batch_built =
      BuildExperimentBsiData(stream->dataset, true);
  const std::optional<std::vector<QueryResult>> want =
      AnswerAll(batch_built, stream->queries);
  for (const std::vector<QueryResult>& got : pass_answers) {
    ++out.attempted;
    if (!want.has_value() || !SameAnswers(got, *want)) {
      out.Fail("live store answers differ from a batch build of the events");
    }
  }

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("throughput_per_s", Median(all.events_per_s), "1/s");
  out.Add("latency_ms", Median(all.ack_mean_ms), "ms");
  out.Add("latency_tail_ms", Median(all.tail_ms), "ms");
  out.Add("read_p50_ms", Median(all.live_p50_ms), "ms");
  out.Add("cpu_ms_per_op", Median(all.cpu_ms_per_batch), "ms");
  out.Add("bytes_per_op", Median(all.bytes_per_event), "B");
  out.Add("peak_rss_mb", peak_rss, "MB");
  out.Info("op", "Ingest() of one 512-event batch");
  out.Info("loop", "closed, one ingest thread");
  out.Info("flush_policy",
           "WAL to the page cache (sync_each_append=false); fsync at "
           "checkpoints, segment rolls and close");
  out.Info("passes", static_cast<double>(pass_answers.size()));
  out.Info("events_per_pass", static_cast<double>(stream->events));
  out.Info("batches_per_pass", static_cast<double>(stream->batches.size()));
  out.Info("live_queries", static_cast<double>(all.live_ms.size()));
  out.Info("batches", static_cast<double>(all.batches));
  return out;
}

void ReplayIngest(const Args& args, bool home, Outcome* out) {
  const std::unique_ptr<Stream> stream = BuildStream(args.seed);
  const size_t head = std::min<size_t>(stream->batches.size(), 1536);
  const size_t tail = std::min<size_t>(stream->batches.size() - head, 256);
  const std::string root =
      args.out_dir + "/ingest-replay-" + std::to_string(::getpid());
  if (!ResetDir(root + "/wal") || !ResetDir(root + "/store-wal") ||
      !ResetDir(root + "/store-snap")) {
    out->Fail("cannot prepare " + root);
    return;
  }
  SpanRecorder& rec = SpanRecorder::Global();
  rec.set_enabled(true);

  // A second WalWriter plus DeltaBuilder fed the same batches: the two
  // halves of IngestStore::Ingest, timed apart.
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(root + "/wal", BenchWalOptions());
  if (!writer.ok()) {
    out->Fail("replay WAL open failed");
    rec.set_enabled(false);
    return;
  }
  ExperimentBsiData live;
  live.num_segments = kSegments;
  live.bucket_equals_segment = true;
  live.segments.resize(kSegments);
  DeltaBuilder builder(kSegments, 0, true);
  uint64_t events = 0;
  std::vector<double> roll_ns;  // appends that rolled to a new segment
  for (size_t b = 0; b < head; ++b) {
    SpanRecorder::BeginOp(b + 1);
    ++out->attempted;
    WalRecord record;
    const uint64_t segment = writer.value()->active_first_sequence();
    const uint64_t append_ns = TimedSpan("wal_append", [&] {
      Result<uint64_t> seq = writer.value()->Append(stream->batches[b]);
      if (seq.ok()) record.sequence = seq.value();
    });
    if (writer.value()->active_first_sequence() != segment) {
      roll_ns.push_back(static_cast<double>(append_ns));
    }
    if (record.sequence == 0) {
      out->Fail("replay WAL append failed");
      continue;
    }
    record.events = stream->batches[b];
    events += record.events.size();
    TimedSpan("delta_merge", [&] {
      builder.AddRecord(record);
      builder.MergeInto(&live);
    });
    if ((b + 1) % kQueryEvery == 0) {
      std::optional<Query> query;
      TimedSpan("parse", [&] {
        Result<Query> q = ParseQuery(stream->queries[b % kNumQueries]);
        if (q.ok()) query.emplace(std::move(q).value());
      });
      ++out->attempted;
      if (!query.has_value()) {
        out->Fail("deep-dive failed to parse");
        continue;
      }
      TimedSpan("execute", [&] {
        if (!ExecuteQuery(live, *query).ok()) out->Fail("deep-dive failed");
      });
    }
  }
  const double append_us = rec.Self("wal_append").mean_us();
  const double merge_us = rec.Self("delta_merge").mean_us();
  out->Add("wal.append_us", append_us, "us");
  out->Add("wal.roll_append_us", Mean(roll_ns) / 1e3, "us");
  // What fsync per record (the WalOptions default) would add to each ack:
  // a third writer, each append followed by an explicit Sync.
  {
    Result<std::unique_ptr<WalWriter>> synced =
        WalWriter::Open(root + "/wal-synced", BenchWalOptions());
    constexpr size_t kSyncedRecords = 256;
    for (size_t b = 0; synced.ok() && b < kSyncedRecords && b < head; ++b) {
      ++out->attempted;
      if (!synced.value()->Append(stream->batches[b]).ok()) {
        out->Fail("fsync probe append failed");
        continue;
      }
      TimedSpan("wal_fsync", [&] {
        if (!synced.value()->Sync().ok()) out->Fail("fsync probe failed");
      });
    }
    if (!synced.ok()) out->Fail("fsync probe WAL open failed");
  }
  out->Add("wal.fsync_us", rec.Self("wal_fsync").mean_us(), "us");
  out->Info("wal.rolls", static_cast<double>(roll_ns.size()));
  out->Add("wal.bytes_per_event",
           static_cast<double>(DirBytes(root + "/wal")) /
               static_cast<double>(std::max<uint64_t>(events, 1)),
           "B");
  out->Add("wal.delta_merge_us", merge_us, "us");
  out->Add("query.parse_us", rec.Self("parse").mean_us(), "us");
  out->Add("query.execute_ms", rec.Self("execute").mean_us() / 1e3, "ms");

  // The store itself over the same head: its Ingest() per batch, one
  // checkpoint, an uncheckpointed tail and the replay recovery would run.
  Result<std::unique_ptr<IngestStore>> store = IngestStore::Open(
      root + "/store-wal", root + "/store-snap", StoreOptions());
  if (!store.ok()) {
    out->Fail("replay store open failed");
    rec.set_enabled(false);
    return;
  }
  for (size_t b = 0; b < head; ++b) {
    SpanRecorder::BeginOp(b + 1);
    TimedSpan("store_ingest", [&] {
      if (!store.value()->Ingest(stream->batches[b]).ok()) {
        out->Fail("replay store ingest failed");
      }
    });
  }
  ++out->attempted;
  const std::optional<std::vector<QueryResult>> store_answers =
      AnswerAll(store.value()->data(), stream->queries);
  const std::optional<std::vector<QueryResult>> replay_answers =
      AnswerAll(live, stream->queries);
  if (!store_answers.has_value() || !replay_answers.has_value() ||
      !SameAnswers(*store_answers, *replay_answers)) {
    out->Fail("writer+builder replay answers differ from the store's");
  }
  std::optional<IngestCheckpointStats> checkpoint;
  TimedSpan("checkpoint", [&] {
    Result<IngestCheckpointStats> c = store.value()->Checkpoint();
    if (c.ok()) checkpoint = c.value();
  });
  ++out->attempted;
  if (!checkpoint.has_value()) out->Fail("replay checkpoint failed");
  out->Add("storage.checkpoint_ms", rec.Self("checkpoint").mean_us() / 1e3,
           "ms");
  out->Add("storage.snapshot_bytes",
           checkpoint.has_value()
               ? static_cast<double>(checkpoint->snapshot.bytes_written)
               : 0.0,
           "B");
  for (size_t b = head; b < head + tail; ++b) {
    if (!store.value()->Ingest(stream->batches[b]).ok()) {
      out->Fail("replay store tail ingest failed");
    }
  }
  store.value().reset();  // dropped without a final checkpoint
  SyncTree(root);
  WalRecoveryReport report;
  ++out->attempted;
  TimedSpan("wal_replay", [&] {
    if (!ReplayWal(root + "/store-wal", &report).ok()) {
      out->Fail("ReplayWal failed");
    }
  });
  out->Add("wal.replay_ms", rec.Self("wal_replay").mean_us() / 1e3, "ms");
  out->Info("wal.replay_records", static_cast<double>(report.records_replayed));

  // The full recovery: newest snapshot, then the WAL tail merged on top.
  constexpr int kRecoveries = 3;
  for (int i = 0; i < kRecoveries; ++i) {
    ++out->attempted;
    std::unique_ptr<IngestStore> reopened;
    TimedSpan("recover", [&] {
      Result<std::unique_ptr<IngestStore>> r = IngestStore::Open(
          root + "/store-wal", root + "/store-snap", StoreOptions());
      if (r.ok()) reopened = std::move(r).value();
    });
    if (reopened == nullptr || reopened->last_sequence() != head + tail) {
      out->Fail("replay store recovery lost acked records");
    }
  }
  out->Add("storage.recover_ms",
           rec.Self("recover").mean_us() / 1e3, "ms");

  if (home) {
    ContainerMix mix;
    for (const SegmentBsiData& sbd : live.segments) {
      for (const auto& [key, metric] : sbd.metrics) mix.AddSlices(metric.value);
      for (const auto& [key, dim] : sbd.dimensions) mix.AddSlices(dim.value);
      for (const auto& [id, expose] : sbd.expose) mix.AddSlices(expose.offset);
    }
    mix.Report(out);
    // One Ingest() = its WAL append plus its delta merge; the rest is
    // IngestStore bookkeeping.
    const double op_ms = rec.Self("store_ingest").mean_us() / 1e3;
    const double covered = (append_us + merge_us) / 1e3;
    out->Add("obs.op_ms", op_ms, "ms");
    out->Add("obs.covered_ms", covered, "ms");
    out->Add("obs.uncovered_ms", op_ms - covered, "ms");
    out->Info("breakdown",
              "one Ingest() of a 512-event batch: WalWriter::Append + "
              "DeltaBuilder::AddRecord/MergeInto, timed on a second writer");
  }
  rec.set_enabled(false);
  RemoveTree(root);
}

}  // namespace perfbench
