// Streaming-ingestion tests (DESIGN.md §8): WAL segment naming and framing,
// append/replay round-trip bit-identity, torn-tail and bitflip recovery
// taxonomy, repair-on-open, checkpoint trimming, the wal.append / wal.fsync /
// wal.roll fault-site semantics, Bsi::MergeAppend, PositionEncoder
// serialization, the deterministic event-stream ordering contract, the
// DeltaBuilder's incremental == batch guarantee, and the IngestStore's
// snapshot+WAL point-in-time recovery.
//
// The randomized ingest-vs-oracle sweeps live in wal_differential_test.cc and
// the kill-at-every-record chaos sweeps in chaos_test.cc; this file is the
// deterministic, named-scenario layer.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "cluster/adhoc_cluster.h"
#include "cluster/precompute_pipeline.h"
#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/status.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "expdata/position_encoder.h"
#include "expdata/segmenter.h"
#include "obs/metrics.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"
#include "wal/delta_builder.h"
#include "wal/event_stream.h"
#include "wal/ingest_store.h"
#include "wal/wal.h"

namespace expbsi {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "expbsi_" + name;
  EXPECT_TRUE(fileio::CreateDirIfMissing(dir).ok());
  const Result<std::vector<std::string>> entries = fileio::ListDir(dir);
  EXPECT_TRUE(entries.ok());
  for (const std::string& entry : entries.value()) {
    EXPECT_TRUE(fileio::RemoveFileIfExists(dir + "/" + entry).ok());
  }
  return dir;
}

WalEvent MakeEvent(WalEventKind kind, uint64_t id, UnitId unit, Date date,
                   uint64_t value, UnitId randomization = 0) {
  WalEvent event;
  event.kind = kind;
  event.id = id;
  event.analysis_unit_id = unit;
  event.randomization_unit_id = randomization;
  event.date = date;
  event.value = value;
  return event;
}

// Deterministic varied-field record payloads (tag differentiates records).
std::vector<WalEvent> MakeEvents(int count, uint64_t tag) {
  std::vector<WalEvent> events;
  for (int i = 0; i < count; ++i) {
    events.push_back(MakeEvent(
        static_cast<WalEventKind>(i % 3), /*id=*/500 + tag,
        /*unit=*/tag * 1000 + i, /*date=*/static_cast<Date>(10 + i),
        /*value=*/i == 0 ? ~0ull : tag * 7 + i, /*randomization=*/tag));
  }
  return events;
}

std::string OnlySegmentPath(const std::string& dir) {
  const Result<std::vector<std::string>> entries = fileio::ListDir(dir);
  EXPECT_TRUE(entries.ok());
  std::vector<std::string> segments;
  for (const std::string& name : entries.value()) {
    uint64_t first = 0;
    if (ParseWalSegmentFileName(name, &first)) segments.push_back(name);
  }
  EXPECT_EQ(segments.size(), 1u);
  return dir + "/" + segments[0];
}

int CountSegments(const std::string& dir) {
  const Result<std::vector<std::string>> entries = fileio::ListDir(dir);
  EXPECT_TRUE(entries.ok());
  int n = 0;
  for (const std::string& name : entries.value()) {
    uint64_t first = 0;
    if (ParseWalSegmentFileName(name, &first)) ++n;
  }
  return n;
}

// Writes three records with 1, 2 and 3 events into one segment and returns
// its raw bytes plus the appended records. Byte layout (record size is
// kWalRecordHeaderBytes + count * kWalEventBytes + 4 = 24 + 37 * count):
//   [0, 20)    segment header
//   [20, 81)   record 1 (1 event, 61 bytes)
//   [81, 179)  record 2 (2 events, 98 bytes)
//   [179, 314) record 3 (3 events, 135 bytes)
std::string WriteThreeRecordSegment(const std::string& dir,
                                    std::vector<WalRecord>* appended) {
  WalOptions options;
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
  EXPECT_TRUE(writer.ok());
  appended->clear();
  for (int count = 1; count <= 3; ++count) {
    WalRecord record;
    record.events = MakeEvents(count, /*tag=*/count);
    Result<uint64_t> seq = writer.value()->Append(record.events);
    EXPECT_TRUE(seq.ok());
    record.sequence = seq.value();
    appended->push_back(std::move(record));
  }
  writer.value().reset();
  const std::string path = OnlySegmentPath(dir);
  Result<std::string> bytes = fileio::ReadFileToString(path, 1u << 20);
  EXPECT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().size(), 314u);
  return bytes.value();
}

void ExpectRecordsEq(const std::vector<WalRecord>& got,
                     const std::vector<WalRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sequence, want[i].sequence) << "record " << i;
    EXPECT_EQ(got[i].events, want[i].events) << "record " << i;
  }
}

void ExpectBucketValuesEq(const BucketValues& got, const BucketValues& want) {
  EXPECT_EQ(got.sums, want.sums);
  EXPECT_EQ(got.counts, want.counts);
}

// Small dataset with two strategies, two metrics and a dimension -- enough
// to exercise every event kind through the delta path.
Dataset MakeSmallDataset(uint64_t seed, int num_segments, int num_buckets,
                         bool bucket_equals_segment) {
  DatasetConfig config;
  config.num_users = 60;
  config.num_segments = num_segments;
  config.num_buckets = num_buckets;
  config.bucket_equals_segment = bucket_equals_segment;
  config.start_date = 10;
  config.num_days = 3;
  config.seed = seed;
  ExperimentConfig experiment;
  experiment.strategy_ids = {901, 902};
  experiment.arm_effects = {1.0, 1.15};
  experiment.traffic_fraction = 0.9;
  MetricConfig metric_a;
  metric_a.metric_id = 601;
  metric_a.value_range = 50;
  MetricConfig metric_b;
  metric_b.metric_id = 602;
  metric_b.value_range = 8;
  metric_b.daily_participation = 0.5;
  DimensionConfig dim;
  dim.dimension_id = 11;
  dim.cardinality = 4;
  return GenerateDataset(config, {experiment}, {metric_a, metric_b}, {dim});
}

ExperimentBsiData MakeEmptyShaped(int num_segments, int num_buckets,
                                  bool bucket_equals_segment) {
  ExperimentBsiData data;
  data.num_segments = num_segments;
  data.num_buckets = num_buckets;
  data.bucket_equals_segment = bucket_equals_segment;
  data.segments.resize(num_segments);
  return data;
}

// Replays the dataset's event stream through a DeltaBuilder in batches of
// `batch_events` and merges after every batch.
ExperimentBsiData IngestThroughDeltas(const Dataset& dataset,
                                      size_t batch_events) {
  const std::vector<WalEvent> events = MakeWalEventStream(dataset);
  DeltaBuilder builder(dataset.config.num_segments, dataset.config.num_buckets,
                       dataset.config.bucket_equals_segment);
  ExperimentBsiData data =
      MakeEmptyShaped(dataset.config.num_segments, dataset.config.num_buckets,
                      dataset.config.bucket_equals_segment);
  for (const std::vector<WalEvent>& batch :
       BatchWalEvents(events, batch_events)) {
    for (const WalEvent& event : batch) builder.Add(event);
    builder.MergeInto(&data);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Segment file names
// ---------------------------------------------------------------------------

TEST(WalSegmentNameTest, RoundTrip) {
  EXPECT_EQ(WalSegmentFileName(0x1234), "wal-0000000000001234.log");
  for (uint64_t seq : {0ull, 1ull, 255ull, 0xdeadbeefull, ~0ull}) {
    uint64_t parsed = 0;
    EXPECT_TRUE(ParseWalSegmentFileName(WalSegmentFileName(seq), &parsed));
    EXPECT_EQ(parsed, seq);
  }
}

TEST(WalSegmentNameTest, RejectsNonSegmentNames) {
  uint64_t parsed = 0;
  EXPECT_FALSE(ParseWalSegmentFileName("", &parsed));
  EXPECT_FALSE(ParseWalSegmentFileName("wal-123.log", &parsed));  // short hex
  EXPECT_FALSE(ParseWalSegmentFileName("wal-000000000000123z.log", &parsed));
  EXPECT_FALSE(ParseWalSegmentFileName("wal-0000000000001234.tmp", &parsed));
  EXPECT_FALSE(ParseWalSegmentFileName("snap-0000000000001234.log", &parsed));
  EXPECT_FALSE(
      ParseWalSegmentFileName("wal-00000000000012345.log", &parsed));
}

// ---------------------------------------------------------------------------
// Append / replay round trip
// ---------------------------------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string dir = FreshDir("wal_roundtrip");
  WalOptions options;
  WalRecoveryReport open_report;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, options, &open_report);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE(open_report.clean());
  EXPECT_EQ(writer.value()->next_sequence(), 1u);

  std::vector<WalRecord> appended;
  for (int count : {1, 0, 3}) {  // an empty-events record is legal
    WalRecord record;
    record.events = MakeEvents(count, static_cast<uint64_t>(count));
    Result<uint64_t> seq = writer.value()->Append(record.events);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    record.sequence = seq.value();
    appended.push_back(std::move(record));
  }
  EXPECT_EQ(appended[0].sequence, 1u);
  EXPECT_EQ(appended[2].sequence, 3u);
  EXPECT_TRUE(writer.value()->Sync().ok());
  writer.value().reset();

  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  ExpectRecordsEq(replayed.value(), appended);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.segments_scanned, 1u);
  EXPECT_EQ(report.records_replayed, 3u);
  EXPECT_EQ(report.events_replayed, 4u);
  EXPECT_EQ(report.last_sequence, 3u);
  EXPECT_GT(report.bytes_replayed, kWalSegmentHeaderBytes);
}

TEST(WalTest, ReopenContinuesSequence) {
  const std::string dir = FreshDir("wal_reopen");
  WalOptions options;
  std::vector<WalRecord> appended;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t tag : {1u, 2u}) {
      WalRecord record;
      record.events = MakeEvents(2, tag);
      Result<uint64_t> seq = writer.value()->Append(record.events);
      ASSERT_TRUE(seq.ok());
      record.sequence = seq.value();
      appended.push_back(std::move(record));
    }
  }
  WalRecoveryReport report;
  std::vector<WalRecord> replayed;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, options, &report, &replayed);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(report.clean());
  ExpectRecordsEq(replayed, appended);
  EXPECT_EQ(writer.value()->next_sequence(), 3u);
  EXPECT_EQ(writer.value()->active_first_sequence(), 3u);

  WalRecord third;
  third.events = MakeEvents(1, 3);
  Result<uint64_t> seq = writer.value()->Append(third.events);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 3u);
  third.sequence = 3;
  appended.push_back(std::move(third));
  writer.value().reset();

  Result<std::vector<WalRecord>> final_replay = ReplayWal(dir, &report);
  ASSERT_TRUE(final_replay.ok());
  EXPECT_TRUE(report.clean());
  ExpectRecordsEq(final_replay.value(), appended);
}

TEST(WalTest, RollsSegmentsAtSizeThreshold) {
  const std::string dir = FreshDir("wal_roll");
  WalOptions options;
  options.segment_bytes = 160;  // header (20) + two 61-byte records > 160
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  std::vector<WalRecord> appended;
  for (uint64_t tag = 1; tag <= 5; ++tag) {
    WalRecord record;
    record.events = MakeEvents(1, tag);
    Result<uint64_t> seq = writer.value()->Append(record.events);
    ASSERT_TRUE(seq.ok());
    record.sequence = seq.value();
    appended.push_back(std::move(record));
  }
  EXPECT_GT(writer.value()->active_first_sequence(), 1u);
  writer.value().reset();
  EXPECT_GE(CountSegments(dir), 2);

  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.segments_scanned, 2u);
  ExpectRecordsEq(replayed.value(), appended);
}

TEST(WalTest, EmptyTrailingSegmentPinsSequenceFloor) {
  const std::string dir = FreshDir("wal_floor");
  WalOptions options;
  options.segment_bytes = 160;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t tag = 1; tag <= 5; ++tag) {
      ASSERT_TRUE(writer.value()->Append(MakeEvents(1, tag)).ok());
    }
  }
  {
    // Reopen starts an (empty) active segment at sequence 6, then the trim
    // removes every covered earlier segment. The record-less survivor must
    // still pin the floor: its name promises sequences >= 6.
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer.value()->active_first_sequence(), 6u);
    Result<uint32_t> removed = writer.value()->TruncateThrough(5);
    ASSERT_TRUE(removed.ok());
    EXPECT_GT(removed.value(), 0u);
  }
  EXPECT_EQ(CountSegments(dir), 1);
  WalRecoveryReport report;
  std::vector<WalRecord> replayed;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, options, &report, &replayed);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(report.last_sequence, 5u);
  EXPECT_EQ(writer.value()->next_sequence(), 6u);
}

// ---------------------------------------------------------------------------
// Torn tails and bit rot
// ---------------------------------------------------------------------------

TEST(WalTest, TruncationSweepRecoversExactPrefix) {
  const std::string dir = FreshDir("wal_trunc_src");
  std::vector<WalRecord> appended;
  const std::string clean = WriteThreeRecordSegment(dir, &appended);
  // Record boundaries (offsets where a cut is a clean shorter log).
  const std::vector<size_t> boundaries = {20, 81, 179, 314};

  const std::string scratch = FreshDir("wal_trunc");
  const std::string path = scratch + "/" + WalSegmentFileName(1);
  for (size_t cut = 0; cut <= clean.size(); ++cut) {
    ASSERT_TRUE(
        fileio::WriteFileAtomic(path, clean.substr(0, cut)).ok());
    WalRecoveryReport report;
    Result<std::vector<WalRecord>> replayed = ReplayWal(scratch, &report);
    ASSERT_TRUE(replayed.ok()) << "cut " << cut;
    size_t expect_records = 0;
    for (size_t b : boundaries) {
      if (b != 20 && cut >= b) ++expect_records;
    }
    EXPECT_EQ(replayed.value().size(), expect_records) << "cut " << cut;
    for (size_t i = 0; i < replayed.value().size(); ++i) {
      EXPECT_EQ(replayed.value()[i].events, appended[i].events)
          << "cut " << cut;
    }
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    if (at_boundary) {
      EXPECT_TRUE(report.clean()) << "cut " << cut;
    } else {
      EXPECT_TRUE(report.tail_torn) << "cut " << cut;
      EXPECT_FALSE(report.errors.empty()) << "cut " << cut;
    }
    if (cut < kWalSegmentHeaderBytes) {
      ASSERT_EQ(report.errors.size(), 1u);
      EXPECT_NE(report.errors[0].find("truncated segment header"),
                std::string::npos)
          << "cut " << cut;
    }
  }
}

TEST(WalTest, BitflipSweepNeverReplaysACorruptRecord) {
  const std::string dir = FreshDir("wal_flip_src");
  std::vector<WalRecord> appended;
  const std::string clean = WriteThreeRecordSegment(dir, &appended);

  const std::string scratch = FreshDir("wal_flip");
  const std::string path = scratch + "/" + WalSegmentFileName(1);
  for (size_t offset = 0; offset < clean.size(); ++offset) {
    std::string bytes = clean;
    bytes[offset] = static_cast<char>(
        static_cast<uint8_t>(bytes[offset]) ^ (1u << (offset % 8)));
    ASSERT_TRUE(fileio::WriteFileAtomic(path, bytes).ok());
    WalRecoveryReport report;
    Result<std::vector<WalRecord>> replayed = ReplayWal(scratch, &report);
    ASSERT_TRUE(replayed.ok()) << "offset " << offset;
    // CRC32C catches every single-bit flip: the flipped record (segment
    // header, record header or payload) never replays, and everything
    // before it replays bit-identically.
    size_t expect_records = 0;
    if (offset >= 81) ++expect_records;
    if (offset >= 179) ++expect_records;
    ASSERT_EQ(replayed.value().size(), expect_records) << "offset " << offset;
    for (size_t i = 0; i < replayed.value().size(); ++i) {
      EXPECT_EQ(replayed.value()[i].events, appended[i].events)
          << "offset " << offset;
    }
    EXPECT_TRUE(report.tail_torn) << "offset " << offset;
    EXPECT_FALSE(report.errors.empty()) << "offset " << offset;
  }
}

TEST(WalTest, OpenRepairsTornTailAndContinues) {
  const std::string dir = FreshDir("wal_repair");
  std::vector<WalRecord> appended;
  const std::string clean = WriteThreeRecordSegment(dir, &appended);
  // Tear mid-record-3.
  const std::string path = OnlySegmentPath(dir);
  ASSERT_TRUE(fileio::WriteFileAtomic(path, clean.substr(0, 200)).ok());

  WalOptions options;
  WalRecoveryReport report;
  std::vector<WalRecord> replayed;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, options, &report, &replayed);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE(report.tail_torn);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(writer.value()->next_sequence(), 3u);

  WalRecord fresh;
  fresh.events = MakeEvents(2, /*tag=*/9);
  Result<uint64_t> seq = writer.value()->Append(fresh.events);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 3u);
  fresh.sequence = 3;
  writer.value().reset();

  // After the repair the log is clean end to end: the two intact records,
  // then the replacement for the torn one.
  WalRecoveryReport final_report;
  Result<std::vector<WalRecord>> final_replay =
      ReplayWal(dir, &final_report);
  ASSERT_TRUE(final_replay.ok());
  EXPECT_TRUE(final_report.clean());
  std::vector<WalRecord> want = {appended[0], appended[1], fresh};
  ExpectRecordsEq(final_replay.value(), want);
}

TEST(WalTest, MidLogTearDropsLaterSegmentsExplicitly) {
  const std::string dir = FreshDir("wal_midtear");
  WalOptions options;
  options.segment_bytes = 160;
  std::vector<WalRecord> appended;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t tag = 1; tag <= 6; ++tag) {
      WalRecord record;
      record.events = MakeEvents(1, tag);
      Result<uint64_t> seq = writer.value()->Append(record.events);
      ASSERT_TRUE(seq.ok());
      record.sequence = seq.value();
      appended.push_back(std::move(record));
    }
  }
  ASSERT_GE(CountSegments(dir), 3);

  // Flip a payload byte of the FIRST segment's second record (each segment
  // holds two 61-byte records; the second spans [81, 142)).
  const std::string first_path = dir + "/" + WalSegmentFileName(1);
  Result<std::string> bytes = fileio::ReadFileToString(first_path, 1u << 20);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = bytes.value();
  ASSERT_GT(corrupt.size(), 120u);
  corrupt[120] = static_cast<char>(static_cast<uint8_t>(corrupt[120]) ^ 0x10);
  ASSERT_TRUE(fileio::WriteFileAtomic(first_path, corrupt).ok());

  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed.value().size(), 1u);
  EXPECT_EQ(replayed.value()[0].events, appended[0].events);
  EXPECT_TRUE(report.tail_torn);
  EXPECT_GE(report.segments_dropped, 2u);
  bool found_dropped = false;
  for (const std::string& error : report.errors) {
    if (error.find("dropped (follows the torn segment)") !=
        std::string::npos) {
      found_dropped = true;
    }
  }
  EXPECT_TRUE(found_dropped);

  // Open repairs down to the intact prefix; the dropped sequences are
  // reissued and the log is clean again.
  std::vector<WalRecord> reopened_records;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, options, &report, &reopened_records);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_EQ(reopened_records.size(), 1u);
  EXPECT_EQ(writer.value()->next_sequence(), 2u);
  ASSERT_TRUE(writer.value()->Append(MakeEvents(1, 99)).ok());
  writer.value().reset();
  Result<std::vector<WalRecord>> final_replay = ReplayWal(dir, &report);
  ASSERT_TRUE(final_replay.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(final_replay.value().size(), 2u);
}

TEST(WalTest, TruncateThroughKeepsUncoveredAndActiveSegments) {
  const std::string dir = FreshDir("wal_trim");
  WalOptions options;
  options.segment_bytes = 160;  // two 61-byte records per segment
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (uint64_t tag = 1; tag <= 6; ++tag) {
    ASSERT_TRUE(writer.value()->Append(MakeEvents(1, tag)).ok());
  }
  const int before = CountSegments(dir);
  ASSERT_GE(before, 3);

  // Sequence 3 is mid-segment-2 (records 3..4): only segment 1 (records
  // 1..2) is fully covered.
  Result<uint32_t> removed = writer.value()->TruncateThrough(3);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 1u);

  // Everything is covered, but the active segment must survive.
  removed = writer.value()->TruncateThrough(1000);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(CountSegments(dir), 1);
  writer.value().reset();

  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  ASSERT_FALSE(replayed.value().empty());
  EXPECT_EQ(replayed.value().back().sequence, 6u);
  EXPECT_EQ(report.last_sequence, 6u);
}

// ---------------------------------------------------------------------------
// Fault-site semantics (wal.append / wal.fsync / wal.roll)
// ---------------------------------------------------------------------------

TEST(WalFaultTest, AppendFailIsACleanRejectThatKeepsTheSequence) {
  const std::string dir = FreshDir("wal_fault_append_fail");
  FaultInjector injector(/*seed=*/1);
  injector.ScheduleFault(fault_sites::kWalAppend, 1, FaultKind::kFail);
  ScopedFaultInjection scoped(&injector);

  WalOptions options;
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(MakeEvents(1, 1)).ok());
  Result<uint64_t> rejected = writer.value()->Append(MakeEvents(1, 2));
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(writer.value()->dead());
  EXPECT_EQ(writer.value()->next_sequence(), 2u);
  // The retry gets the sequence the rejected append never consumed.
  Result<uint64_t> retried = writer.value()->Append(MakeEvents(1, 3));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 2u);
  writer.value().reset();

  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(replayed.value().size(), 2u);
}

TEST(WalFaultTest, AppendCrashLeavesAReplayableExactPrefix) {
  const std::string dir = FreshDir("wal_fault_append_crash");
  std::vector<WalRecord> appended;
  {
    FaultInjector injector(/*seed=*/7);
    injector.ScheduleFault(fault_sites::kWalAppend, 1, FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    WalOptions options;
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    WalRecord first;
    first.events = MakeEvents(2, 1);
    first.sequence = 1;
    ASSERT_TRUE(writer.value()->Append(first.events).ok());
    appended.push_back(first);
    WalRecord second;
    second.events = MakeEvents(2, 2);
    second.sequence = 2;
    EXPECT_FALSE(writer.value()->Append(second.events).ok());
    EXPECT_TRUE(writer.value()->dead());
    appended.push_back(second);
    // A dead writer rejects everything from here on.
    EXPECT_FALSE(writer.value()->Append(MakeEvents(1, 3)).ok());
    EXPECT_FALSE(writer.value()->Sync().ok());
  }
  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  // The torn prefix of record 2 either fails its CRC (replay = [1]) or --
  // when the deterministic torn length happens to cover the whole record --
  // replays intact. Never anything else: an exact prefix of what was
  // appended, bit for bit.
  ASSERT_GE(replayed.value().size(), 1u);
  ASSERT_LE(replayed.value().size(), 2u);
  for (size_t i = 0; i < replayed.value().size(); ++i) {
    EXPECT_EQ(replayed.value()[i].sequence, appended[i].sequence);
    EXPECT_EQ(replayed.value()[i].events, appended[i].events);
  }
}

TEST(WalFaultTest, FsyncCrashStillDurableForTheFlushedRecord) {
  const std::string dir = FreshDir("wal_fault_fsync");
  std::vector<WalRecord> appended;
  {
    FaultInjector injector(/*seed=*/11);
    injector.ScheduleFault(fault_sites::kWalFsync, 1, FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    WalOptions options;  // sync_each_append: one barrier per record
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    WalRecord first;
    first.events = MakeEvents(1, 1);
    first.sequence = 1;
    ASSERT_TRUE(writer.value()->Append(first.events).ok());
    appended.push_back(first);
    WalRecord second;
    second.events = MakeEvents(3, 2);
    second.sequence = 2;
    EXPECT_FALSE(writer.value()->Append(second.events).ok());
    EXPECT_TRUE(writer.value()->dead());
    appended.push_back(second);
  }
  // The record's bytes were flushed before the barrier died, so replay
  // recovers THROUGH it -- the fsync-kill invariant.
  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  ExpectRecordsEq(replayed.value(), appended);
}

TEST(WalFaultTest, LoneAppenderGetsOneBarrierPerSyncedRecord) {
  // With one appender nothing is batched: each synced append leads its own
  // barrier, one fsync and one wal.fsync evaluation per record -- the
  // op-by-op schedule the chaos sweeps replay ("op k dies during batch k").
  const std::string dir = FreshDir("wal_fault_lone_barriers");
  constexpr uint64_t kAppends = 5;
  FaultInjector injector(/*seed=*/19);
  // Op kAppends is the (kAppends + 1)-th barrier: it fires on the next
  // append only if each earlier append evaluated wal.fsync exactly once.
  injector.ScheduleFault(fault_sites::kWalFsync, kAppends, FaultKind::kFail);
  ScopedFaultInjection scoped(&injector);

  WalOptions options;  // sync_each_append
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_EQ(injector.stats().evaluations, 1u);  // wal.roll op 0
  for (uint64_t tag = 1; tag <= kAppends; ++tag) {
    ASSERT_TRUE(writer.value()->Append(MakeEvents(2, tag)).ok());
    EXPECT_EQ(writer.value()->fsyncs_performed(), tag);
    // One wal.append and one wal.fsync evaluation per record.
    EXPECT_EQ(injector.stats().evaluations, 1 + 2 * tag);
  }
  EXPECT_EQ(injector.stats().any(), 0u);
  EXPECT_FALSE(writer.value()->Append(MakeEvents(2, kAppends + 1)).ok());
  EXPECT_TRUE(writer.value()->dead());
  EXPECT_EQ(injector.stats().fails, 1u);
  EXPECT_EQ(writer.value()->fsyncs_performed(), kAppends);
}

TEST(WalFaultTest, UnsyncedAppendsShareOneExplicitSync) {
  const std::string dir = FreshDir("wal_fault_unsynced_sync");
  constexpr uint64_t kAppends = 6;
  FaultInjector injector(/*seed=*/23);
  ScopedFaultInjection scoped(&injector);

  WalOptions options;
  options.sync_each_append = false;
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (uint64_t tag = 1; tag <= kAppends; ++tag) {
    ASSERT_TRUE(writer.value()->Append(MakeEvents(1, tag)).ok());
  }
  EXPECT_EQ(writer.value()->fsyncs_performed(), 0u);
  // wal.roll op 0 plus one wal.append per record; no barrier yet.
  EXPECT_EQ(injector.stats().evaluations, 1 + kAppends);

  ASSERT_TRUE(writer.value()->Sync().ok());
  EXPECT_EQ(writer.value()->fsyncs_performed(), 1u);
  EXPECT_EQ(injector.stats().evaluations, 2 + kAppends);
  // Nothing is pending: a second Sync issues no barrier at all.
  ASSERT_TRUE(writer.value()->Sync().ok());
  EXPECT_EQ(writer.value()->fsyncs_performed(), 1u);
  EXPECT_EQ(injector.stats().evaluations, 2 + kAppends);
  writer.value().reset();

  WalRecoveryReport report;
  const Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(replayed.value().size(), kAppends);
}

// ---------------------------------------------------------------------------
// Group commit: the writer's one barrier lets concurrent appends share
// fsyncs, and the acked-prefix durability contract is the one a lone
// appender gets -- Append returns only once its record is on disk, and a
// record whose barrier died was flushed first, so it still replays.
// ---------------------------------------------------------------------------

TEST(WalGroupCommitTest, ConcurrentAppendsAreDurableAndBatchFsyncs) {
  const std::string dir = FreshDir("wal_group_batch");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;

  // A real 2ms stall at every barrier: while one leader is inside its
  // fsync, the other threads write their records and pile up behind it, so
  // the next barrier covers the whole batch. This is what makes the
  // fsync-count assertion below deterministic rather than a scheduling
  // accident.
  FaultInjector injector(/*seed=*/17);
  injector.SetDelayProbability(fault_sites::kWalFsync, 1.0, 0.002);
  ScopedFaultInjection scoped(&injector);

  WalOptions options;  // sync_each_append: acked = durable
  std::map<uint64_t, std::vector<WalEvent>> acked;
  std::mutex acked_mu;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::vector<WalEvent> events =
              MakeEvents(1 + (i % 3), static_cast<uint64_t>(t) * 1000 + i);
          const Result<uint64_t> seq = writer.value()->Append(events);
          if (!seq.ok()) {
            failures.fetch_add(1);
            return;
          }
          std::lock_guard<std::mutex> lock(acked_mu);
          acked[seq.value()] = events;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_EQ(acked.size(), static_cast<size_t>(kThreads * kPerThread));
    // Sequences are dense 1..N: group commit serializes assignment.
    EXPECT_EQ(acked.begin()->first, 1u);
    EXPECT_EQ(acked.rbegin()->first,
              static_cast<uint64_t>(kThreads * kPerThread));
    // The point of the feature: far fewer physical barriers than acked
    // appends (each 2ms barrier above accumulates the other threads).
    EXPECT_LT(writer.value()->fsyncs_performed(),
              static_cast<uint64_t>(kThreads * kPerThread) / 2)
        << "group commit did not batch: one fsync per append";
    EXPECT_GE(writer.value()->fsyncs_performed(), 1u);
  }

  // Every acked record replays bit-identically at its acked sequence.
  WalRecoveryReport report;
  const Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(replayed.value().size(), acked.size());
  for (const WalRecord& record : replayed.value()) {
    const auto it = acked.find(record.sequence);
    ASSERT_NE(it, acked.end());
    EXPECT_EQ(record.events, it->second)
        << "sequence " << record.sequence << " diverged";
  }
}

TEST(WalGroupCommitTest, AckedPrefixSurvivesGroupBarrierKill) {
  const std::string dir = FreshDir("wal_group_barrier_kill");
  std::vector<WalRecord> appended;
  {
    FaultInjector injector(/*seed=*/13);
    injector.ScheduleFault(fault_sites::kWalFsync, 3, FaultKind::kFail);
    ScopedFaultInjection scoped(&injector);
    WalOptions options;
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t tag = 1; tag <= 3; ++tag) {
      WalRecord record;
      record.events = MakeEvents(static_cast<int>(tag), tag);
      const Result<uint64_t> seq = writer.value()->Append(record.events);
      ASSERT_TRUE(seq.ok());
      record.sequence = seq.value();
      appended.push_back(std::move(record));
    }
    // The fourth barrier dies AFTER the flush: the append fails and the
    // writer is dead, but the record's bytes are on disk.
    WalRecord fourth;
    fourth.events = MakeEvents(2, 4);
    fourth.sequence = 4;
    EXPECT_FALSE(writer.value()->Append(fourth.events).ok());
    EXPECT_TRUE(writer.value()->dead());
    appended.push_back(std::move(fourth));
    EXPECT_FALSE(writer.value()->Append(MakeEvents(1, 5)).ok())
        << "a dead group-commit writer accepted an append";
  }
  WalRecoveryReport report;
  const Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  ExpectRecordsEq(replayed.value(), appended);
}

TEST(WalGroupCommitTest, ConcurrentAckedRecordsAlwaysReplayAfterBarrierLoss) {
  const std::string dir = FreshDir("wal_group_concurrent_kill");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;

  FaultInjector injector(/*seed=*/29);
  injector.SetFailProbability(fault_sites::kWalFsync, 0.25);
  ScopedFaultInjection scoped(&injector);

  WalOptions options;
  std::map<uint64_t, std::vector<WalEvent>> acked;
  std::mutex acked_mu;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::vector<WalEvent> events =
              MakeEvents(1 + (i % 2), static_cast<uint64_t>(t) * 1000 + i);
          const Result<uint64_t> seq = writer.value()->Append(events);
          if (!seq.ok()) return;  // barrier died; everything acked so far holds
          std::lock_guard<std::mutex> lock(acked_mu);
          acked[seq.value()] = events;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_TRUE(writer.value()->dead())
        << "a 25% barrier failure rate never fired across "
        << kThreads * kPerThread << " appends";
  }

  // Replay is an exact prefix that contains EVERY acked record: an ack is a
  // durability promise no later barrier failure can revoke.
  WalRecoveryReport report;
  const Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  std::map<uint64_t, const WalRecord*> by_sequence;
  for (const WalRecord& record : replayed.value()) {
    by_sequence[record.sequence] = &record;
  }
  for (const auto& [sequence, events] : acked) {
    const auto it = by_sequence.find(sequence);
    ASSERT_NE(it, by_sequence.end())
        << "acked record " << sequence << " vanished after a barrier loss";
    EXPECT_EQ(it->second->events, events)
        << "acked record " << sequence << " replayed with different bytes";
  }
}

TEST(WalFaultTest, RollFailLeavesWriterAliveAndRetries) {
  const std::string dir = FreshDir("wal_fault_roll_fail");
  FaultInjector injector(/*seed=*/3);
  // Roll op 0 is the segment Open starts; op 1 is the first size-triggered
  // roll.
  injector.ScheduleFault(fault_sites::kWalRoll, 1, FaultKind::kFail);
  ScopedFaultInjection scoped(&injector);

  WalOptions options;
  options.segment_bytes = 100;  // every 61-byte record forces a roll
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(MakeEvents(1, 1)).ok());
  Result<uint64_t> rejected = writer.value()->Append(MakeEvents(1, 2));
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(writer.value()->dead());
  EXPECT_EQ(writer.value()->next_sequence(), 2u);
  // The next append retries the roll (op 2, clean) and succeeds with the
  // sequence the failed attempt never consumed.
  Result<uint64_t> retried = writer.value()->Append(MakeEvents(1, 2));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 2u);
  writer.value().reset();

  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(replayed.value().size(), 2u);
}

TEST(WalFaultTest, RollCrashRecoversToTheIntactPrefix) {
  const std::string dir = FreshDir("wal_fault_roll_crash");
  std::vector<WalEvent> first_events = MakeEvents(1, 1);
  {
    FaultInjector injector(/*seed=*/5);
    injector.ScheduleFault(fault_sites::kWalRoll, 1, FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    WalOptions options;
    options.segment_bytes = 100;
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(first_events).ok());
    EXPECT_FALSE(writer.value()->Append(MakeEvents(1, 2)).ok());
    EXPECT_TRUE(writer.value()->dead());
  }
  // Whatever the torn second-segment header looks like, record 1 replays and
  // nothing else does; Open repairs and reissues sequence 2.
  WalRecoveryReport report;
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed.value().size(), 1u);
  EXPECT_EQ(replayed.value()[0].events, first_events);

  WalOptions options;
  options.segment_bytes = 100;
  std::vector<WalRecord> reopened_records;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, options, &report, &reopened_records);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_EQ(reopened_records.size(), 1u);
  EXPECT_EQ(writer.value()->next_sequence(), 2u);
  ASSERT_TRUE(writer.value()->Append(MakeEvents(1, 2)).ok());
  writer.value().reset();
  Result<std::vector<WalRecord>> final_replay = ReplayWal(dir, &report);
  ASSERT_TRUE(final_replay.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(final_replay.value().size(), 2u);
}

// ---------------------------------------------------------------------------
// Bsi::MergeAppend
// ---------------------------------------------------------------------------

TEST(BsiMergeAppendTest, DisjointPositionsMatchTheAdder) {
  const Bsi base = Bsi::FromPairs({{0, 5}, {2, 1023}, {7, 1}});
  const Bsi delta = Bsi::FromPairs({{1, 7}, {3, 4096}, {100000, 2}});
  Bsi merged = base;
  merged.MergeAppend(delta);
  EXPECT_TRUE(merged.Equals(Bsi::Add(base, delta)));
  EXPECT_EQ(merged.Get(2), 1023u);
  EXPECT_EQ(merged.Get(3), 4096u);
  EXPECT_EQ(merged.Cardinality(), 6u);
}

TEST(BsiMergeAppendTest, OverlappingPositionsAdd) {
  const Bsi base = Bsi::FromPairs({{0, 5}, {2, 7}, {9, 1}});
  const Bsi delta = Bsi::FromPairs({{2, 9}, {3, 2}});
  Bsi merged = base;
  merged.MergeAppend(delta);
  EXPECT_TRUE(merged.Equals(Bsi::Add(base, delta)));
  EXPECT_EQ(merged.Get(2), 16u);
  EXPECT_EQ(merged.Get(0), 5u);
  EXPECT_EQ(merged.Get(3), 2u);
}

TEST(BsiMergeAppendTest, EmptyOperands) {
  const Bsi base = Bsi::FromPairs({{4, 11}});
  Bsi merged = base;
  merged.MergeAppend(Bsi());
  EXPECT_TRUE(merged.Equals(base));
  Bsi empty;
  empty.MergeAppend(base);
  EXPECT_TRUE(empty.Equals(base));
}

TEST(BsiMergeAppendTest, ManyDisjointChunksMatchOneBuild) {
  // Ingest 1000 values in disjoint 100-position chunks; the result must be
  // identical to building the whole column at once.
  std::vector<std::pair<uint32_t, uint64_t>> all;
  Bsi merged;
  for (uint32_t chunk = 0; chunk < 10; ++chunk) {
    std::vector<std::pair<uint32_t, uint64_t>> pairs;
    for (uint32_t i = 0; i < 100; ++i) {
      const uint32_t pos = chunk * 100 + i;
      const uint64_t value = (pos * 2654435761u) % 5000 + 1;
      pairs.push_back({pos, value});
      all.push_back({pos, value});
    }
    merged.MergeAppend(Bsi::FromPairs(std::move(pairs)));
  }
  EXPECT_TRUE(merged.Equals(Bsi::FromPairs(std::move(all))));
}

// ---------------------------------------------------------------------------
// PositionEncoder serialization
// ---------------------------------------------------------------------------

TEST(PositionEncoderSerializeTest, RoundTripPreservesAssignment) {
  PositionEncoder encoder;
  for (UnitId id : {42u, 7u, 99u, 7u, 1000000u}) encoder.Encode(id);
  ASSERT_EQ(encoder.size(), 4u);
  std::string bytes;
  encoder.Serialize(&bytes);
  Result<PositionEncoder> restored = PositionEncoder::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().size(), encoder.size());
  for (uint32_t pos = 0; pos < encoder.size(); ++pos) {
    EXPECT_EQ(restored.value().Decode(pos), encoder.Decode(pos));
  }
  EXPECT_EQ(restored.value().Lookup(42).value(), 0u);
  EXPECT_FALSE(restored.value().Lookup(43).has_value());
  // New units continue from the next free position.
  EXPECT_EQ(restored.value().Encode(555), 4u);
}

TEST(PositionEncoderSerializeTest, RejectsCorruptBytes) {
  PositionEncoder encoder;
  encoder.Encode(1);
  encoder.Encode(2);
  std::string bytes;
  encoder.Serialize(&bytes);

  EXPECT_FALSE(PositionEncoder::Deserialize("").ok());
  EXPECT_FALSE(
      PositionEncoder::Deserialize(bytes.substr(0, bytes.size() - 3)).ok());
  EXPECT_FALSE(PositionEncoder::Deserialize(bytes + "x").ok());
  // count = 2 but only one id's worth of payload.
  EXPECT_FALSE(PositionEncoder::Deserialize(bytes.substr(0, 12)).ok());
  // Duplicate unit id.
  std::string dup;
  dup.push_back(2);
  dup.append(3, '\0');
  for (int k = 0; k < 2; ++k) {
    dup.push_back(5);
    dup.append(7, '\0');
  }
  EXPECT_FALSE(PositionEncoder::Deserialize(dup).ok());
}

// ---------------------------------------------------------------------------
// Event stream determinism (ISSUE 6 satellite 4)
// ---------------------------------------------------------------------------

TEST(EventStreamTest, StreamIsDeterministicAcrossRunsAndRowOrder) {
  const Dataset a = MakeSmallDataset(/*seed=*/77, 2, 4, false);
  const Dataset b = MakeSmallDataset(/*seed=*/77, 2, 4, false);
  const std::vector<WalEvent> stream_a = MakeWalEventStream(a);
  const std::vector<WalEvent> stream_b = MakeWalEventStream(b);
  ASSERT_FALSE(stream_a.empty());
  EXPECT_EQ(stream_a, stream_b);

  // Rotating the rows inside a segment (a different collector arrival
  // order) must not change the stream: the total order is over event keys,
  // not row layout.
  Dataset rotated = a;
  for (SegmentData& segment : rotated.segments) {
    if (segment.metrics.size() > 2) {
      std::rotate(segment.metrics.begin(), segment.metrics.begin() + 2,
                  segment.metrics.end());
    }
    if (segment.expose.size() > 1) {
      std::rotate(segment.expose.begin(), segment.expose.begin() + 1,
                  segment.expose.end());
    }
  }
  EXPECT_EQ(MakeWalEventStream(rotated), stream_a);
}

TEST(EventStreamTest, StreamIsStrictlyOrderedByFullKey) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/5, 2, 4, false);
  const std::vector<WalEvent> stream = MakeWalEventStream(dataset);
  ASSERT_GT(stream.size(), 1u);
  auto key = [](const WalEvent& e) {
    return std::make_tuple(e.date, static_cast<uint8_t>(e.kind), e.id,
                           e.analysis_unit_id);
  };
  for (size_t i = 1; i < stream.size(); ++i) {
    EXPECT_LT(key(stream[i - 1]), key(stream[i])) << "at " << i;
  }
}

TEST(EventStreamTest, BatchingPartitionsTheStreamInOrder) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/6, 1, 0, true);
  const std::vector<WalEvent> stream = MakeWalEventStream(dataset);
  for (size_t batch_events : {size_t{1}, size_t{7}, stream.size() + 10}) {
    const std::vector<std::vector<WalEvent>> batches =
        BatchWalEvents(stream, batch_events);
    std::vector<WalEvent> flattened;
    for (const std::vector<WalEvent>& batch : batches) {
      EXPECT_LE(batch.size(), batch_events);
      EXPECT_FALSE(batch.empty());
      flattened.insert(flattened.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(flattened, stream);
  }
  EXPECT_EQ(BatchWalEvents(stream, 1).size(), stream.size());
  EXPECT_TRUE(BatchWalEvents({}, 5).empty());
}

// ---------------------------------------------------------------------------
// DeltaBuilder: incremental == batch == scalar oracle
// ---------------------------------------------------------------------------

TEST(DeltaBuilderTest, IncrementalMatchesBatchAndReference) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/101, 2, 4, false);
  const ExperimentBsiData batch = BuildExperimentBsiData(dataset, false);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = dataset.config.start_date;
  const Date hi = lo + dataset.config.num_days - 1;

  for (size_t batch_events : {size_t{1}, size_t{13}, size_t{100000}}) {
    const ExperimentBsiData incremental =
        IngestThroughDeltas(dataset, batch_events);
    for (uint64_t strategy : {901u, 902u}) {
      for (uint64_t metric : {601u, 602u}) {
        const BucketValues got =
            ComputeStrategyMetricBsi(incremental, strategy, metric, lo, hi);
        ExpectBucketValuesEq(
            got, ComputeStrategyMetricBsi(batch, strategy, metric, lo, hi));
        ExpectBucketValuesEq(
            got, RefComputeStrategyMetric(ref, strategy, metric, lo, hi));
        // Subrange: exercises the per-day exposure filters too.
        ExpectBucketValuesEq(
            ComputeStrategyMetricBsi(incremental, strategy, metric, lo + 1,
                                     hi),
            RefComputeStrategyMetric(ref, strategy, metric, lo + 1, hi));
      }
    }
  }
}

TEST(DeltaBuilderTest, LateExposeRebasesTheDateOffset) {
  DeltaBuilder builder(1, 0, true);
  ExperimentBsiData data = MakeEmptyShaped(1, 0, true);
  const uint64_t strategy = 77;

  builder.Add(MakeEvent(WalEventKind::kExpose, strategy, /*unit=*/1,
                        /*date=*/5, 0, /*randomization=*/1));
  builder.MergeInto(&data);
  {
    const ExposeBsi* expose = data.segments[0].FindExpose(strategy);
    ASSERT_NE(expose, nullptr);
    EXPECT_EQ(expose->min_expose_date, 5u);
    const uint32_t pos1 = data.segments[0].encoder.Lookup(1).value();
    EXPECT_EQ(expose->offset.Get(pos1), 1u);
  }

  // A late event with an EARLIER date rebases the whole offset BSI.
  builder.Add(MakeEvent(WalEventKind::kExpose, strategy, /*unit=*/2,
                        /*date=*/3, 0, /*randomization=*/2));
  builder.MergeInto(&data);
  {
    const ExposeBsi* expose = data.segments[0].FindExpose(strategy);
    ASSERT_NE(expose, nullptr);
    EXPECT_EQ(expose->min_expose_date, 3u);
    const uint32_t pos1 = data.segments[0].encoder.Lookup(1).value();
    const uint32_t pos2 = data.segments[0].encoder.Lookup(2).value();
    EXPECT_EQ(expose->offset.Get(pos1), 3u);  // date 5 = 3 + (3 - 1)
    EXPECT_EQ(expose->offset.Get(pos2), 1u);  // date 3
  }

  // Re-exposure with an earlier date for an already-present unit: earliest
  // first-expose date wins, updated in place.
  builder.Add(MakeEvent(WalEventKind::kExpose, strategy, /*unit=*/1,
                        /*date=*/4, 0, /*randomization=*/1));
  builder.MergeInto(&data);
  {
    const ExposeBsi* expose = data.segments[0].FindExpose(strategy);
    ASSERT_NE(expose, nullptr);
    EXPECT_EQ(expose->min_expose_date, 3u);
    const uint32_t pos1 = data.segments[0].encoder.Lookup(1).value();
    EXPECT_EQ(expose->offset.Get(pos1), 2u);  // date 4
  }

  // A LATER re-exposure never overwrites the earliest date.
  builder.Add(MakeEvent(WalEventKind::kExpose, strategy, /*unit=*/2,
                        /*date=*/6, 0, /*randomization=*/2));
  builder.MergeInto(&data);
  {
    const ExposeBsi* expose = data.segments[0].FindExpose(strategy);
    const uint32_t pos2 = data.segments[0].encoder.Lookup(2).value();
    EXPECT_EQ(expose->offset.Get(pos2), 1u);  // still date 3
  }
}

TEST(DeltaBuilderTest, MetricsAddAndDimensionsOverwrite) {
  DeltaBuilder builder(1, 0, true);
  ExperimentBsiData data = MakeEmptyShaped(1, 0, true);

  builder.Add(MakeEvent(WalEventKind::kMetric, 601, /*unit=*/10, /*date=*/2,
                        /*value=*/5));
  builder.Add(MakeEvent(WalEventKind::kMetric, 601, /*unit=*/10, /*date=*/2,
                        /*value=*/3));  // same batch: sums in the delta
  builder.Add(MakeEvent(WalEventKind::kDimension, 11, /*unit=*/10,
                        /*date=*/2, /*value=*/4));
  builder.MergeInto(&data);

  builder.Add(MakeEvent(WalEventKind::kMetric, 601, /*unit=*/10, /*date=*/2,
                        /*value=*/2));  // later batch: adds to live
  builder.Add(MakeEvent(WalEventKind::kDimension, 11, /*unit=*/10,
                        /*date=*/2, /*value=*/1));  // overwrites live
  builder.MergeInto(&data);

  const uint32_t pos = data.segments[0].encoder.Lookup(10).value();
  const MetricBsi* metric = data.segments[0].FindMetric(601, 2);
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value.Get(pos), 10u);  // 5 + 3 + 2
  const DimensionBsi* dim = data.segments[0].FindDimension(11, 2);
  ASSERT_NE(dim, nullptr);
  EXPECT_EQ(dim->value.Get(pos), 1u);

  // Dimension value 0 removes the position (zero = absent).
  builder.Add(MakeEvent(WalEventKind::kDimension, 11, /*unit=*/10,
                        /*date=*/2, /*value=*/0));
  builder.MergeInto(&data);
  EXPECT_FALSE(data.segments[0].FindDimension(11, 2)->value.Exists(pos));
}

// One batch with unit ids out of order and repeated events per unit pins the
// in-batch fold rules and the order units reach the position encoder:
// segment, then kind (expose, metric, dimension), then key, then ascending
// unit id. The batch runs once against a strategy first seen in it (the
// batch-builder path) and once against a live strategy (the merge path).
TEST(DeltaBuilderTest, InBatchFoldRulesAndEncodeOrder) {
  constexpr int kBuckets = 64;
  // Randomization units in distinct buckets, so the bucket BSI shows which
  // event's randomization unit a unit kept.
  std::vector<UnitId> rand;
  for (UnitId r = 1; rand.size() < 5; ++r) {
    bool distinct = true;
    for (const UnitId prev : rand) {
      distinct = distinct && BucketOf(prev, kBuckets) != BucketOf(r, kBuckets);
    }
    if (distinct) rand.push_back(r);
  }
  auto bucket = [](UnitId r) {
    return static_cast<uint64_t>(BucketOf(r, kBuckets)) + 1;
  };
  auto expose = [](uint64_t strategy, UnitId unit, Date date, UnitId r) {
    return MakeEvent(WalEventKind::kExpose, strategy, unit, date, 0, r);
  };
  auto metric = [](UnitId unit, uint64_t value) {
    return MakeEvent(WalEventKind::kMetric, 601, unit, /*date=*/2, value);
  };
  auto dimension = [](UnitId unit, uint64_t value) {
    return MakeEvent(WalEventKind::kDimension, 11, unit, /*date=*/2, value);
  };

  for (const uint64_t strategy : {77u, 78u}) {
    SCOPED_TRACE(strategy == 78 ? "live strategy" : "fresh strategy");
    DeltaBuilder builder(1, kBuckets, false);
    ExperimentBsiData data = MakeEmptyShaped(1, kBuckets, false);
    // Priming batch: strategy 78 and dimension (11, 2) go live, and unit
    // 1000 takes position 0.
    builder.Add(expose(78, /*unit=*/1000, /*date=*/9, rand[4]));
    builder.Add(dimension(1000, 8));
    builder.MergeInto(&data);

    // Unit 30: date 5, then 3 (earlier: wins with rand[1]), then 3 again
    // (tie: the first event keeps rand[1]), then 4 (later: ignored).
    // Unit 10: date 7 twice (tie: the first event keeps rand[3]).
    builder.Add(expose(strategy, 30, 5, rand[0]));
    builder.Add(expose(strategy, 10, 7, rand[3]));
    builder.Add(expose(strategy, 30, 3, rand[1]));
    builder.Add(expose(strategy, 30, 3, rand[2]));
    builder.Add(expose(strategy, 10, 7, rand[0]));
    builder.Add(expose(strategy, 30, 4, rand[0]));
    // Interleaved increments sum.
    builder.Add(metric(25, 1));
    builder.Add(metric(5, 10));
    builder.Add(metric(15, 100));
    builder.Add(metric(25, 1000));
    builder.Add(metric(5, 10000));
    // The last write wins; a last write of 0 leaves no position.
    builder.Add(dimension(45, 4));
    builder.Add(dimension(35, 5));
    builder.Add(dimension(1000, 3));
    builder.Add(dimension(45, 9));
    builder.Add(dimension(35, 0));
    builder.Add(dimension(40, 0));
    builder.Add(dimension(1000, 0));
    builder.Add(dimension(40, 6));
    builder.MergeInto(&data);

    const SegmentBsiData& segment = data.segments[0];
    const PositionEncoder& encoder = segment.encoder;
    EXPECT_EQ(encoder.Lookup(1000).value(), 0u);
    const UnitId encode_order[] = {10, 30, 5, 15, 25, 35, 40, 45};
    for (uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(encoder.Lookup(encode_order[i]).has_value());
      EXPECT_EQ(encoder.Lookup(encode_order[i]).value(), i + 1)
          << "unit " << encode_order[i];
    }

    const ExposeBsi* exposed = segment.FindExpose(strategy);
    ASSERT_NE(exposed, nullptr);
    EXPECT_EQ(exposed->min_expose_date, 3u);
    const uint32_t pos10 = encoder.Lookup(10).value();
    const uint32_t pos30 = encoder.Lookup(30).value();
    EXPECT_EQ(exposed->offset.Get(pos30), 1u);  // date 3
    EXPECT_EQ(exposed->offset.Get(pos10), 5u);  // date 7
    EXPECT_EQ(exposed->bucket.Get(pos30), bucket(rand[1]));
    EXPECT_EQ(exposed->bucket.Get(pos10), bucket(rand[3]));
    if (strategy == 78) {
      EXPECT_EQ(exposed->offset.Get(0), 7u);  // date 9, rebased onto 3
      EXPECT_EQ(exposed->bucket.Get(0), bucket(rand[4]));
    }

    const MetricBsi* metrics = segment.FindMetric(601, 2);
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->value.Get(encoder.Lookup(25).value()), 1001u);
    EXPECT_EQ(metrics->value.Get(encoder.Lookup(5).value()), 10010u);
    EXPECT_EQ(metrics->value.Get(encoder.Lookup(15).value()), 100u);

    const DimensionBsi* dims = segment.FindDimension(11, 2);
    ASSERT_NE(dims, nullptr);
    EXPECT_EQ(dims->value.Get(encoder.Lookup(45).value()), 9u);
    EXPECT_EQ(dims->value.Get(encoder.Lookup(40).value()), 6u);
    EXPECT_FALSE(dims->value.Exists(encoder.Lookup(35).value()));
    EXPECT_FALSE(dims->value.Exists(0));  // unit 1000: 8, then 3, then 0
    EXPECT_EQ(dims->value.Cardinality(), 2u);
  }
}

// ---------------------------------------------------------------------------
// IngestStore: snapshot + WAL point-in-time recovery
// ---------------------------------------------------------------------------

IngestOptions SmallIngestOptions(const Dataset& dataset) {
  IngestOptions options;
  options.num_segments = dataset.config.num_segments;
  options.num_buckets = dataset.config.num_buckets;
  options.bucket_equals_segment = dataset.config.bucket_equals_segment;
  return options;
}

void IngestAll(IngestStore* store, const std::vector<WalEvent>& events,
               size_t batch_events) {
  for (const std::vector<WalEvent>& batch :
       BatchWalEvents(events, batch_events)) {
    ASSERT_TRUE(store->Ingest(batch).ok());
  }
}

void ExpectMatchesReference(const ExperimentBsiData& data,
                            const RefExperimentData& ref, Date lo, Date hi) {
  for (uint64_t strategy : {901u, 902u}) {
    for (uint64_t metric : {601u, 602u}) {
      ExpectBucketValuesEq(
          ComputeStrategyMetricBsi(data, strategy, metric, lo, hi),
          RefComputeStrategyMetric(ref, strategy, metric, lo, hi));
    }
  }
}

TEST(IngestStoreTest, ColdStartIngestCheckpointReopenCycle) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/300, 2, 4, false);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = dataset.config.start_date;
  const Date hi = lo + dataset.config.num_days - 1;
  const std::string wal_dir = FreshDir("ingest_cycle_wal");
  const std::string snap_dir = FreshDir("ingest_cycle_snap");
  const IngestOptions options = SmallIngestOptions(dataset);

  uint64_t last_sequence = 0;
  {
    IngestRecoveryReport report;
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(wal_dir, snap_dir, options, &report);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(report.cold_start);
    EXPECT_EQ(report.checkpoint_sequence, 0u);
    IngestAll(store.value().get(), MakeWalEventStream(dataset), 50);
    ExpectMatchesReference(store.value()->data(), ref, lo, hi);
    last_sequence = store.value()->last_sequence();
    ASSERT_GT(last_sequence, 0u);

    Result<IngestCheckpointStats> checkpoint = store.value()->Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    EXPECT_EQ(checkpoint.value().sequence, last_sequence);
    EXPECT_GE(checkpoint.value().snapshot.version, 1u);
    EXPECT_EQ(store.value()->checkpoint_sequence(), last_sequence);
  }
  // Reopen: snapshot carries everything; no WAL records to re-apply.
  IngestRecoveryReport report;
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options, &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.checkpoint_sequence, last_sequence);
  EXPECT_EQ(report.records_applied, 0u);
  EXPECT_EQ(store.value()->last_sequence(), last_sequence);
  ExpectMatchesReference(store.value()->data(), ref, lo, hi);
}

TEST(IngestStoreTest, ReplaysTheWalTailPastTheCheckpoint) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/301, 2, 4, false);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = dataset.config.start_date;
  const Date hi = lo + dataset.config.num_days - 1;
  const std::string wal_dir = FreshDir("ingest_tail_wal");
  const std::string snap_dir = FreshDir("ingest_tail_snap");
  const IngestOptions options = SmallIngestOptions(dataset);

  const std::vector<WalEvent> events = MakeWalEventStream(dataset);
  const std::vector<std::vector<WalEvent>> batches =
      BatchWalEvents(events, 40);
  const size_t half = batches.size() / 2;
  ASSERT_GT(half, 0u);
  uint64_t checkpoint_sequence = 0;
  {
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(wal_dir, snap_dir, options);
    ASSERT_TRUE(store.ok());
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(store.value()->Ingest(batches[i]).ok());
    }
    ASSERT_TRUE(store.value()->Checkpoint().ok());
    checkpoint_sequence = store.value()->checkpoint_sequence();
    for (size_t i = half; i < batches.size(); ++i) {
      ASSERT_TRUE(store.value()->Ingest(batches[i]).ok());
    }
    // No checkpoint for the second half: it lives only in the WAL.
  }
  IngestRecoveryReport report;
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options, &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.checkpoint_sequence, checkpoint_sequence);
  EXPECT_EQ(report.records_applied, batches.size() - half);
  ExpectMatchesReference(store.value()->data(), ref, lo, hi);
}

TEST(IngestStoreTest, OverlappingWalRecordsAreSkippedBySequence) {
  // With the default (huge) segment size every record stays in the active
  // segment, which a checkpoint trim never removes -- so on reopen the WAL
  // still holds records the snapshot already covers. They must be skipped
  // by sequence, not applied twice.
  const Dataset dataset = MakeSmallDataset(/*seed=*/302, 1, 0, true);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = dataset.config.start_date;
  const Date hi = lo + dataset.config.num_days - 1;
  const std::string wal_dir = FreshDir("ingest_skip_wal");
  const std::string snap_dir = FreshDir("ingest_skip_snap");
  const IngestOptions options = SmallIngestOptions(dataset);
  {
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(wal_dir, snap_dir, options);
    ASSERT_TRUE(store.ok());
    IngestAll(store.value().get(), MakeWalEventStream(dataset), 30);
    ASSERT_TRUE(store.value()->Checkpoint().ok());
  }
  ASSERT_GE(CountSegments(wal_dir), 1);
  IngestRecoveryReport report;
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options, &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_GT(report.wal.records_replayed, 0u);  // the log still has them
  EXPECT_EQ(report.records_applied, 0u);       // but none re-apply
  EXPECT_EQ(report.events_applied, 0u);
  ExpectMatchesReference(store.value()->data(), ref, lo, hi);
}

TEST(IngestStoreTest, CheckpointTrimsCoveredWalSegments) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/303, 1, 0, true);
  const std::string wal_dir = FreshDir("ingest_trim_wal");
  const std::string snap_dir = FreshDir("ingest_trim_snap");
  IngestOptions options = SmallIngestOptions(dataset);
  options.wal.segment_bytes = 4096;  // force several segment files
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_TRUE(store.ok());
  IngestAll(store.value().get(), MakeWalEventStream(dataset), 20);
  const int before = CountSegments(wal_dir);
  ASSERT_GE(before, 2);
  Result<IngestCheckpointStats> checkpoint = store.value()->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_GT(checkpoint.value().wal_segments_removed, 0u);
  EXPECT_LT(CountSegments(wal_dir), before);
}

TEST(IngestStoreTest, RefusesAPartiallyRecoveredSnapshot) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/304, 2, 4, false);
  const std::string wal_dir = FreshDir("ingest_partial_wal");
  const std::string snap_dir = FreshDir("ingest_partial_snap");
  const IngestOptions options = SmallIngestOptions(dataset);
  uint64_t version = 0;
  {
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(wal_dir, snap_dir, options);
    ASSERT_TRUE(store.ok());
    IngestAll(store.value().get(), MakeWalEventStream(dataset), 50);
    Result<IngestCheckpointStats> checkpoint = store.value()->Checkpoint();
    ASSERT_TRUE(checkpoint.ok());
    version = checkpoint.value().snapshot.version;
  }
  ASSERT_TRUE(fileio::RemoveFileIfExists(
                  snap_dir + "/" + SnapshotSegmentFileName(1, version))
                  .ok());
  Result<std::unique_ptr<IngestStore>> reopened =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("refusing to ingest"),
            std::string::npos)
      << reopened.status().ToString();
}

TEST(IngestStoreTest, RefusesASnapshotWithoutIngestMeta) {
  const std::string wal_dir = FreshDir("ingest_nometa_wal");
  const std::string snap_dir = FreshDir("ingest_nometa_snap");
  // A perfectly valid warehouse snapshot -- but not an ingest one: no meta
  // blob tags it with a WAL sequence.
  BsiStore store;
  BsiStoreKey key;
  key.segment = 0;
  key.kind = BsiKind::kExpose;
  key.id = 901;
  store.Put(key, "not-a-real-blob");
  ASSERT_TRUE(SnapshotWriter::Write(store, snap_dir).ok());

  IngestOptions options;
  Result<std::unique_ptr<IngestStore>> opened =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().ToString().find("no meta blob"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(IngestStoreTest, RefusesAShapeMismatchedSnapshot) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/305, 2, 4, false);
  const std::string wal_dir = FreshDir("ingest_shape_wal");
  const std::string snap_dir = FreshDir("ingest_shape_snap");
  const IngestOptions options = SmallIngestOptions(dataset);
  {
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(wal_dir, snap_dir, options);
    ASSERT_TRUE(store.ok());
    IngestAll(store.value().get(), MakeWalEventStream(dataset), 50);
    ASSERT_TRUE(store.value()->Checkpoint().ok());
  }
  IngestOptions wrong = options;
  wrong.num_segments = 3;
  Result<std::unique_ptr<IngestStore>> reopened =
      IngestStore::Open(wal_dir, snap_dir, wrong);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("shape"), std::string::npos)
      << reopened.status().ToString();
}

TEST(IngestStoreTest, RefusesAWalBehindTheCheckpoint) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/306, 1, 0, true);
  const std::string wal_dir = FreshDir("ingest_behind_wal");
  const std::string snap_dir = FreshDir("ingest_behind_snap");
  const IngestOptions options = SmallIngestOptions(dataset);
  {
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(wal_dir, snap_dir, options);
    ASSERT_TRUE(store.ok());
    IngestAll(store.value().get(), MakeWalEventStream(dataset), 50);
    ASSERT_TRUE(store.value()->Checkpoint().ok());
  }
  // Lose the whole WAL: a fresh log would restart at sequence 1, behind the
  // snapshot's checkpoint -- the store must refuse, not silently reissue.
  const Result<std::vector<std::string>> entries = fileio::ListDir(wal_dir);
  ASSERT_TRUE(entries.ok());
  for (const std::string& name : entries.value()) {
    ASSERT_TRUE(fileio::RemoveFileIfExists(wal_dir + "/" + name).ok());
  }
  Result<std::unique_ptr<IngestStore>> reopened =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("behind the snapshot"),
            std::string::npos)
      << reopened.status().ToString();
}

#if !defined(EXPBSI_NO_METRICS)
TEST(IngestStoreTest, IngestRecordsOneSamplePerStage) {
  // Each successful Ingest records one sample per stage: the WAL append,
  // the delta build and the delta merge.
  IngestOptions options;
  options.num_segments = 2;
  Result<std::unique_ptr<IngestStore>> store = IngestStore::Open(
      FreshDir("ingest_stage_wal"), FreshDir("ingest_stage_snap"), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const obs::Histogram* stages[] = {
      &obs::GetHistogram("stage.ingest_append_us"),
      &obs::GetHistogram("stage.ingest_build_us"),
      &obs::GetHistogram("stage.ingest_merge_us")};
  uint64_t before[3];
  for (int s = 0; s < 3; ++s) before[s] = stages[s]->Count();

  constexpr int kIngests = 7;
  for (int i = 0; i < kIngests; ++i) {
    const UnitId unit = static_cast<UnitId>(i + 1);
    ASSERT_TRUE(store.value()
                    ->Ingest({MakeEvent(WalEventKind::kExpose, 901, unit, 1,
                                        0, unit),
                              MakeEvent(WalEventKind::kMetric, 601, unit, 1, 3),
                              MakeEvent(WalEventKind::kDimension, 701, unit, 1,
                                        2)})
                    .ok());
  }
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(stages[s]->Count() - before[s], uint64_t{kIngests})
        << "stage " << s;
  }
}
#endif  // !EXPBSI_NO_METRICS

// ---------------------------------------------------------------------------
// Pipeline + cluster wiring
// ---------------------------------------------------------------------------

TEST(IngestPipelineTest, RunBsiCheckpointsThroughTheWal) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/400, 2, 0, true);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = dataset.config.start_date;
  const Date hi = lo + dataset.config.num_days - 1;
  const std::string wal_dir = FreshDir("pipe_ingest_wal");
  const std::string snap_dir = FreshDir("pipe_ingest_snap");
  const IngestOptions options = SmallIngestOptions(dataset);
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_TRUE(store.ok());
  IngestAll(store.value().get(), MakeWalEventStream(dataset), 64);

  PrecomputeConfig config;
  config.ingest = store.value().get();
  PrecomputePipeline pipeline(nullptr, &store.value()->data(), config);
  std::vector<StrategyMetricPair> pairs = {
      {901, 601}, {901, 602}, {902, 601}, {902, 602}};
  const PrecomputeStats stats = pipeline.RunBsi(pairs, lo, hi);
  EXPECT_TRUE(stats.failed_pairs.empty());
  EXPECT_TRUE(stats.snapshot_written) << stats.snapshot_error;
  EXPECT_EQ(stats.wal_checkpoint_sequence, store.value()->last_sequence());
  for (const StrategyMetricPair& pair : pairs) {
    const BucketValues* got = pipeline.GetResult(pair);
    ASSERT_NE(got, nullptr);
    ExpectBucketValuesEq(
        *got, RefComputeStrategyMetric(ref, pair.first, pair.second, lo, hi));
  }

  // The pipeline's checkpoint made the store recoverable without replay.
  store.value().reset();
  IngestRecoveryReport report;
  Result<std::unique_ptr<IngestStore>> reopened =
      IngestStore::Open(wal_dir, snap_dir, options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.records_applied, 0u);
  ExpectMatchesReference(reopened.value()->data(), ref, lo, hi);
}

TEST(IngestClusterTest, AdhocClusterServesTheIngestStoresLiveData) {
  const Dataset dataset = MakeSmallDataset(/*seed=*/401, 2, 0, true);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = dataset.config.start_date;
  const Date hi = lo + dataset.config.num_days - 1;
  const std::string wal_dir = FreshDir("cluster_ingest_wal");
  const std::string snap_dir = FreshDir("cluster_ingest_snap");
  const IngestOptions options = SmallIngestOptions(dataset);
  Result<std::unique_ptr<IngestStore>> store =
      IngestStore::Open(wal_dir, snap_dir, options);
  ASSERT_TRUE(store.ok());
  IngestAll(store.value().get(), MakeWalEventStream(dataset), 64);

  AdhocClusterConfig config;
  config.num_nodes = 2;
  config.ingest = store.value().get();
  AdhocCluster cluster(&dataset, nullptr, config);
  // The cluster must not write snapshots of its own into the store's
  // directory (those would lack the ingest meta blob).
  EXPECT_TRUE(cluster.snapshot_write_status().ok());
  Result<AdhocCluster::QueryStats> stats =
      cluster.QueryBsi({901, 902}, {601, 602}, lo, hi);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (uint64_t strategy : {901u, 902u}) {
    for (uint64_t metric : {601u, 602u}) {
      const auto it = stats.value().results.find({strategy, metric});
      ASSERT_NE(it, stats.value().results.end());
      ExpectBucketValuesEq(
          it->second, RefComputeStrategyMetric(ref, strategy, metric, lo, hi));
    }
  }
  // And the snapshot dir stayed untouched by the cluster: reopening the
  // store must not trip on a meta-less snapshot.
  store.value().reset();
  Result<std::unique_ptr<IngestStore>> reopened =
      IngestStore::Open(wal_dir, snap_dir, options);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

}  // namespace
}  // namespace expbsi
