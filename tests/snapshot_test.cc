// Persistence-layer tests (DESIGN.md §6 "Durability model"): CRC32C vectors,
// the atomic-publish protocol of fileio::WriteFileAtomic, snapshot round-trip
// bit-identity, manifest fallback and quarantine on corruption, GC, the
// ad-hoc cluster's snapshot cold start, pipeline snapshot publication, and
// the tiered store's unconditional fingerprint gate on recovered blobs.
//
// The randomized kill-recovery sweeps live in chaos_test.cc; the
// corrupt-bytes fuzzing of every decode path lives in decode_fuzz_test.cc.
// This file is the deterministic, named-scenario layer.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/adhoc_cluster.h"
#include "cluster/precompute_pipeline.h"
#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "query/executor.h"
#include "reference/ref_data.h"
#include "reference/ref_query.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"
#include "storage/tiered_store.h"
#include "tests/property_gen.h"

namespace expbsi {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// A fresh, empty scratch directory under the test tmp root. Re-created
// (emptied) on every call so repeated runs and in-process repetitions never
// see stale snapshot files.
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

// Deterministic store of opaque blobs -- the snapshot layer is
// content-agnostic, so arbitrary bytes exercise it fully.
BsiStore MakeStore(uint64_t seed, int num_segments, int blobs_per_segment) {
  Rng rng(seed);
  BsiStore store;
  for (int seg = 0; seg < num_segments; ++seg) {
    for (int b = 0; b < blobs_per_segment; ++b) {
      std::string bytes(1 + rng.NextBounded(600), '\0');
      for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xff);
      BsiStoreKey key;
      key.segment = static_cast<uint16_t>(seg);
      key.kind = static_cast<BsiKind>(b % 3);
      key.id = 100 + b;
      key.date = static_cast<uint32_t>(b % 5);
      store.Put(key, std::move(bytes));
    }
  }
  return store;
}

using BlobKey = std::tuple<uint16_t, uint8_t, uint64_t, uint32_t>;
using BlobMap = std::map<BlobKey, std::pair<std::string, uint64_t>>;

BlobMap ContentsOf(const BsiStore& store) {
  BlobMap out;
  store.ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                         uint64_t fingerprint) {
    out[{key.segment, static_cast<uint8_t>(key.kind), key.id, key.date}] = {
        bytes, fingerprint};
  });
  return out;
}

BsiStoreKey FromBlobKey(const BlobKey& k) {
  BsiStoreKey key;
  key.segment = std::get<0>(k);
  key.kind = static_cast<BsiKind>(std::get<1>(k));
  key.id = std::get<2>(k);
  key.date = std::get<3>(k);
  return key;
}

// Asserts `recovered` holds exactly `want`'s blobs, bit for bit, fingerprint
// for fingerprint, all flagged as recovered.
void ExpectBitIdentical(const BsiStore& recovered, const BsiStore& want,
                        const std::string& ctx) {
  const BlobMap got_map = ContentsOf(recovered);
  const BlobMap want_map = ContentsOf(want);
  ASSERT_EQ(got_map.size(), want_map.size()) << ctx;
  for (const auto& [k, v] : want_map) {
    const auto it = got_map.find(k);
    ASSERT_NE(it, got_map.end()) << ctx << " missing blob";
    EXPECT_EQ(it->second.first, v.first) << ctx << " blob bytes diverged";
    EXPECT_EQ(it->second.second, v.second) << ctx << " fingerprint diverged";
    EXPECT_TRUE(recovered.WasRecovered(FromBlobKey(k))) << ctx;
  }
}

std::string ReadAll(const std::string& path) {
  const Result<std::string> r =
      fileio::ReadFileToString(path, kMaxSegmentFileBytes);
  EXPECT_TRUE(r.ok()) << path << ": " << r.status().ToString();
  return r.ok() ? r.value() : std::string();
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // The Castagnoli check value (RFC 3720 appendix B / every CRC catalogue).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // 32 zero bytes: iSCSI test vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  const std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, EverySingleBitflipIsDetected) {
  // CRC32C has Hamming distance >= 4 at these lengths: any single flipped
  // bit MUST change the checksum. This is the property the whole corruption
  // taxonomy leans on.
  Rng rng(0xC5C);
  std::string data(257, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next() & 0xff);
  const uint32_t clean = Crc32c(data);
  for (size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(Crc32c(data), clean) << "bit " << bit << " undetected";
    data[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
}

// ---------------------------------------------------------------------------
// fileio::WriteFileAtomic commit protocol
// ---------------------------------------------------------------------------

TEST(FileIoTest, AtomicWritePublishesOrLeavesOldFile) {
  const std::string dir = FreshDir("fileio_atomic");
  const std::string path = dir + "/data";
  ASSERT_TRUE(fileio::WriteFileAtomic(path, "version one").ok());
  EXPECT_EQ(ReadAll(path), "version one");

  fileio::AtomicWriteOptions opts;
  opts.write_fault_site = fault_sites::kSnapshotWrite;
  opts.rename_fault_site = fault_sites::kSnapshotRename;

  {
    // Kill mid-write: the .tmp holds a torn prefix, the published file is
    // untouched.
    FaultInjector injector(7);
    injector.ScheduleFault(fault_sites::kSnapshotWrite, 0, FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    EXPECT_FALSE(fileio::WriteFileAtomic(path, "version two", opts).ok());
  }
  EXPECT_EQ(ReadAll(path), "version one");
  const Result<uint64_t> torn = fileio::FileSizeOf(path + ".tmp");
  ASSERT_TRUE(torn.ok()) << "crash at write site should leave a torn .tmp";
  EXPECT_LT(torn.value(), std::string("version two").size());

  {
    // Kill after the durable .tmp, before the rename: still the old file.
    FaultInjector injector(7);
    injector.ScheduleFault(fault_sites::kSnapshotRename, 0,
                           FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    EXPECT_FALSE(fileio::WriteFileAtomic(path, "version two", opts).ok());
  }
  EXPECT_EQ(ReadAll(path), "version one");
  EXPECT_EQ(ReadAll(path + ".tmp"), "version two");

  // No fault: the write lands and the .tmp is consumed by the rename.
  ASSERT_TRUE(fileio::WriteFileAtomic(path, "version two", opts).ok());
  EXPECT_EQ(ReadAll(path), "version two");
  EXPECT_FALSE(fileio::FileSizeOf(path + ".tmp").ok());
}

TEST(FileIoTest, ReadFileToStringRefusesOversizedFiles) {
  const std::string dir = FreshDir("fileio_cap");
  const std::string path = dir + "/big";
  ASSERT_TRUE(fileio::WriteFileAtomic(path, std::string(1000, 'x')).ok());
  const Result<std::string> r = fileio::ReadFileToString(path, 999);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(fileio::ReadFileToString(path, 1000).ok());
}

// ---------------------------------------------------------------------------
// Snapshot round trip, versioning, GC
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  const std::string dir = FreshDir("snap_roundtrip");
  const BsiStore store = MakeStore(11, /*num_segments=*/3,
                                   /*blobs_per_segment=*/5);
  const Result<SnapshotWriteStats> written = SnapshotWriter::Write(store, dir);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value().version, 1u);
  EXPECT_EQ(written.value().segment_files, 3u);
  EXPECT_GT(written.value().bytes_written, 0u);

  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.fully_recovered());
  EXPECT_EQ(report.manifest_version, 1u);
  EXPECT_EQ(report.manifests_skipped, 0u);
  EXPECT_EQ(report.segments_recovered, (std::vector<uint16_t>{0, 1, 2}));
  EXPECT_EQ(report.blobs_recovered, store.NumBlobs());
  EXPECT_EQ(report.bytes_recovered, store.TotalBytes());
  EXPECT_TRUE(report.errors.empty());
  ExpectBitIdentical(recovered.value(), store, "round trip");
}

TEST(SnapshotTest, EmptyStoreRoundTrips) {
  const std::string dir = FreshDir("snap_empty");
  const BsiStore store;
  const Result<SnapshotWriteStats> written = SnapshotWriter::Write(store, dir);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value().segment_files, 0u);
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().NumBlobs(), 0u);
  EXPECT_TRUE(report.fully_recovered());
}

TEST(SnapshotTest, VersionsBumpAndOldVersionsAreCollected) {
  const std::string dir = FreshDir("snap_gc");
  for (uint64_t v = 1; v <= 3; ++v) {
    const BsiStore store = MakeStore(/*seed=*/v, /*num_segments=*/2,
                                     /*blobs_per_segment=*/3);
    const Result<SnapshotWriteStats> written =
        SnapshotWriter::Write(store, dir);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(written.value().version, v);
  }
  // GC keeps the committed version and its predecessor (the fallback
  // target), nothing older.
  EXPECT_EQ(SnapshotReader::ListManifestVersions(dir),
            (std::vector<uint64_t>{2, 3}));
  const Result<std::vector<std::string>> listing1 = fileio::ListDir(dir);
  ASSERT_TRUE(listing1.ok());
  for (const std::string& name : listing1.value()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.manifest_version, 3u);
  ExpectBitIdentical(recovered.value(), MakeStore(3, 2, 3), "after gc");
}

TEST(SnapshotTest, RecoveryFallsBackPastCorruptNewestManifest) {
  const std::string dir = FreshDir("snap_fallback");
  const BsiStore v1 = MakeStore(21, 2, 4);
  ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok());
  {
    // v2's manifest commits but its bytes were corrupted in flight (one-shot
    // kCorrupt on the LAST write of the snapshot: 2 segment files, then the
    // manifest at write-op index 2).
    const BsiStore v2 = MakeStore(22, 2, 4);
    FaultInjector injector(99);
    injector.ScheduleFault(fault_sites::kSnapshotWrite, 2,
                           FaultKind::kCorrupt);
    ScopedFaultInjection scoped(&injector);
    ASSERT_TRUE(SnapshotWriter::Write(v2, dir).ok());
  }
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.manifest_version, 1u);
  EXPECT_EQ(report.manifests_skipped, 1u);
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors[0].find("manifest"), std::string::npos)
      << report.errors[0];
  EXPECT_TRUE(report.fully_recovered());
  ExpectBitIdentical(recovered.value(), v1, "fallback");
}

TEST(SnapshotTest, TornManifestTmpIsNeverACommit) {
  const std::string dir = FreshDir("snap_torn_manifest");
  const BsiStore v1 = MakeStore(31, 2, 4);
  ASSERT_TRUE(SnapshotWriter::Write(v1, dir).ok());
  {
    // Kill right before the manifest rename (rename-op index 2 after the
    // two segment files): v2's manifest exists only as a durable .tmp,
    // which must never be treated as a commit.
    const BsiStore v2 = MakeStore(32, 2, 4);
    FaultInjector injector(5);
    injector.ScheduleFault(fault_sites::kSnapshotRename, 2,
                           FaultKind::kCrash);
    ScopedFaultInjection scoped(&injector);
    EXPECT_FALSE(SnapshotWriter::Write(v2, dir).ok());
  }
  EXPECT_EQ(SnapshotReader::ListManifestVersions(dir),
            (std::vector<uint64_t>{1}));
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.manifest_version, 1u);
  EXPECT_EQ(report.manifests_skipped, 0u);  // a .tmp is not a candidate
  ExpectBitIdentical(recovered.value(), v1, "torn manifest");
}

TEST(SnapshotTest, BitflippedSegmentFileIsQuarantinedAndEnumerated) {
  const std::string dir = FreshDir("snap_bitflip");
  const BsiStore store = MakeStore(41, /*num_segments=*/3,
                                   /*blobs_per_segment=*/4);
  ASSERT_TRUE(SnapshotWriter::Write(store, dir).ok());

  const std::string victim = dir + "/" + SnapshotSegmentFileName(1, 1);
  std::string bytes = ReadAll(victim);
  bytes[bytes.size() / 2] ^= 0x10;  // one flipped bit, mid-payload
  WriteRaw(victim, bytes);

  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.lost_segments, (std::vector<uint16_t>{1}));
  EXPECT_EQ(report.segments_recovered, (std::vector<uint16_t>{0, 2}));
  ASSERT_EQ(report.quarantined_files.size(), 1u);
  EXPECT_TRUE(
      fileio::FileSizeOf(dir + "/" + report.quarantined_files[0]).ok())
      << "quarantined file should remain on disk for inspection";
  ASSERT_FALSE(report.errors.empty());

  // Every blob outside the lost segment is still bit-identical.
  const BlobMap want = ContentsOf(store);
  const BlobMap got = ContentsOf(recovered.value());
  for (const auto& [k, v] : want) {
    if (std::get<0>(k) == 1) {
      EXPECT_EQ(got.count(k), 0u) << "lost segment leaked a blob";
    } else {
      ASSERT_EQ(got.count(k), 1u);
      EXPECT_EQ(got.at(k), v);
    }
  }
}

TEST(SnapshotTest, TruncatedSegmentFileIsDetected) {
  const std::string dir = FreshDir("snap_truncated");
  const BsiStore store = MakeStore(51, 2, 4);
  ASSERT_TRUE(SnapshotWriter::Write(store, dir).ok());
  const std::string victim = dir + "/" + SnapshotSegmentFileName(0, 1);
  const std::string bytes = ReadAll(victim);
  WriteRaw(victim, bytes.substr(0, bytes.size() - 3));

  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.lost_segments, (std::vector<uint16_t>{0}));
  ASSERT_FALSE(report.errors.empty());
}

TEST(SnapshotTest, MissingOrEmptyDirIsNotFound) {
  const Result<BsiStore> missing =
      BsiStore::Recover(::testing::TempDir() + "expbsi_does_not_exist_zz");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string dir = FreshDir("snap_empty_dir");
  const Result<BsiStore> empty = BsiStore::Recover(dir);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, AllManifestsCorruptIsCorruption) {
  const std::string dir = FreshDir("snap_all_corrupt");
  ASSERT_TRUE(SnapshotWriter::Write(MakeStore(61, 2, 3), dir).ok());
  const std::string manifest = dir + "/" + SnapshotManifestName(1);
  std::string bytes = ReadAll(manifest);
  bytes[3] ^= 0x01;
  WriteRaw(manifest, bytes);

  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  EXPECT_NE(recovered.status().message().find("no valid manifest"),
            std::string::npos)
      << recovered.status().ToString();
  EXPECT_EQ(report.manifests_skipped, 1u);
}

// ---------------------------------------------------------------------------
// TieredStore fingerprint gate on recovered blobs
// ---------------------------------------------------------------------------

TEST(SnapshotTest, TieredStoreVerifiesRecoveredBlobsUnconditionally) {
  ASSERT_EQ(FaultInjector::Get(), nullptr);
  const std::string dir = FreshDir("snap_tier");
  const BsiStore store = MakeStore(71, 1, 3);
  ASSERT_TRUE(SnapshotWriter::Write(store, dir).ok());
  const Result<BsiStore> recovered = BsiStore::Recover(dir);
  ASSERT_TRUE(recovered.ok());

  TieredStore tier(&recovered.value(), /*hot_capacity_bytes=*/1u << 20);
  int fetched = 0;
  recovered.value().ForEach(
      [&](const BsiStoreKey& key, const std::string& bytes) {
        const auto blob = tier.Fetch(key);
        ASSERT_TRUE(blob.ok()) << blob.status().ToString();
        EXPECT_EQ(*blob.value(), bytes);
        ++fetched;
      });
  ASSERT_EQ(fetched, 3);
  // Even without an installed injector, every recovered blob's cold read
  // went through the fingerprint check -- those bytes crossed a crash
  // boundary.
  EXPECT_EQ(tier.stats().fingerprint_verifications,
            static_cast<uint64_t>(fetched));
  EXPECT_EQ(tier.stats().fingerprint_mismatches, 0u);

  // A recovered blob whose bytes do NOT match the recorded fingerprint must
  // be refused, not served.
  BsiStore tampered;
  BsiStoreKey key;
  key.segment = 0;
  key.id = 7;
  tampered.PutRecovered(key, "not the original bytes",
                        BlobFingerprint("the original bytes"));
  TieredStore bad_tier(&tampered, 1u << 20);
  const auto blob = bad_tier.Fetch(key);
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(bad_tier.stats().fingerprint_mismatches, 1u);
}

// ---------------------------------------------------------------------------
// ReconstructBsiData
// ---------------------------------------------------------------------------

TEST(SnapshotTest, ReconstructRejectsMiskeyedBlob) {
  DatasetConfig config;
  config.num_users = 200;
  config.num_segments = 2;
  config.num_days = 2;
  config.seed = 9;
  ExperimentConfig exp;
  exp.strategy_ids = {801};
  exp.arm_effects = {1.0};
  MetricConfig metric;
  metric.metric_id = 901;
  const Dataset dataset = GenerateDataset(config, {exp}, {metric}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  BsiStore store = BuildColdStore(bsi);

  // Re-home one metric blob under a wrong metric id: the decoded payload
  // then contradicts its key, which must fail loudly instead of silently
  // serving metric 999's numbers from metric 901's data.
  BsiStoreKey victim;
  bool found = false;
  store.ForEach([&](const BsiStoreKey& key, const std::string&) {
    if (!found && key.kind == BsiKind::kMetric) {
      victim = key;
      found = true;
    }
  });
  ASSERT_TRUE(found);
  const std::string bytes = *store.Get(victim).value();
  BsiStoreKey wrong = victim;
  wrong.id = 999;
  store.Put(wrong, bytes);

  const Result<ExperimentBsiData> rebuilt = ReconstructBsiData(
      store, bsi.num_segments, bsi.num_buckets, bsi.bucket_equals_segment);
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Ad-hoc cluster cold start
// ---------------------------------------------------------------------------

class ClusterColdStartTest : public ::testing::Test {
 protected:
  static constexpr Date kLo = 5;
  static constexpr Date kHi = 7;

  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_users = 1500;
    config.num_segments = 4;
    config.num_days = 3;
    config.start_date = kLo;
    config.seed = 77;
    ExperimentConfig exp;
    exp.strategy_ids = {801, 802};
    exp.arm_effects = {1.0, 1.1};
    MetricConfig metric;
    metric.metric_id = 901;
    metric.value_range = 50;
    metric.daily_participation = 0.4;
    dataset_ = new Dataset(GenerateDataset(config, {exp}, {metric}, {}));
    bsi_ = new ExperimentBsiData(BuildExperimentBsiData(*dataset_, true));
  }

  static void TearDownTestSuite() {
    delete bsi_;
    delete dataset_;
    bsi_ = nullptr;
    dataset_ = nullptr;
  }

  static Result<AdhocCluster::QueryStats> Query(AdhocCluster& cluster) {
    return cluster.QueryBsi({801, 802}, {901}, kLo, kHi);
  }

  static Dataset* dataset_;
  static ExperimentBsiData* bsi_;
};

Dataset* ClusterColdStartTest::dataset_ = nullptr;
ExperimentBsiData* ClusterColdStartTest::bsi_ = nullptr;

TEST_F(ClusterColdStartTest, ColdStartServesIdenticalScorecards) {
  const std::string dir = FreshDir("cluster_cold_start");

  AdhocCluster baseline(dataset_, bsi_, AdhocClusterConfig{});
  const auto want = Query(baseline);
  ASSERT_TRUE(want.ok());

  // First boot: nothing on disk, builds from `bsi` and commits a snapshot.
  AdhocClusterConfig config;
  config.snapshot_dir = dir;
  AdhocCluster builder(dataset_, bsi_, config);
  EXPECT_FALSE(builder.cold_started_from_snapshot());
  ASSERT_TRUE(builder.snapshot_write_status().ok())
      << builder.snapshot_write_status().ToString();
  ASSERT_EQ(SnapshotReader::ListManifestVersions(dir).size(), 1u);

  // Second boot: no dataset, no bsi -- the warehouse comes entirely from
  // the snapshot, and the scorecard must be bit-identical.
  AdhocCluster restarted(nullptr, nullptr, config);
  EXPECT_TRUE(restarted.cold_started_from_snapshot());
  EXPECT_TRUE(restarted.recovery_report().fully_recovered());
  EXPECT_EQ(restarted.num_segments(), dataset_->config.num_segments);
  const auto got = Query(restarted);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.value().degraded.degraded());
  ASSERT_EQ(got.value().results.size(), want.value().results.size());
  for (const auto& [pair, values] : want.value().results) {
    const BucketValues& g = got.value().results.at(pair);
    EXPECT_EQ(g.sums, values.sums) << pair.first << "/" << pair.second;
    EXPECT_EQ(g.counts, values.counts) << pair.first << "/" << pair.second;
  }
}

TEST_F(ClusterColdStartTest, LostSegmentsAreDegradedNeverSilent) {
  const std::string dir = FreshDir("cluster_cold_start_lost");
  AdhocClusterConfig config;
  config.snapshot_dir = dir;
  {
    AdhocCluster builder(dataset_, bsi_, config);
    ASSERT_TRUE(builder.snapshot_write_status().ok());
  }
  // Flip a bit in segment 2's file: recovery quarantines it.
  const std::string victim = dir + "/" + SnapshotSegmentFileName(2, 1);
  std::string bytes = ReadAll(victim);
  bytes[bytes.size() - 5] ^= 0x04;
  WriteRaw(victim, bytes);

  // Strict mode refuses to serve a scorecard biased by a missing segment.
  AdhocCluster strict(nullptr, nullptr, config);
  ASSERT_TRUE(strict.cold_started_from_snapshot());
  EXPECT_EQ(strict.recovery_report().lost_segments,
            (std::vector<uint16_t>{2}));
  const auto refused = Query(strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);

  // Degraded mode serves, flags segment 2, and every other segment matches
  // the fault-free scorecard bit for bit.
  AdhocCluster baseline(dataset_, bsi_, AdhocClusterConfig{});
  const auto want = Query(baseline);
  ASSERT_TRUE(want.ok());
  AdhocClusterConfig degraded_config = config;
  degraded_config.allow_degraded = true;
  AdhocCluster degraded(nullptr, nullptr, degraded_config);
  const auto got = Query(degraded);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().degraded.lost_segments, (std::vector<int>{2}));
  // Every node reads the one recovered warehouse, so the first lost=1
  // answer is final: one wave, not one per replica.
  ASSERT_NE(got.value().trace, nullptr);
  const auto root_attrs = got.value().trace->spans().at(0).attrs;
  EXPECT_NE(std::find(root_attrs.begin(), root_attrs.end(),
                      std::make_pair(std::string("waves"), uint64_t{1})),
            root_attrs.end());
  for (const auto& [pair, values] : want.value().results) {
    const BucketValues& g = got.value().results.at(pair);
    ASSERT_EQ(g.sums.size(), values.sums.size());
    for (size_t seg = 0; seg < values.sums.size(); ++seg) {
      if (seg == 2) {
        EXPECT_EQ(g.sums[seg], 0.0);
        EXPECT_EQ(g.counts[seg], 0.0);
      } else {
        EXPECT_EQ(g.sums[seg], values.sums[seg]) << "segment " << seg;
        EXPECT_EQ(g.counts[seg], values.counts[seg]) << "segment " << seg;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline snapshot publication
// ---------------------------------------------------------------------------

TEST_F(ClusterColdStartTest, PipelinePublishesOnlyCleanBatches) {
  const std::string dir = FreshDir("pipeline_publish");
  PrecomputeConfig config;
  config.num_threads = 2;
  config.snapshot_dir = dir;
  const std::vector<StrategyMetricPair> pairs = {{801, 901}, {802, 901}};

  {
    PrecomputePipeline pipeline(dataset_, bsi_, config);
    const PrecomputeStats stats = pipeline.RunBsi(pairs, kLo, kHi);
    ASSERT_TRUE(stats.failed_pairs.empty());
    EXPECT_TRUE(stats.snapshot_written);
    EXPECT_EQ(stats.snapshot_version, 1u);
    EXPECT_TRUE(stats.snapshot_error.empty()) << stats.snapshot_error;
  }
  {
    // Daily rebuild: the next clean batch commits the next version.
    PrecomputePipeline pipeline(dataset_, bsi_, config);
    const PrecomputeStats stats = pipeline.RunBsi(pairs, kLo, kHi);
    EXPECT_TRUE(stats.snapshot_written);
    EXPECT_EQ(stats.snapshot_version, 2u);
  }
  {
    // A batch with failed pairs must NOT publish a stale warehouse.
    PrecomputeConfig no_retry = config;
    no_retry.retry.max_attempts = 1;
    PrecomputePipeline pipeline(dataset_, bsi_, no_retry);
    FaultInjector injector(3);
    injector.SetFailProbability(fault_sites::kPipelineTask, 1.0);
    ScopedFaultInjection scoped(&injector);
    const PrecomputeStats stats = pipeline.RunBsi(pairs, kLo, kHi);
    ASSERT_FALSE(stats.failed_pairs.empty());
    EXPECT_FALSE(stats.snapshot_written);
  }
  EXPECT_EQ(SnapshotReader::ListManifestVersions(dir),
            (std::vector<uint64_t>{1, 2}));
  const Result<BsiStore> recovered = BsiStore::Recover(dir);
  ASSERT_TRUE(recovered.ok());
  ExpectBitIdentical(recovered.value(), BuildColdStore(*bsi_), "published");
}

// ---------------------------------------------------------------------------
// Differential round trip (satellite of the chaos/differential harness):
// snapshot -> drop -> recover -> reconstruct -> full query engine, against
// the scalar oracle. Exact equality, same as differential_test.cc.
// ---------------------------------------------------------------------------

void RunSnapshotDifferentialIteration(uint64_t seed, const std::string& dir) {
  Rng rng(seed);
  const propgen::FuzzDataset fd = propgen::GenDataset(rng);
  const ExperimentBsiData bsi =
      BuildExperimentBsiData(fd.dataset, fd.engagement_ordered);
  const RefExperimentData ref = BuildRefExperimentData(fd.dataset);
  const std::string ctx =
      "snapshot differential seed=" + std::to_string(seed);

  const BsiStore store = BuildColdStore(bsi);
  const Result<SnapshotWriteStats> written = SnapshotWriter::Write(store, dir);
  ASSERT_TRUE(written.ok()) << ctx << ": " << written.status().ToString();
  RecoveryReport report;
  const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
  ASSERT_TRUE(recovered.ok()) << ctx << ": " << recovered.status().ToString();
  ASSERT_TRUE(report.fully_recovered()) << ctx;
  ExpectBitIdentical(recovered.value(), store, ctx);

  const Result<ExperimentBsiData> rebuilt =
      ReconstructBsiData(recovered.value(), bsi.num_segments, bsi.num_buckets,
                         bsi.bucket_equals_segment);
  ASSERT_TRUE(rebuilt.ok()) << ctx << ": " << rebuilt.status().ToString();

  for (int i = 0; i < 3; ++i) {
    const std::string text = propgen::GenQuery(rng, fd.dataset);
    const Result<QueryResult> got = RunQuery(rebuilt.value(), text);
    const Result<QueryResult> want = RefRunQuery(ref, text);
    ASSERT_EQ(got.ok(), want.ok())
        << ctx << " [" << text << "]\n  recovered: "
        << got.status().ToString() << "\n  ref: " << want.status().ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().message(), want.status().message()) << ctx;
      continue;
    }
    EXPECT_EQ(got.value().columns, want.value().columns) << ctx;
    EXPECT_EQ(got.value().row, want.value().row) << ctx << " [" << text << "]";
    EXPECT_EQ(got.value().per_bucket, want.value().per_bucket) << ctx;
  }
}

TEST(SnapshotDifferentialTest, RecoveredWarehouseMatchesScalarOracle) {
  uint64_t x = 0x5eedf11eull;
  for (int i = 0; i < 8; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    uint64_t s = x;
    s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ull;
    s = (s ^ (s >> 27)) * 0x94d049bb133111ebull;
    const std::string dir = FreshDir("snap_diff_" + std::to_string(i));
    RunSnapshotDifferentialIteration(s ^ (s >> 31), dir);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace expbsi
