#include "wal/ingest_store.h"

#include "cluster/adhoc_cluster.h"
#include "common/byte_io.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace expbsi {
namespace {

// [format u32][checkpoint_seq u64][num_segments u32][num_buckets u32]
// [bucket_equals_segment u8].
constexpr size_t kMetaBlobBytes = 4 + 8 + 4 + 4 + 1;

std::string EncodeMetaBlob(uint64_t checkpoint_sequence,
                           const IngestOptions& options) {
  std::string out;
  out.reserve(kMetaBlobBytes);
  PutU32(&out, kIngestMetaFormatVersion);
  PutU64(&out, checkpoint_sequence);
  PutU32(&out, static_cast<uint32_t>(options.num_segments));
  PutU32(&out, static_cast<uint32_t>(options.num_buckets));
  PutU8(&out, options.bucket_equals_segment ? 1 : 0);
  return out;
}

Status DecodeMetaBlob(const std::string& bytes, uint64_t* checkpoint_sequence,
                      const IngestOptions& options) {
  ByteReader r(bytes);
  uint32_t format = 0;
  uint32_t num_segments = 0;
  uint32_t num_buckets = 0;
  uint8_t bucket_eq = 0;
  if (!r.ReadU32(&format) || !r.ReadU64(checkpoint_sequence) ||
      !r.ReadU32(&num_segments) || !r.ReadU32(&num_buckets) ||
      !r.ReadU8(&bucket_eq) || !r.empty()) {
    return Status::Corruption("ingest: meta blob has wrong size");
  }
  if (format != kIngestMetaFormatVersion) {
    return Status::Corruption("ingest: version-mismatch: meta format " +
                              std::to_string(format));
  }
  if (static_cast<int>(num_segments) != options.num_segments ||
      static_cast<int>(num_buckets) != options.num_buckets ||
      (bucket_eq != 0) != options.bucket_equals_segment) {
    return Status::Corruption(
        "ingest: snapshot shape does not match the configured shape");
  }
  return Status::OK();
}

}  // namespace

IngestStore::IngestStore(std::string snapshot_dir, IngestOptions options)
    : snapshot_dir_(std::move(snapshot_dir)), options_(options) {}

Result<std::unique_ptr<IngestStore>> IngestStore::Open(
    const std::string& wal_dir, const std::string& snapshot_dir,
    const IngestOptions& options, IngestRecoveryReport* report) {
  CHECK_GT(options.num_segments, 0);
  obs::ScopedSpan span("ingest_recover");
  IngestRecoveryReport local;
  IngestRecoveryReport* r = report != nullptr ? report : &local;
  *r = IngestRecoveryReport{};
  std::unique_ptr<IngestStore> store(
      new IngestStore(snapshot_dir, options));

  Result<BsiStore> snap = BsiStore::Recover(snapshot_dir, &r->snapshot);
  if (!snap.ok()) {
    if (snap.status().code() != StatusCode::kNotFound) return snap.status();
    // No snapshot yet: cold start from an empty store; the whole WAL (if
    // any survived a lost snapshot directory) replays below.
    r->cold_start = true;
    store->live_.num_segments = options.num_segments;
    store->live_.num_buckets = options.num_buckets;
    store->live_.bucket_equals_segment = options.bucket_equals_segment;
    store->live_.segments.resize(static_cast<size_t>(options.num_segments));
  } else {
    if (!r->snapshot.fully_recovered()) {
      // A query cluster can serve degraded; an ingest store cannot keep
      // appending to a warehouse missing segments it will merge into.
      return Status::Corruption(
          "ingest: snapshot recovered with lost segments; refusing to "
          "ingest on top of a partial store");
    }
    Result<const std::string*> meta = snap.value().Get(
        BsiStoreKey{0, BsiKind::kState, kIngestMetaBlobId, 0});
    if (!meta.ok()) {
      return Status::Corruption(
          "ingest: snapshot has no meta blob (not an ingest snapshot)");
    }
    RETURN_IF_ERROR(DecodeMetaBlob(*meta.value(),
                                   &store->checkpoint_sequence_, options));
    Result<ExperimentBsiData> data =
        ReconstructBsiData(snap.value(), options.num_segments,
                           options.num_buckets,
                           options.bucket_equals_segment);
    RETURN_IF_ERROR(data.status());
    store->live_ = std::move(data).value();
    // Re-attach the per-segment position encoders: replayed deltas must
    // land at the same positions the snapshotted BSIs used.
    for (int seg = 0; seg < options.num_segments; ++seg) {
      Result<const std::string*> blob = snap.value().Get(
          BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kState,
                      kIngestEncoderBlobId, 0});
      if (!blob.ok()) {
        return Status::Corruption("ingest: snapshot is missing the encoder "
                                  "blob of segment " + std::to_string(seg));
      }
      Result<PositionEncoder> encoder =
          PositionEncoder::Deserialize(*blob.value());
      RETURN_IF_ERROR(encoder.status());
      store->live_.segments[static_cast<size_t>(seg)].encoder =
          std::move(encoder).value();
    }
  }
  r->checkpoint_sequence = store->checkpoint_sequence_;
  store->last_sequence_ = store->checkpoint_sequence_;

  std::vector<WalRecord> records;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(wal_dir, options.wal, &r->wal, &records);
  RETURN_IF_ERROR(writer.status());
  store->wal_ = std::move(writer).value();
  if (store->wal_->next_sequence() <= store->checkpoint_sequence_) {
    // The log is BEHIND the snapshot (a trimmed WAL can never be: the
    // active segment keeps the sequence). New appends would get sequence
    // numbers recovery skips as already-applied.
    return Status::Corruption(
        "ingest: wal sequence is behind the snapshot checkpoint");
  }

  DeltaBuilder builder(options.num_segments, options.num_buckets,
                       options.bucket_equals_segment);
  for (const WalRecord& record : records) {
    // Records at or below the checkpoint are already inside the snapshot
    // (the crash-between-snapshot-and-trim overlap); skip by sequence.
    if (record.sequence <= store->checkpoint_sequence_) continue;
    builder.AddRecord(record);
    ++r->records_applied;
    r->events_applied += record.events.size();
    store->last_sequence_ = record.sequence;
  }
  builder.MergeInto(&store->live_);
  span.AddAttr("cold_start", r->cold_start ? 1 : 0);
  span.AddAttr("checkpoint_sequence", r->checkpoint_sequence);
  span.AddAttr("records_applied", r->records_applied);
  span.AddAttr("events_applied", r->events_applied);
  return store;
}

Result<uint64_t> IngestStore::Ingest(const std::vector<WalEvent>& events) {
  obs::ScopedSpan span("ingest");
  span.AddAttr("events", events.size());
  // Log first, merge second: the merge runs only for a durably appended
  // record, so the in-memory state never gets ahead of what replay can
  // reconstruct.
  Result<uint64_t> sequence = wal_->Append(events);
  RETURN_IF_ERROR(sequence.status());
  DeltaBuilder builder(options_.num_segments, options_.num_buckets,
                       options_.bucket_equals_segment);
  for (const WalEvent& event : events) builder.Add(event);
  builder.MergeInto(&live_);
  last_sequence_ = sequence.value();
  span.AddAttr("sequence", last_sequence_);
  return sequence;
}

BsiStore IngestStore::BuildSnapshotStore() const {
  BsiStore store = BuildColdStore(live_);
  store.Put(BsiStoreKey{0, BsiKind::kState, kIngestMetaBlobId, 0},
            EncodeMetaBlob(last_sequence_, options_));
  for (int seg = 0; seg < options_.num_segments; ++seg) {
    std::string bytes;
    live_.segments[static_cast<size_t>(seg)].encoder.Serialize(&bytes);
    store.Put(BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kState,
                          kIngestEncoderBlobId, 0},
              std::move(bytes));
  }
  return store;
}

Result<IngestCheckpointStats> IngestStore::Checkpoint() {
  obs::ScopedSpan span("ingest_checkpoint");
  IngestCheckpointStats stats;
  stats.sequence = last_sequence_;
  Result<SnapshotWriteStats> written =
      SnapshotWriter::Write(BuildSnapshotStore(), snapshot_dir_);
  RETURN_IF_ERROR(written.status());
  stats.snapshot = written.value();
  checkpoint_sequence_ = stats.sequence;
  // The trim is best-effort: if it fails (or we crash before it), the
  // leftover segments overlap the snapshot and replay skips them by
  // sequence -- the trim is space reclamation, not correctness.
  Result<uint32_t> removed = wal_->TruncateThrough(stats.sequence);
  if (removed.ok()) stats.wal_segments_removed = removed.value();
  static obs::Counter& checkpoints = obs::GetCounter("wal.checkpoints");
  checkpoints.Add();
  span.AddAttr("sequence", stats.sequence);
  span.AddAttr("wal_segments_removed", stats.wal_segments_removed);
  return stats;
}

}  // namespace expbsi
