#ifndef EXPBSI_WAL_WAL_H_
#define EXPBSI_WAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "expdata/schema.h"

namespace expbsi {

// Append-only, segmented write-ahead log of experiment events (DESIGN.md
// §8). The WAL is the ingestion half of the snapshot+WAL recovery contract:
// a snapshot is a point-in-time image of the warehouse tagged with the last
// WAL sequence it contains, and recovery is "load the newest good snapshot,
// then replay the WAL tail with larger sequence numbers".
//
// On-disk layout of a WAL directory:
//
//   wal-<first_sequence:016x>.log    one segment per size-threshold roll
//
// A segment is a CRC-closed header followed by CRC-framed records:
//
//   segment header  [magic u32][format u32][first_seq u64][crc u32]
//   record          [len u32][seq u64][count u32][header crc u32]
//                   [count * 37 event bytes][payload crc u32]
//
// `len` is the payload length and must equal count * kWalEventBytes; the
// header CRC closes the 16 header bytes, the payload CRC the payload. The
// double framing means replay can classify exactly what it hit: a truncated
// header or payload (torn tail of a killed process), a CRC mismatch (torn
// write or bit rot), a sequence discontinuity. Replay stops cleanly at the
// first bad record, reports it in a RecoveryReport-style taxonomy, and
// WalWriter::Open never appends after a tear -- it repairs the tail down to
// its intact prefix and starts a fresh segment, so every record that ever
// replayed keeps replaying.

// What one WAL event describes -- the streaming mirror of the three
// normal-format row schemas (ExposeRow / MetricRow / DimensionRow).
enum class WalEventKind : uint8_t { kExpose = 0, kMetric = 1, kDimension = 2 };

struct WalEvent {
  WalEventKind kind = WalEventKind::kMetric;
  // strategy_id / metric_id / dimension_id, by kind.
  uint64_t id = 0;
  UnitId analysis_unit_id = 0;
  // Expose events only (the randomization unit the bucket derives from).
  UnitId randomization_unit_id = 0;
  // Event date; for expose events this is the first-expose date.
  Date date = 0;
  // Metric / dimension value; unused (0) for expose events.
  uint64_t value = 0;

  friend bool operator==(const WalEvent& a, const WalEvent& b) {
    return a.kind == b.kind && a.id == b.id &&
           a.analysis_unit_id == b.analysis_unit_id &&
           a.randomization_unit_id == b.randomization_unit_id &&
           a.date == b.date && a.value == b.value;
  }
};

// One appended batch: the atomic unit of the log. Either the whole record
// replays or none of it does.
struct WalRecord {
  uint64_t sequence = 0;
  std::vector<WalEvent> events;
};

// Everything replay observed, in the style of storage/snapshot.h's
// RecoveryReport: losses are explicit, enumerated and classified.
struct WalRecoveryReport {
  uint32_t segments_scanned = 0;
  // Segments abandoned after the first bad record (their records are NOT
  // replayed; a mid-log tear is reported, never silently skipped over).
  uint32_t segments_dropped = 0;
  uint64_t records_replayed = 0;
  uint64_t events_replayed = 0;
  uint64_t bytes_replayed = 0;
  // Sequence of the last replayed record (0 = empty log). An intact but
  // record-less trailing segment raises this to its first_sequence - 1, so
  // a reopened writer never reissues sequence numbers the segment name has
  // already promised.
  uint64_t last_sequence = 0;
  // True when replay stopped before the physical end of the log.
  bool tail_torn = false;
  // One classified line per validation failure (taxonomy: truncated header /
  // truncated payload / header crc / payload crc / length mismatch /
  // sequence gap / bad magic / version-mismatch / oversized).
  std::vector<std::string> errors;

  bool clean() const { return !tail_torn && errors.empty(); }
};

struct WalOptions {
  // Size threshold at which Append rolls to a new segment file. A record is
  // never split: the roll happens before the append that would cross it.
  uint64_t segment_bytes = 4ull << 20;
  // fsync after every append (the durable default). When off, durability
  // barriers are explicit Sync() calls and the roll/close points.
  bool sync_each_append = true;
};

// Format constants, exposed for tests and the fuzz harness.
inline constexpr uint32_t kWalSegmentMagic = 0x4542574C;  // "EBWL"
inline constexpr uint32_t kWalFormatVersion = 1;
// [magic u32][format u32][first_seq u64] + header crc u32.
inline constexpr size_t kWalSegmentHeaderBytes = 4 + 4 + 8 + 4;
// [kind u8][id u64][analysis u64][randomization u64][date u32][value u64].
inline constexpr size_t kWalEventBytes = 1 + 8 + 8 + 8 + 4 + 8;
// [len u32][seq u64][count u32] + header crc u32 (payload crc follows the
// payload).
inline constexpr size_t kWalRecordHeaderBytes = 4 + 8 + 4 + 4;
// Read cap: a segment file larger than this is refused before any
// allocation sized from its metadata.
inline constexpr uint64_t kMaxWalSegmentBytes = 1ull << 30;
// Event-count cap per record, checked before trusting `len`.
inline constexpr uint32_t kMaxWalEventsPerRecord = 1u << 22;

// "wal-<first_sequence:016x>.log" (hex-padded so lexicographic order is
// sequence order, like the snapshot version names).
std::string WalSegmentFileName(uint64_t first_sequence);
// Inverse; false if `name` is not a WAL segment file name.
bool ParseWalSegmentFileName(const std::string& name,
                             uint64_t* first_sequence);

// Replays every intact record in `dir`, ascending by sequence, stopping at
// the first torn or corrupt record (everything before the tear is returned;
// everything after is counted and classified in `report`, never silently
// skipped). A missing directory is an empty log, not an error. `report` may
// be nullptr.
Result<std::vector<WalRecord>> ReplayWal(const std::string& dir,
                                         WalRecoveryReport* report);

class WalWriter {
 public:
  // Opens (creating if missing) the WAL in `dir`: replays the existing log
  // to find its intact prefix, repairs a torn tail down to that prefix, and
  // starts a fresh segment at last_sequence + 1. The replayed records are
  // returned through `replayed` (and the scan through `report`) when
  // non-null, so recovery needs only one pass over the log.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& dir, const WalOptions& options,
      WalRecoveryReport* report = nullptr,
      std::vector<WalRecord>* replayed = nullptr);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one record holding `events` and returns its sequence number.
  // Thread-safe, like every call below: appends serialize on the writer's
  // mutex, which assigns dense sequences. With options.sync_each_append the
  // record is durable on return, and concurrent appends share fsyncs (group
  // commit): one appender leads the barrier, and every record written
  // before its flush began is covered by that one fsync, so a burst of N
  // concurrent appends costs far fewer than N fsyncs while a lone appender
  // gets one fsync per record. On a clean failure (injected kFail, roll
  // failure) nothing is written and the sequence is not consumed. After a
  // simulated crash or a failed barrier the writer is dead and every
  // further call returns Unavailable; a record whose barrier failed was
  // flushed first, so it counts as appended and replays.
  Result<uint64_t> Append(const std::vector<WalEvent>& events);

  // Explicit durability barrier (no-op when nothing is pending); the same
  // barrier a synced Append waits on.
  Status Sync();

  // Removes segments whose records all have sequence <= `sequence` (the
  // checkpoint trim after a snapshot commit). The active segment is never
  // removed. Returns the number of files removed.
  Result<uint32_t> TruncateThrough(uint64_t sequence);

  // Sequence the next Append will get.
  uint64_t next_sequence() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_sequence_;
  }
  // First sequence of the active segment.
  uint64_t active_first_sequence() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_first_sequence_;
  }
  uint64_t active_segment_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_segment_bytes_;
  }
  bool dead() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dead_;
  }
  const std::string& dir() const { return dir_; }
  // Durability barriers issued so far: one per synced append or Sync() for
  // a lone appender; concurrent appenders batch many acked appends behind
  // one. Roll and close fsyncs are not counted.
  uint64_t fsyncs_performed() const {
    return fsyncs_performed_.load(std::memory_order_relaxed);
  }

 private:
  WalWriter(std::string dir, WalOptions options);

  // Opens a new segment file starting at `first_sequence` (the wal.roll
  // fault site). Leaves the writer segment-less on failure. Caller holds
  // mu_ (or owns the writer exclusively, as Open does).
  Status StartSegment(uint64_t first_sequence);
  Status CloseSegment();

  // The durability barrier, the only flush -> wal.fsync -> fsync sequence.
  // Called with mu_ held through `lock`; blocks until an fsync covering
  // `sequence` has completed -- either one it leads itself (mu_ released
  // around the flush and fsync) or one a concurrent appender led while it
  // waited.
  Status WaitDurableLocked(std::unique_lock<std::mutex>& lock,
                           uint64_t sequence);

  const std::string dir_;
  const WalOptions options_;

  // Writer state, all under mu_ except the relaxed counter.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::FILE* file_ = nullptr;
  std::string active_path_;
  uint64_t active_first_sequence_ = 1;
  uint64_t active_segment_bytes_ = 0;
  uint64_t next_sequence_ = 1;
  bool dead_ = false;
  bool unsynced_ = false;
  bool sync_in_flight_ = false;  // a leader is inside the barrier
  uint64_t durable_sequence_ = 0;  // highest sequence known to be on disk
  std::atomic<uint64_t> fsyncs_performed_{0};
};

}  // namespace expbsi

#endif  // EXPBSI_WAL_WAL_H_
