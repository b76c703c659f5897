#include "wal/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>

#include "common/byte_io.h"
#include "common/check.h"
#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/file_io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace expbsi {
namespace {

constexpr char kWalFilePrefix[] = "wal-";
constexpr char kWalFileSuffix[] = ".log";

std::string ErrnoText() { return std::strerror(errno); }

void EncodeEvent(std::string* out, const WalEvent& event) {
  PutU8(out, static_cast<uint8_t>(event.kind));
  PutU64(out, event.id);
  PutU64(out, event.analysis_unit_id);
  PutU64(out, event.randomization_unit_id);
  PutU32(out, event.date);
  PutU64(out, event.value);
}

// Decodes one event from exactly kWalEventBytes bytes. The caller has
// already CRC-verified the payload; a bad kind byte here means the record
// was written corrupt (the wal.append kCorrupt path), so it is still a
// validation failure, not a CHECK.
bool DecodeEvent(const char* p, WalEvent* event) {
  const uint8_t kind = static_cast<uint8_t>(p[0]);
  if (kind > static_cast<uint8_t>(WalEventKind::kDimension)) return false;
  event->kind = static_cast<WalEventKind>(kind);
  event->id = ReadU64(p + 1);
  event->analysis_unit_id = ReadU64(p + 9);
  event->randomization_unit_id = ReadU64(p + 17);
  event->date = ReadU32(p + 25);
  event->value = ReadU64(p + 29);
  return true;
}

std::string EncodeRecord(uint64_t sequence,
                         const std::vector<WalEvent>& events) {
  std::string payload;
  payload.reserve(events.size() * kWalEventBytes);
  for (const WalEvent& event : events) EncodeEvent(&payload, event);
  std::string out;
  out.reserve(kWalRecordHeaderBytes + payload.size() + 4);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU64(&out, sequence);
  PutU32(&out, static_cast<uint32_t>(events.size()));
  PutU32(&out, Crc32c(out.data(), out.size()));
  out.append(payload);
  PutU32(&out, Crc32c(payload.data(), payload.size()));
  return out;
}

std::string EncodeSegmentHeader(uint64_t first_sequence) {
  std::string out;
  out.reserve(kWalSegmentHeaderBytes);
  PutU32(&out, kWalSegmentMagic);
  PutU32(&out, kWalFormatVersion);
  PutU64(&out, first_sequence);
  PutU32(&out, Crc32c(out.data(), out.size()));
  return out;
}

// Result of scanning one segment file's bytes.
struct SegmentScan {
  std::string name;
  uint64_t first_sequence = 0;
  size_t record_begin = 0;  // range into the replayed record vector
  size_t record_end = 0;
  bool clean = false;
};

// Parses one segment, appending intact records to `records`. Returns true
// when the whole segment validated; on a tear the classified error is
// appended to `report->errors` and parsing stops. `expected_first` is the
// continuity requirement (0 = first segment of the log, any start allowed,
// since checkpoints trim leading segments).
bool ScanSegment(const std::string& name, const std::string& bytes,
                 uint64_t expected_first, std::vector<WalRecord>* records,
                 WalRecoveryReport* report, uint64_t* first_out) {
  const auto tear = [&](const std::string& what) {
    report->errors.push_back(name + ": " + what);
    return false;
  };
  ByteReader r(bytes);
  std::string_view header;
  uint32_t header_crc = 0;
  if (!r.ReadBytes(kWalSegmentHeaderBytes - 4, &header) ||
      !r.ReadU32(&header_crc)) {
    return tear("truncated segment header (" + std::to_string(bytes.size()) +
                " bytes)");
  }
  if (header_crc != Crc32c(header)) {
    return tear("segment header crc mismatch (torn or bitflipped header)");
  }
  ByteReader h(header);
  uint32_t magic = 0, format = 0;
  uint64_t first_sequence = 0;
  h.ReadU32(&magic);
  h.ReadU32(&format);
  h.ReadU64(&first_sequence);
  if (magic != kWalSegmentMagic) return tear("bad segment magic");
  if (format != kWalFormatVersion) {
    return tear("version-mismatch: segment format " + std::to_string(format));
  }
  *first_out = first_sequence;
  if (expected_first != 0 && first_sequence != expected_first) {
    return tear("sequence gap: segment starts at " +
                std::to_string(first_sequence) + ", expected " +
                std::to_string(expected_first));
  }
  if (first_sequence > 0) {
    // Even a record-less segment pins the sequence floor: a writer that
    // reopened (empty active segment) and died must not restart below the
    // sequences its name promises.
    report->last_sequence =
        std::max(report->last_sequence, first_sequence - 1);
  }
  uint64_t next_seq = first_sequence;
  while (!r.empty()) {
    const size_t offset = bytes.size() - r.remaining();
    std::string_view record_header;
    uint32_t want_hcrc = 0;
    if (!r.ReadBytes(kWalRecordHeaderBytes - 4, &record_header) ||
        !r.ReadU32(&want_hcrc)) {
      return tear("truncated record header at offset " +
                  std::to_string(offset));
    }
    // The header CRC is verified BEFORE any field of the header is trusted
    // (the length in a torn header must never size a read or allocation).
    if (want_hcrc != Crc32c(record_header)) {
      return tear("record header crc mismatch at offset " +
                  std::to_string(offset) + " (torn or bitflipped)");
    }
    ByteReader rh(record_header);
    uint32_t len = 0, count = 0;
    uint64_t seq = 0;
    rh.ReadU32(&len);
    rh.ReadU64(&seq);
    rh.ReadU32(&count);
    if (count > kMaxWalEventsPerRecord) {
      return tear("oversized record: " + std::to_string(count) + " events");
    }
    if (static_cast<uint64_t>(len) !=
        static_cast<uint64_t>(count) * kWalEventBytes) {
      return tear("record length mismatch at offset " +
                  std::to_string(offset));
    }
    std::string_view payload;
    uint32_t want_pcrc = 0;
    if (!r.ReadBytes(len, &payload) || !r.ReadU32(&want_pcrc)) {
      return tear("truncated record payload at offset " +
                  std::to_string(offset));
    }
    if (want_pcrc != Crc32c(payload)) {
      return tear("record payload crc mismatch at offset " +
                  std::to_string(offset) + " (bitflipped record)");
    }
    if (seq != next_seq) {
      return tear("sequence gap: record " + std::to_string(seq) +
                  ", expected " + std::to_string(next_seq));
    }
    WalRecord record;
    record.sequence = seq;
    record.events.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!DecodeEvent(payload.data() + size_t{i} * kWalEventBytes,
                       &record.events[i])) {
        return tear("bad event kind in record " + std::to_string(seq));
      }
    }
    report->events_replayed += count;
    ++report->records_replayed;
    report->last_sequence = seq;
    records->push_back(std::move(record));
    ++next_seq;
    // Per segment; summed by the caller.
    report->bytes_replayed = bytes.size() - r.remaining();
  }
  return true;
}

// Full-directory scan shared by ReplayWal and WalWriter::Open. Fills
// `segments` with per-file ranges so Open can repair the tail.
void ScanWal(const std::string& dir, std::vector<WalRecord>* records,
             WalRecoveryReport* report, std::vector<SegmentScan>* segments) {
  obs::ScopedSpan span("wal_replay");
  Result<std::vector<std::string>> listing = fileio::ListDir(dir);
  if (!listing.ok()) return;  // missing directory = empty log
  std::vector<std::string> names;
  for (const std::string& name : listing.value()) {
    uint64_t first = 0;
    if (ParseWalSegmentFileName(name, &first)) names.push_back(name);
  }
  // ListDir sorts and the 016x sequence padding makes lexicographic order
  // numeric order, so `names` is already ascending by first sequence.
  uint64_t bytes_replayed = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    Result<std::string> bytes =
        fileio::ReadFileToString(dir + "/" + names[i], kMaxWalSegmentBytes);
    SegmentScan scan;
    scan.name = names[i];
    scan.record_begin = records->size();
    ++report->segments_scanned;
    bool ok = false;
    if (bytes.ok()) {
      report->bytes_replayed = 0;
      ok = ScanSegment(names[i], bytes.value(),
                       report->last_sequence == 0 ? 0
                                                  : report->last_sequence + 1,
                       records, report, &scan.first_sequence);
      bytes_replayed += report->bytes_replayed;
    } else {
      report->errors.push_back(names[i] + ": unreadable: " +
                               bytes.status().ToString());
    }
    scan.record_end = records->size();
    scan.clean = ok;
    segments->push_back(std::move(scan));
    if (!ok) {
      // Stop at the first bad record. Later segments are dropped -- counted
      // and named, never silently skipped past the tear.
      report->tail_torn = true;
      for (size_t j = i + 1; j < names.size(); ++j) {
        ++report->segments_dropped;
        SegmentScan dropped;
        dropped.name = names[j];
        dropped.record_begin = dropped.record_end = records->size();
        segments->push_back(std::move(dropped));
        report->errors.push_back(names[j] +
                                 ": dropped (follows the torn segment)");
      }
      break;
    }
  }
  report->bytes_replayed = bytes_replayed;
  static obs::Counter& replay_records =
      obs::GetCounter("wal.replay_records");
  static obs::Counter& replay_events = obs::GetCounter("wal.replay_events");
  static obs::Counter& torn_tails = obs::GetCounter("wal.torn_tails");
  replay_records.Add(report->records_replayed);
  replay_events.Add(report->events_replayed);
  if (report->tail_torn) torn_tails.Add();
  span.AddAttr("segments", report->segments_scanned);
  span.AddAttr("records", report->records_replayed);
  span.AddAttr("events", report->events_replayed);
  span.AddAttr("torn", report->tail_torn ? 1 : 0);
}

}  // namespace

std::string WalSegmentFileName(uint64_t first_sequence) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(first_sequence));
  return std::string(kWalFilePrefix) + buf + kWalFileSuffix;
}

bool ParseWalSegmentFileName(const std::string& name,
                             uint64_t* first_sequence) {
  const std::string prefix(kWalFilePrefix);
  const std::string suffix(kWalFileSuffix);
  if (name.size() != prefix.size() + 16 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
    const char c = name[i];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *first_sequence = value;
  return true;
}

Result<std::vector<WalRecord>> ReplayWal(const std::string& dir,
                                         WalRecoveryReport* report) {
  WalRecoveryReport local;
  WalRecoveryReport* r = report != nullptr ? report : &local;
  *r = WalRecoveryReport{};
  std::vector<WalRecord> records;
  std::vector<SegmentScan> segments;
  ScanWal(dir, &records, r, &segments);
  return records;
}

WalWriter::WalWriter(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    if (!dead_ && unsynced_) {
      fileio::FlushAndSync(file_, active_path_);  // best effort
    }
    std::fclose(file_);
  }
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& dir, const WalOptions& options,
    WalRecoveryReport* report, std::vector<WalRecord>* replayed) {
  RETURN_IF_ERROR(fileio::CreateDirIfMissing(dir));
  WalRecoveryReport local;
  WalRecoveryReport* r = report != nullptr ? report : &local;
  *r = WalRecoveryReport{};
  std::vector<WalRecord> records;
  std::vector<SegmentScan> segments;
  ScanWal(dir, &records, r, &segments);

  // Never append after a tear: the torn segment is atomically rewritten
  // down to its intact prefix (or removed when nothing of it survived), and
  // every later segment is removed, so the next replay sees a clean log
  // ending exactly where this one did.
  bool repair_from_here = false;
  for (const SegmentScan& scan : segments) {
    if (repair_from_here || scan.record_begin == scan.record_end) {
      if (repair_from_here || !scan.clean) {
        RETURN_IF_ERROR(fileio::RemoveFileIfExists(dir + "/" + scan.name));
      }
    } else if (!scan.clean) {
      std::string bytes = EncodeSegmentHeader(scan.first_sequence);
      for (size_t i = scan.record_begin; i < scan.record_end; ++i) {
        bytes.append(EncodeRecord(records[i].sequence, records[i].events));
      }
      RETURN_IF_ERROR(
          fileio::WriteFileAtomic(dir + "/" + scan.name, bytes));
      static obs::Counter& repaired =
          obs::GetCounter("wal.repaired_segments");
      repaired.Add();
    }
    if (!scan.clean) repair_from_here = true;
  }

  std::unique_ptr<WalWriter> writer(new WalWriter(dir, options));
  writer->next_sequence_ = r->last_sequence + 1;
  RETURN_IF_ERROR(writer->StartSegment(writer->next_sequence_));
  if (replayed != nullptr) *replayed = std::move(records);
  return writer;
}

Status WalWriter::StartSegment(uint64_t first_sequence) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string header = EncodeSegmentHeader(first_sequence);
  const std::string path = dir_ + "/" + WalSegmentFileName(first_sequence);
  std::string_view bytes = header;
  std::string corrupted;
  const WriteFault fault = EvaluateWriteFault(
      fault_sites::kWalRoll, first_sequence, &bytes, &corrupted);
  if (fault.fail) {
    return Status::Unavailable("wal: injected roll failure for " + path);
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("wal: cannot create segment " + path + ": " +
                               ErrnoText());
  }
  if (fault.write_bytes > 0 &&
      std::fwrite(bytes.data(), 1, fault.write_bytes, f) != fault.write_bytes) {
    std::fclose(f);
    return Status::Unavailable("wal: short write of segment header " + path);
  }
  const Status synced = fileio::FlushAndSync(f, path);
  if (!synced.ok()) {
    std::fclose(f);
    return synced;
  }
  if (fault.crash) {
    std::fclose(f);
    dead_ = true;
    return Status::Unavailable("wal: injected kill mid-roll of " + path +
                               " (torn segment header left behind)");
  }
  RETURN_IF_ERROR(fileio::SyncParentDir(path));
  file_ = f;
  active_path_ = path;
  active_first_sequence_ = first_sequence;
  active_segment_bytes_ = header.size();
  unsynced_ = false;
  static obs::Counter& rolls = obs::GetCounter("wal.rolls");
  rolls.Add();
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kWalRoll,
                                       first_sequence);
  return Status::OK();
}

Status WalWriter::CloseSegment() {
  if (file_ == nullptr) return Status::OK();
  Status status = unsynced_ ? fileio::FlushAndSync(file_, active_path_)
                            : Status::OK();
  std::fclose(file_);
  file_ = nullptr;
  unsynced_ = false;
  return status;
}

Result<uint64_t> WalWriter::Append(const std::vector<WalEvent>& events) {
  static obs::Counter& appends = obs::GetCounter("wal.appends");
  static obs::Counter& append_bytes = obs::GetCounter("wal.append_bytes");
  static obs::Counter& append_failures =
      obs::GetCounter("wal.append_failures");
  std::unique_lock<std::mutex> lock(mu_);
  if (dead_) {
    append_failures.Add();
    return Status::Unavailable("wal: writer is dead after a crash");
  }
  if (events.size() > kMaxWalEventsPerRecord) {
    return Status::InvalidArgument("wal: record of " +
                                   std::to_string(events.size()) +
                                   " events exceeds the per-record cap");
  }
  const uint64_t sequence = next_sequence_;
  std::string record = EncodeRecord(sequence, events);

  if (file_ != nullptr && active_segment_bytes_ > kWalSegmentHeaderBytes &&
      active_segment_bytes_ + record.size() > options_.segment_bytes) {
    // The roll closes file_, so wait out any fsync a leader is running
    // against it first.
    cv_.wait(lock, [&] { return !sync_in_flight_ || dead_; });
    if (dead_) {
      append_failures.Add();
      return Status::Unavailable("wal: writer died while waiting to roll");
    }
    const Status closed = CloseSegment();
    if (!closed.ok()) {
      // The closing fsync failed, so what the old segment holds is unknown:
      // the writer dies as it does when the barrier's own fsync fails.
      dead_ = true;
      cv_.notify_all();
      append_failures.Add();
      return closed;
    }
    // CloseSegment fsynced the old segment: everything appended so far is
    // durable, so waiters piled up behind the roll can be released.
    durable_sequence_ = std::max(durable_sequence_, sequence - 1);
    cv_.notify_all();
  }
  if (file_ == nullptr) {
    const Status started = StartSegment(sequence);
    if (!started.ok()) {
      append_failures.Add();
      if (dead_) cv_.notify_all();
      return started;
    }
  }

  std::string_view bytes = record;
  std::string corrupted;
  const WriteFault fault =
      EvaluateWriteFault(fault_sites::kWalAppend, sequence, &bytes, &corrupted);
  if (fault.fail) {
    append_failures.Add();
    return Status::Unavailable("wal: injected append failure");
  }
  if (fault.write_bytes > 0 &&
      std::fwrite(bytes.data(), 1, fault.write_bytes, file_) !=
          fault.write_bytes) {
    // A short physical write leaves the tail in an unknown state; the
    // writer refuses further appends and recovery sorts out the prefix.
    dead_ = true;
    cv_.notify_all();
    append_failures.Add();
    return Status::Unavailable("wal: short write of record " +
                               std::to_string(sequence));
  }
  if (fault.crash) {
    // Simulated process kill mid-append: the torn prefix reaches the file
    // (fsynced so replay sees what a real crash could have left), and the
    // writer is dead from here on.
    fileio::FlushAndSync(file_, active_path_);
    dead_ = true;
    cv_.notify_all();
    append_failures.Add();
    return Status::Unavailable("wal: injected kill mid-append of record " +
                               std::to_string(sequence) +
                               " (torn tail left behind)");
  }
  unsynced_ = true;
  active_segment_bytes_ += record.size();
  next_sequence_ = sequence + 1;
  appends.Add();
  append_bytes.Add(record.size());

  if (!options_.sync_each_append) return sequence;
  const Status durable = WaitDurableLocked(lock, sequence);
  if (!durable.ok()) {
    append_failures.Add();
    return durable;
  }
  return sequence;
}

Status WalWriter::WaitDurableLocked(std::unique_lock<std::mutex>& lock,
                                    uint64_t sequence) {
  static obs::Counter& fsyncs = obs::GetCounter("wal.fsyncs");
  while (true) {
    if (durable_sequence_ >= sequence) return Status::OK();
    if (dead_) {
      return Status::Unavailable("wal: fsync failed before record " +
                                 std::to_string(sequence) +
                                 " was acknowledged");
    }
    if (!sync_in_flight_) {
      // Become the leader. The barrier covers every record written before
      // the flush starts, so capture the target under the lock.
      sync_in_flight_ = true;
      const uint64_t target = next_sequence_ - 1;
      std::FILE* f = file_;
      const std::string path = active_path_;
      lock.unlock();
      Status result = Status::OK();
      if (std::fflush(f) != 0) {
        result = Status::Unavailable("wal: flush failed for " + path);
      }
      if (result.ok()) {
        // The bytes are flushed before the fault is evaluated: a killed
        // fsync still leaves every record of this batch on disk, so replay
        // recovers THROUGH the records whose barrier died (the fsync-kill
        // invariant the chaos sweep asserts).
        if (FaultInjector* fi = FaultInjector::Get(); fi != nullptr) {
          const FaultDecision d = fi->Evaluate(fault_sites::kWalFsync);
          if (d.delay_seconds > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(d.delay_seconds));
          }
          if (d.fail || d.crash) {
            result = Status::Unavailable(
                "wal: injected fsync failure at the barrier through record " +
                std::to_string(target));
          }
        }
      }
      if (result.ok() && ::fsync(::fileno(f)) != 0) {
        result = Status::Unavailable("wal: fsync failed for " + path);
      }
      lock.lock();
      sync_in_flight_ = false;
      if (!result.ok()) {
        dead_ = true;
        cv_.notify_all();
        return result;
      }
      durable_sequence_ = std::max(durable_sequence_, target);
      if (durable_sequence_ >= next_sequence_ - 1) unsynced_ = false;
      fsyncs_performed_.fetch_add(1, std::memory_order_relaxed);
      fsyncs.Add();
      cv_.notify_all();
    } else {
      cv_.wait(lock);
    }
  }
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (dead_) return Status::Unavailable("wal: writer is dead after a crash");
  if (file_ == nullptr || !unsynced_) return Status::OK();
  return WaitDurableLocked(lock, next_sequence_ - 1);
}

Result<uint32_t> WalWriter::TruncateThrough(uint64_t sequence) {
  std::string active_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_path = active_path_;
  }
  Result<std::vector<std::string>> listing = fileio::ListDir(dir_);
  RETURN_IF_ERROR(listing.status());
  std::vector<std::pair<uint64_t, std::string>> files;
  for (const std::string& name : listing.value()) {
    uint64_t first = 0;
    if (ParseWalSegmentFileName(name, &first)) files.emplace_back(first, name);
  }
  std::sort(files.begin(), files.end());
  uint32_t removed = 0;
  for (size_t i = 0; i + 1 < files.size(); ++i) {
    // A segment's records all precede the next segment's first sequence, so
    // it is disposable exactly when that next-first is <= sequence + 1. The
    // active segment is last in the sorted order and never removed.
    if (files[i + 1].first > sequence + 1) break;
    if (dir_ + "/" + files[i].second == active_path) break;
    RETURN_IF_ERROR(fileio::RemoveFileIfExists(dir_ + "/" + files[i].second));
    ++removed;
  }
  if (removed > 0) {
    static obs::Counter& counter = obs::GetCounter("wal.segments_removed");
    counter.Add(removed);
  }
  return removed;
}

}  // namespace expbsi
