#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "common/byte_io.h"
#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace expbsi {
namespace {

// ---- file-name parsing ---------------------------------------------------

bool ParseHex16(std::string_view s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

bool ParseManifestName(const std::string& name, uint64_t* version) {
  constexpr std::string_view kPrefix = "MANIFEST-";
  if (name.size() != kPrefix.size() + 16 || name.rfind(kPrefix, 0) != 0) {
    return false;
  }
  return ParseHex16(std::string_view(name).substr(kPrefix.size()), version);
}

bool ParseSegmentFileName(const std::string& name, uint16_t* segment,
                          uint64_t* version) {
  // seg-<decimal segment>-<16 hex digits>.snap
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".snap";
  if (name.size() < kPrefix.size() + 1 + 1 + 16 + kSuffix.size() ||
      name.rfind(kPrefix, 0) != 0 ||
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return false;
  }
  const size_t dash = name.find('-', kPrefix.size());
  if (dash == std::string::npos ||
      name.size() - kSuffix.size() - (dash + 1) != 16) {
    return false;
  }
  uint32_t seg = 0;
  for (size_t i = kPrefix.size(); i < dash; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    seg = seg * 10 + static_cast<uint32_t>(name[i] - '0');
    if (seg > 65535) return false;
  }
  if (dash == kPrefix.size()) return false;
  if (!ParseHex16(
          std::string_view(name).substr(dash + 1, 16), version)) {
    return false;
  }
  *segment = static_cast<uint16_t>(seg);
  return true;
}

// ---- manifest ------------------------------------------------------------

struct ManifestEntry {
  uint16_t segment = 0;
  std::string file_name;
  uint64_t file_size = 0;
  uint64_t blob_count = 0;
};

struct Manifest {
  uint64_t version = 0;
  std::vector<ManifestEntry> segments;
};

// Manifest layout: [magic u32][format u32][version u64][num_segments u32]
// then per segment [segment u16][name_len u32][name][file_size u64]
// [blob_count u64], closed by [crc32c u32] over all preceding bytes.
constexpr size_t kManifestHeaderBytes = 4 + 4 + 8 + 4;
constexpr size_t kManifestMinEntryBytes = 2 + 4 + 8 + 8;

Result<Manifest> ReadAndValidateManifest(const std::string& dir,
                                         uint64_t name_version) {
  const std::string name = SnapshotManifestName(name_version);
  Result<std::string> bytes =
      fileio::ReadFileToString(dir + "/" + name, kMaxManifestBytes);
  RETURN_IF_ERROR(bytes.status());
  const std::string& b = bytes.value();
  if (b.size() < kManifestHeaderBytes + sizeof(uint32_t)) {
    return Status::Corruption(name + ": truncated manifest (" +
                              std::to_string(b.size()) + " bytes)");
  }
  const uint32_t stored_crc = ReadU32(b.data() + b.size() - sizeof(uint32_t));
  if (Crc32c(b.data(), b.size() - sizeof(uint32_t)) != stored_crc) {
    return Status::Corruption(name +
                              ": manifest checksum mismatch (torn write or "
                              "bitflip)");
  }
  ByteReader r(std::string_view(b).substr(0, b.size() - sizeof(uint32_t)));
  uint32_t magic = 0, format = 0, num_segments = 0;
  Manifest m;
  r.ReadU32(&magic);
  r.ReadU32(&format);
  r.ReadU64(&m.version);
  r.ReadU32(&num_segments);
  if (magic != kManifestFileMagic) {
    return Status::Corruption(name + ": bad manifest magic");
  }
  if (format != kSnapshotFormatVersion) {
    return Status::Corruption(name + ": manifest format version-mismatch (" +
                              std::to_string(format) + ", expected " +
                              std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (m.version != name_version) {
    return Status::Corruption(name + ": version field does not match name");
  }
  if (num_segments > r.remaining() / kManifestMinEntryBytes) {
    return Status::Corruption(name + ": segment count exceeds manifest size");
  }
  m.segments.reserve(num_segments);
  uint32_t prev_segment = 0;
  for (uint32_t i = 0; i < num_segments; ++i) {
    ManifestEntry e;
    if (!r.ReadU16(&e.segment) ||
        !r.ReadString(&e.file_name, kMaxManifestBytes) ||
        !r.ReadU64(&e.file_size) || !r.ReadU64(&e.blob_count)) {
      return Status::Corruption(name + ": truncated segment entry");
    }
    // The writer derives the name from (segment, version); enforcing that
    // here pins the format and rules out path tricks in a crafted manifest.
    if (e.file_name != SnapshotSegmentFileName(e.segment, m.version)) {
      return Status::Corruption(name + ": unexpected segment file name \"" +
                                e.file_name + "\"");
    }
    if (i > 0 && e.segment <= prev_segment) {
      return Status::Corruption(name + ": segment ids not strictly " +
                                "increasing");
    }
    prev_segment = e.segment;
    if (e.file_size > kMaxSegmentFileBytes) {
      return Status::Corruption(name + ": segment file size over cap");
    }
    m.segments.push_back(std::move(e));
  }
  if (!r.empty()) {
    return Status::Corruption(name + ": trailing garbage after entries");
  }
  return m;
}

// ---- segment files -------------------------------------------------------

struct DecodedRecord {
  BsiStoreKey key;
  std::string_view payload;
  uint64_t fingerprint = 0;
};

// Full validation of one segment file against its manifest entry. Any
// failure is a classified Status::Corruption; on success `out` holds views
// into `bytes`.
Status DecodeSegmentFile(std::string_view bytes, const ManifestEntry& entry,
                         uint64_t version,
                         std::vector<DecodedRecord>* out) {
  const std::string& fname = entry.file_name;
  if (bytes.size() != entry.file_size) {
    return Status::Corruption(
        fname + ": size " + std::to_string(bytes.size()) +
        " does not match manifest (" + std::to_string(entry.file_size) +
        ") -- truncated or torn write");
  }
  ByteReader r(bytes);
  uint32_t magic = 0, format = 0;
  uint16_t segment = 0;
  uint64_t file_version = 0, blob_count = 0;
  if (!r.ReadU32(&magic) || !r.ReadU32(&format) || !r.ReadU16(&segment) ||
      !r.ReadU64(&file_version) || !r.ReadU64(&blob_count)) {
    return Status::Corruption(fname + ": truncated header");
  }
  if (magic != kSegmentFileMagic) {
    return Status::Corruption(fname + ": bad segment file magic");
  }
  if (format != kSnapshotFormatVersion) {
    return Status::Corruption(fname + ": format version-mismatch (" +
                              std::to_string(format) + ")");
  }
  if (segment != entry.segment) {
    return Status::Corruption(fname + ": segment id mismatch");
  }
  if (file_version != version) {
    return Status::Corruption(fname + ": snapshot version mismatch");
  }
  if (blob_count != entry.blob_count) {
    return Status::Corruption(fname + ": blob count mismatch vs manifest");
  }
  out->clear();
  if (blob_count > r.remaining() /
                       (kSnapshotRecordHeaderBytes + 2 * sizeof(uint32_t))) {
    return Status::Corruption(fname + ": blob count exceeds file size");
  }
  out->reserve(blob_count);
  for (uint64_t i = 0; i < blob_count; ++i) {
    std::string_view header;
    uint32_t header_crc = 0;
    if (!r.ReadBytes(kSnapshotRecordHeaderBytes, &header) ||
        !r.ReadU32(&header_crc)) {
      return Status::Corruption(fname + ": truncated record header");
    }
    // The header CRC is verified before `len` is trusted, so a bitflipped
    // length can never drive a huge read or allocation.
    if (Crc32c(header) != header_crc) {
      return Status::Corruption(fname + ": record header checksum mismatch "
                                        "(bitflip)");
    }
    DecodedRecord rec;
    uint8_t kind = 0;
    uint32_t len = 0;
    ByteReader h(header);
    h.ReadU16(&rec.key.segment);
    h.ReadU8(&kind);
    h.ReadU64(&rec.key.id);
    h.ReadU32(&rec.key.date);
    h.ReadU32(&len);
    h.ReadU64(&rec.fingerprint);
    if (kind > 3) {
      return Status::Corruption(fname + ": bad kind byte");
    }
    rec.key.kind = static_cast<BsiKind>(kind);
    if (rec.key.segment != entry.segment) {
      return Status::Corruption(fname + ": record for foreign segment");
    }
    uint32_t payload_crc = 0;
    if (!r.ReadBytes(len, &rec.payload) || !r.ReadU32(&payload_crc)) {
      return Status::Corruption(fname + ": record length exceeds file");
    }
    if (Crc32c(rec.payload) != payload_crc) {
      return Status::Corruption(fname + ": payload checksum mismatch "
                                        "(bitflip)");
    }
    if (BlobFingerprint(rec.payload) != rec.fingerprint) {
      return Status::Corruption(fname + ": payload fingerprint mismatch");
    }
    out->push_back(std::move(rec));
  }
  if (!r.empty()) {
    return Status::Corruption(fname + ": trailing garbage after records");
  }
  return Status::OK();
}

std::string BuildSegmentFile(
    uint16_t segment, uint64_t version,
    const std::vector<std::tuple<BsiStoreKey, const std::string*, uint64_t>>&
        records) {
  std::string out;
  size_t total = kSegmentFileHeaderBytes;
  for (const auto& [key, bytes, fp] : records) {
    total += kSnapshotRecordHeaderBytes + 2 * sizeof(uint32_t) +
             bytes->size();
  }
  out.reserve(total);
  PutU32(&out, kSegmentFileMagic);
  PutU32(&out, kSnapshotFormatVersion);
  PutU16(&out, segment);
  PutU64(&out, version);
  PutU64(&out, records.size());
  for (const auto& [key, bytes, fp] : records) {
    const size_t header_start = out.size();
    PutU16(&out, key.segment);
    PutU8(&out, static_cast<uint8_t>(key.kind));
    PutU64(&out, key.id);
    PutU32(&out, key.date);
    PutU32(&out, static_cast<uint32_t>(bytes->size()));
    PutU64(&out, fp);
    PutU32(&out, Crc32c(out.data() + header_start,
                        kSnapshotRecordHeaderBytes));
    out += *bytes;
    PutU32(&out, Crc32c(*bytes));
  }
  return out;
}

// Renames a failed segment file out of the live set; best effort.
void Quarantine(const std::string& dir, const std::string& file_name,
                RecoveryReport* report) {
  const std::string from = dir + "/" + file_name;
  const std::string to = from + ".quarantine";
  if (fileio::FileSizeOf(from).ok() && fileio::RenameFile(from, to).ok()) {
    report->quarantined_files.push_back(file_name + ".quarantine");
  }
}

}  // namespace

std::string SnapshotManifestName(uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%016llx",
                static_cast<unsigned long long>(version));
  return buf;
}

std::string SnapshotSegmentFileName(uint16_t segment, uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "seg-%u-%016llx.snap",
                static_cast<unsigned>(segment),
                static_cast<unsigned long long>(version));
  return buf;
}

std::vector<uint64_t> SnapshotReader::ListManifestVersions(
    const std::string& dir) {
  std::vector<uint64_t> versions;
  Result<std::vector<std::string>> names = fileio::ListDir(dir);
  if (!names.ok()) return versions;
  for (const std::string& name : names.value()) {
    uint64_t v = 0;
    if (ParseManifestName(name, &v)) versions.push_back(v);
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

Result<SnapshotWriteStats> SnapshotWriter::Write(const BsiStore& store,
                                                 const std::string& dir) {
  obs::ScopedSpan span("snapshot_write");
  static obs::Counter& writes = obs::GetCounter("snapshot.writes");
  static obs::Counter& write_failures =
      obs::GetCounter("snapshot.write_failures");
  static obs::Counter& bytes_written =
      obs::GetCounter("snapshot.bytes_written");
  writes.Add();
  Result<SnapshotWriteStats> result = WriteImpl(store, dir);
  if (result.ok()) {
    bytes_written.Add(result.value().bytes_written);
    span.AddAttr("bytes_written", result.value().bytes_written);
    span.AddAttr("version", result.value().version);
  } else {
    write_failures.Add();
  }
  return result;
}

Result<SnapshotWriteStats> SnapshotWriter::WriteImpl(const BsiStore& store,
                                                     const std::string& dir) {
  RETURN_IF_ERROR(fileio::CreateDirIfMissing(dir));
  const std::vector<uint64_t> existing =
      SnapshotReader::ListManifestVersions(dir);
  const uint64_t version = existing.empty() ? 1 : existing.back() + 1;

  // Group blobs by segment, ordered within a segment by (kind, id, date),
  // so the same store contents always serialize to the same bytes.
  using RecordRef = std::tuple<BsiStoreKey, const std::string*, uint64_t>;
  std::map<uint16_t, std::vector<RecordRef>> by_segment;
  store.ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                         uint64_t fingerprint) {
    by_segment[key.segment].emplace_back(key, &bytes, fingerprint);
  });

  SnapshotWriteStats stats;
  stats.version = version;
  fileio::AtomicWriteOptions options;
  options.write_fault_site = fault_sites::kSnapshotWrite;
  options.rename_fault_site = fault_sites::kSnapshotRename;

  std::string manifest;
  PutU32(&manifest, kManifestFileMagic);
  PutU32(&manifest, kSnapshotFormatVersion);
  PutU64(&manifest, version);
  PutU32(&manifest, static_cast<uint32_t>(by_segment.size()));
  for (auto& [segment, records] : by_segment) {
    std::sort(records.begin(), records.end(),
              [](const RecordRef& a, const RecordRef& b) {
                const BsiStoreKey& ka = std::get<0>(a);
                const BsiStoreKey& kb = std::get<0>(b);
                return std::tie(ka.kind, ka.id, ka.date) <
                       std::tie(kb.kind, kb.id, kb.date);
              });
    const std::string bytes = BuildSegmentFile(segment, version, records);
    const std::string name = SnapshotSegmentFileName(segment, version);
    RETURN_IF_ERROR(fileio::WriteFileAtomic(dir + "/" + name, bytes,
                                            options));
    PutU16(&manifest, segment);
    PutString(&manifest, name);
    PutU64(&manifest, bytes.size());
    PutU64(&manifest, records.size());
    ++stats.segment_files;
    stats.bytes_written += bytes.size();
  }
  PutU32(&manifest, Crc32c(manifest));
  // The commit point: once this rename lands, version `version` is live.
  RETURN_IF_ERROR(fileio::WriteFileAtomic(
      dir + "/" + SnapshotManifestName(version), manifest, options));
  stats.bytes_written += manifest.size();

  // GC after a durable commit: keep the new version and the one before it;
  // everything older (and stray .tmp files of aborted attempts) goes. Best
  // effort -- leftovers are ignored by recovery and retried next Write.
  const uint64_t keep_floor = existing.empty() ? version : existing.back();
  Result<std::vector<std::string>> names = fileio::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      uint64_t v = 0;
      uint16_t seg = 0;
      bool expired = false;
      if (ParseManifestName(name, &v) || ParseSegmentFileName(name, &seg, &v)) {
        expired = v < keep_floor;
      } else if (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0) {
        expired = true;
      }
      if (expired && fileio::RemoveFileIfExists(dir + "/" + name).ok()) {
        ++stats.gc_removed;
      }
    }
  }
  return stats;
}

Result<BsiStore> SnapshotReader::Recover(const std::string& dir,
                                         RecoveryReport* report) {
  obs::ScopedSpan span("snapshot_recover");
  static obs::Counter& recoveries = obs::GetCounter("snapshot.recoveries");
  recoveries.Add();
  RecoveryReport local;
  RecoveryReport* const rep = report != nullptr ? report : &local;
  *rep = RecoveryReport{};

  Result<std::vector<std::string>> names = fileio::ListDir(dir);
  RETURN_IF_ERROR(names.status());
  std::vector<uint64_t> versions;
  for (const std::string& name : names.value()) {
    uint64_t v = 0;
    if (ParseManifestName(name, &v)) versions.push_back(v);
  }
  if (versions.empty()) {
    return Status::NotFound("snapshot: no manifest in " + dir);
  }
  std::sort(versions.rbegin(), versions.rend());

  Manifest manifest;
  bool have_manifest = false;
  for (uint64_t v : versions) {
    Result<Manifest> m = ReadAndValidateManifest(dir, v);
    if (m.ok()) {
      manifest = std::move(m).value();
      have_manifest = true;
      break;
    }
    // A torn commit of a newer version: fall back past it, but keep the
    // classified reason.
    ++rep->manifests_skipped;
    rep->errors.push_back(m.status().message());
  }
  if (!have_manifest) {
    return Status::Corruption(
        "snapshot: no valid manifest in " + dir + " (" +
        std::to_string(versions.size()) + " candidates, all corrupt)");
  }
  rep->manifest_version = manifest.version;

  BsiStore store;
  FaultInjector* const fi = FaultInjector::Get();
  for (const ManifestEntry& entry : manifest.segments) {
    Status status = Status::OK();
    Result<std::string> bytes = fileio::ReadFileToString(
        dir + "/" + entry.file_name, kMaxSegmentFileBytes);
    if (fi != nullptr) {
      const FaultDecision fault = fi->Evaluate(fault_sites::kSnapshotRead);
      if (fault.fail) {
        bytes = Status::Unavailable(entry.file_name +
                                    ": injected unreadable file");
      } else if (fault.corrupt && bytes.ok() && !bytes.value().empty()) {
        std::string flipped = std::move(bytes).value();
        fi->CorruptBlob(Mix64(manifest.version) ^ entry.segment, &flipped);
        bytes = std::move(flipped);
      }
    }
    std::vector<DecodedRecord> records;
    if (!bytes.ok()) {
      status = bytes.status();
    } else {
      status = DecodeSegmentFile(bytes.value(), entry, manifest.version,
                                 &records);
    }
    if (!status.ok()) {
      rep->lost_segments.push_back(entry.segment);
      rep->errors.push_back(status.message());
      Quarantine(dir, entry.file_name, rep);
      continue;
    }
    // Only a fully validated file populates the store -- a late corrupt
    // record never leaves a half-loaded segment behind.
    for (DecodedRecord& rec : records) {
      rep->bytes_recovered += rec.payload.size();
      ++rep->blobs_recovered;
      store.PutRecovered(rec.key, std::string(rec.payload),
                         rec.fingerprint);
    }
    rep->segments_recovered.push_back(entry.segment);
  }
  std::sort(rep->lost_segments.begin(), rep->lost_segments.end());
  std::sort(rep->segments_recovered.begin(), rep->segments_recovered.end());
  static obs::Counter& blobs_recovered =
      obs::GetCounter("snapshot.blobs_recovered");
  static obs::Counter& bytes_recovered =
      obs::GetCounter("snapshot.bytes_recovered");
  static obs::Counter& lost = obs::GetCounter("snapshot.lost_segments");
  static obs::Counter& skipped =
      obs::GetCounter("snapshot.manifests_skipped");
  blobs_recovered.Add(rep->blobs_recovered);
  bytes_recovered.Add(rep->bytes_recovered);
  lost.Add(rep->lost_segments.size());
  skipped.Add(static_cast<uint64_t>(rep->manifests_skipped));
  span.AddAttr("blobs_recovered", rep->blobs_recovered);
  span.AddAttr("lost_segments", rep->lost_segments.size());
  return store;
}

Result<BsiStore> BsiStore::Recover(const std::string& dir,
                                   RecoveryReport* report) {
  return SnapshotReader::Recover(dir, report);
}

}  // namespace expbsi
