#include "storage/bsi_store.h"

#include <cstdio>
#include <limits>
#include <memory>

#include "common/byte_io.h"
#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "obs/metrics.h"

namespace expbsi {
namespace {

// File format: [magic u32][blob count u64] then per blob
// [segment u16][kind u8][id u64][date u32][len u32][bytes].
constexpr uint32_t kStoreMagic = 0x45425331;  // "EBS1"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

uint64_t BlobFingerprint(std::string_view bytes) {
  // Chained Mix64 over 8-byte words plus a zero-padded tail; seeding with
  // the length separates blobs that differ only by trailing zero bytes.
  uint64_t h = Mix64(bytes.size() + 0x9e3779b97f4a7c15ull);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    h = Mix64(h ^ ReadU64(bytes.data() + i));
  }
  if (i < bytes.size()) {
    char tail[8] = {};
    bytes.copy(tail, bytes.size() - i, i);
    h = Mix64(h ^ ReadU64(tail));
  }
  return h;
}

size_t BsiStoreKeyHash::operator()(const BsiStoreKey& k) const {
  uint64_t h = Mix64(k.id);
  h = Mix64(h ^ (static_cast<uint64_t>(k.segment) << 40) ^
            (static_cast<uint64_t>(k.kind) << 34) ^ k.date);
  return static_cast<size_t>(h);
}

void BsiStore::Put(const BsiStoreKey& key, std::string bytes) {
  static obs::Counter& puts = obs::GetCounter("store.puts");
  static obs::Counter& put_bytes = obs::GetCounter("store.put_bytes");
  puts.Add();
  put_bytes.Add(bytes.size());
  const uint64_t fingerprint = BlobFingerprint(bytes);
  auto it = blobs_.find(key);
  if (it != blobs_.end()) {
    total_bytes_ -= it->second.bytes.size();
    total_bytes_ += bytes.size();
    it->second.bytes = std::move(bytes);
    it->second.fingerprint = fingerprint;
    return;
  }
  total_bytes_ += bytes.size();
  blobs_.emplace(key, Entry{std::move(bytes), fingerprint});
}

void BsiStore::PutRecovered(const BsiStoreKey& key, std::string bytes,
                            uint64_t fingerprint) {
  auto it = blobs_.find(key);
  if (it != blobs_.end()) {
    total_bytes_ -= it->second.bytes.size();
    total_bytes_ += bytes.size();
    it->second = Entry{std::move(bytes), fingerprint, /*recovered=*/true};
    return;
  }
  total_bytes_ += bytes.size();
  blobs_.emplace(key, Entry{std::move(bytes), fingerprint,
                            /*recovered=*/true});
}

bool BsiStore::WasRecovered(const BsiStoreKey& key) const {
  auto it = blobs_.find(key);
  return it != blobs_.end() && it->second.recovered;
}

bool BsiStore::Contains(const BsiStoreKey& key) const {
  return blobs_.find(key) != blobs_.end();
}

Result<const std::string*> BsiStore::Get(const BsiStoreKey& key) const {
  static obs::Counter& gets = obs::GetCounter("store.gets");
  gets.Add();
  if (FaultInjector* fi = FaultInjector::Get(); fi != nullptr) {
    if (fi->Evaluate(fault_sites::kWarehouseGet).fail) {
      return Status::Unavailable("bsi store: injected warehouse failure");
    }
  }
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::NotFound("bsi store: no blob for key");
  }
  return &it->second.bytes;
}

Result<uint64_t> BsiStore::Fingerprint(const BsiStoreKey& key) const {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::NotFound("bsi store: no blob for key");
  }
  return it->second.fingerprint;
}

Status BsiStore::SaveToFile(const std::string& path) const {
  std::string out;
  PutU32(&out, kStoreMagic);
  PutU64(&out, blobs_.size());
  for (const auto& [key, entry] : blobs_) {
    PutU16(&out, key.segment);
    PutU8(&out, static_cast<uint8_t>(key.kind));
    PutU64(&out, key.id);
    PutU32(&out, key.date);
    PutString(&out, entry.bytes);
  }
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::InvalidArgument("bsi store: cannot open " + path +
                                   " for writing");
  }
  if (std::fwrite(out.data(), 1, out.size(), file.get()) != out.size()) {
    return Status::Corruption("bsi store: short write");
  }
  if (std::fflush(file.get()) != 0) {
    return Status::Corruption("bsi store: flush failed");
  }
  return Status::OK();
}

Result<BsiStore> BsiStore::LoadFromFile(const std::string& path) {
  // The buffer is sized by the file itself, never by a header field.
  Result<std::string> file =
      fileio::ReadFileToString(path, std::numeric_limits<uint64_t>::max());
  RETURN_IF_ERROR(file.status());
  ByteReader r(file.value());
  uint32_t magic = 0;
  uint64_t count = 0;
  if (!r.ReadU32(&magic) || !r.ReadU64(&count)) {
    return Status::Corruption("bsi store: truncated header");
  }
  if (magic != kStoreMagic) {
    return Status::Corruption("bsi store: bad magic");
  }
  // A hostile count fails here instead of driving a loop of bogus reads.
  constexpr uint64_t kRecordHeaderBytes = 2 + 1 + 8 + 4 + 4;
  if (count > r.remaining() / kRecordHeaderBytes) {
    return Status::Corruption("bsi store: blob count exceeds file size");
  }
  BsiStore store;
  for (uint64_t i = 0; i < count; ++i) {
    BsiStoreKey key;
    uint8_t kind = 0;
    uint32_t len = 0;
    std::string_view bytes;
    if (!r.ReadU16(&key.segment) || !r.ReadU8(&kind) || !r.ReadU64(&key.id) ||
        !r.ReadU32(&key.date) || !r.ReadU32(&len)) {
      return Status::Corruption("bsi store: truncated record header");
    }
    if (kind > 3) return Status::Corruption("bsi store: bad kind byte");
    key.kind = static_cast<BsiKind>(kind);
    if (!r.ReadBytes(len, &bytes)) {
      return Status::Corruption("bsi store: blob length exceeds file size");
    }
    store.Put(key, std::string(bytes));
  }
  if (!r.empty()) return Status::Corruption("bsi store: trailing bytes");
  return store;
}

}  // namespace expbsi
