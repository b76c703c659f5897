#include "storage/tiered_store.h"

#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/fault_injector.h"
#include "obs/metrics.h"

namespace expbsi {

namespace {

// Registry mirror of the per-instance Stats (docs/OBSERVABILITY.md). The
// per-instance struct stays authoritative -- node-side query execution
// diffs it per request to attribute cold bytes -- while these process-wide
// counters feed the scrape. Both are bumped at the same points.
struct TierMetrics {
  obs::Counter& hot_hits = obs::GetCounter("tier.hot_hits");
  obs::Counter& cold_reads = obs::GetCounter("tier.cold_reads");
  obs::Counter& bytes_from_cold = obs::GetCounter("tier.bytes_from_cold");
  obs::Counter& evictions = obs::GetCounter("tier.evictions");
  obs::Counter& oversize_bypasses = obs::GetCounter("tier.oversize_bypasses");
  obs::Counter& injected_faults = obs::GetCounter("tier.injected_faults");
  obs::Counter& fingerprint_verifications =
      obs::GetCounter("tier.fingerprint_verifications");
  obs::Counter& fingerprint_mismatches =
      obs::GetCounter("tier.fingerprint_mismatches");
  obs::Histogram& cold_blob_bytes = obs::GetHistogram("tier.cold_blob_bytes");
};

TierMetrics& Metrics() {
  static TierMetrics m;
  return m;
}

}  // namespace

TieredStore::TieredStore(const BsiStore* cold, size_t hot_capacity_bytes)
    : cold_(cold), hot_capacity_bytes_(hot_capacity_bytes) {
  CHECK(cold != nullptr);
}

Result<std::shared_ptr<const std::string>> TieredStore::Fetch(
    const BsiStoreKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hot_.find(key);
  if (it != hot_.end()) {
    ++stats_.hot_hits;
    Metrics().hot_hits.Add();
    // Move to the front of the LRU list.
    lru_.erase(it->second.lru_it);
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
    return it->second.blob;
  }
  // Cold path = the simulated network fetch; this is where chaos schedules
  // inject unavailability, latency and bit-flips.
  FaultDecision fault;
  FaultInjector* const fi = FaultInjector::Get();
  if (fi != nullptr) {
    fault = fi->Evaluate(fault_sites::kTierFetch);
    if (fault.delay_seconds > 0) {
      ++stats_.injected_faults;
      Metrics().injected_faults.Add();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fault.delay_seconds));
    }
    if (fault.fail) {
      ++stats_.injected_faults;
      Metrics().injected_faults.Add();
      return Status::Unavailable("tiered store: injected cold-fetch failure");
    }
  }
  if (fault.corrupt) {
    // A corrupted transfer: the flipped copy fails the fingerprint check
    // below and is never cached, so a retry re-reads the warehouse and can
    // succeed. (The bytes still count as network traffic.)
    Result<const std::string*> cold_blob = cold_->Get(key);
    if (!cold_blob.ok()) return cold_blob.status();
    ++stats_.injected_faults;
    ++stats_.cold_reads;
    stats_.bytes_from_cold += cold_blob.value()->size();
    Metrics().injected_faults.Add();
    Metrics().cold_reads.Add();
    Metrics().bytes_from_cold.Add(cold_blob.value()->size());
    Metrics().cold_blob_bytes.Record(cold_blob.value()->size());
    auto corrupted = std::make_shared<std::string>(*cold_blob.value());
    fi->CorruptBlob(stats_.cold_reads, corrupted.get());
    const Result<uint64_t> want = cold_->Fingerprint(key);
    if (!want.ok()) return want.status();
    ++stats_.fingerprint_verifications;
    Metrics().fingerprint_verifications.Add();
    if (BlobFingerprint(*corrupted) != want.value()) {
      ++stats_.fingerprint_mismatches;
      Metrics().fingerprint_mismatches.Add();
      return Status::Corruption(
          "tiered store: transfer fingerprint mismatch");
    }
    // The flips cancelled out (possible but vanishingly rare): the bytes
    // are verified intact, serve them.
    return std::shared_ptr<const std::string>(std::move(corrupted));
  }
  Result<std::shared_ptr<const std::string>> blob = LoadFromCold(key);
  if (blob.ok()) {
    ++stats_.cold_reads;
    stats_.bytes_from_cold += blob.value()->size();
    Metrics().cold_reads.Add();
    Metrics().bytes_from_cold.Add(blob.value()->size());
    Metrics().cold_blob_bytes.Record(blob.value()->size());
  }
  return blob;
}

Status TieredStore::Warm(const BsiStoreKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hot_.find(key) != hot_.end()) return Status::OK();
  Result<std::shared_ptr<const std::string>> blob = LoadFromCold(key);
  return blob.ok() ? Status::OK() : blob.status();
}

Result<std::shared_ptr<const std::string>> TieredStore::LoadFromCold(
    const BsiStoreKey& key) {
  Result<const std::string*> cold_blob = cold_->Get(key);
  if (!cold_blob.ok()) return cold_blob.status();
  auto blob = std::make_shared<const std::string>(*cold_blob.value());
  // Integrity gate: the copy entering the tier must match the fingerprint
  // the warehouse recorded at Put time. An in-process warehouse built this
  // run cannot corrupt a transfer spontaneously, so for those blobs the
  // per-byte hash runs only under an installed injector -- an
  // uninstrumented run stays at one atomic load per fetch. Blobs that came
  // back from disk via Recover() ARE verified unconditionally: they crossed
  // a crash boundary, and the Put-time fingerprint carried through the
  // snapshot is the end-to-end check that recovery handed back the exact
  // pre-crash bytes.
  if (FaultInjector::Get() != nullptr || cold_->WasRecovered(key)) {
    const Result<uint64_t> want = cold_->Fingerprint(key);
    if (!want.ok()) return want.status();
    ++stats_.fingerprint_verifications;
    Metrics().fingerprint_verifications.Add();
    if (BlobFingerprint(*blob) != want.value()) {
      ++stats_.fingerprint_mismatches;
      Metrics().fingerprint_mismatches.Add();
      return Status::Corruption(
          "tiered store: transfer fingerprint mismatch");
    }
  }
  if (blob->size() > hot_capacity_bytes_) {
    // The blob cannot fit even in an empty hot tier; caching it would evict
    // everything else for nothing. Serve it directly from cold.
    ++stats_.oversize_bypasses;
    Metrics().oversize_bypasses.Add();
    return blob;
  }
  lru_.push_front(key);
  hot_.emplace(key, HotEntry{blob, lru_.begin()});
  hot_bytes_ += blob->size();
  EvictIfNeeded();
  return blob;
}

void TieredStore::EvictIfNeeded() {
  while (hot_bytes_ > hot_capacity_bytes_ && lru_.size() > 1) {
    const BsiStoreKey victim = lru_.back();
    lru_.pop_back();
    auto it = hot_.find(victim);
    CHECK(it != hot_.end());
    hot_bytes_ -= it->second.blob->size();
    hot_.erase(it);
    ++stats_.evictions;
    Metrics().evictions.Add();
  }
}

}  // namespace expbsi
