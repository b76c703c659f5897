#ifndef EXPBSI_STORAGE_TIERED_STORE_H_
#define EXPBSI_STORAGE_TIERED_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "storage/bsi_store.h"

namespace expbsi {

// Hot/cold tiering (§5.3): ad-hoc query nodes keep hot data (recent or
// recently visited) on fast local storage and pull cold data from the
// distributed warehouse on demand. Here the cold tier is a BsiStore and the
// hot tier an LRU cache with a byte budget; reads through the cold path are
// accounted as simulated network traffic (an injected delay sleeps, lock
// held, like a slow transfer on the node's one link to the warehouse).
//
// Thread-safe: Fetch / Warm / stats may be called concurrently (ad-hoc query
// nodes serve parallel queries against one shared tier).
class TieredStore {
 public:
  struct Stats {
    uint64_t hot_hits = 0;
    uint64_t cold_reads = 0;
    uint64_t bytes_from_cold = 0;
    uint64_t evictions = 0;
    // Blobs larger than the whole hot budget are served straight from cold
    // without being cached (caching one would evict the entire tier).
    uint64_t oversize_bypasses = 0;
    // Fault injection (chaos tests): injected fetch failures, corruptions
    // and delays observed at this tier.
    uint64_t injected_faults = 0;
    // Integrity gate: fingerprint checks run on cold copies (always for
    // recovery-loaded blobs, and for every copy under an installed
    // injector) and mismatches surfaced as Status::Corruption.
    uint64_t fingerprint_verifications = 0;
    uint64_t fingerprint_mismatches = 0;
  };

  // `cold` must outlive this object. hot_capacity_bytes bounds the hot tier.
  TieredStore(const BsiStore* cold, size_t hot_capacity_bytes);

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  // Fetches a blob, preferring the hot tier. A cold read copies the blob
  // into the hot tier (evicting LRU entries beyond the budget) and adds its
  // size to bytes_from_cold. The returned pointer stays valid until the blob
  // is evicted AND released by all callers (shared ownership).
  Result<std::shared_ptr<const std::string>> Fetch(const BsiStoreKey& key);

  // Pre-warms the hot tier without counting toward query-time stats
  // (the paper keeps data with recent dates hot ahead of queries).
  Status Warm(const BsiStoreKey& key);

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  size_t hot_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hot_bytes_;
  }

 private:
  struct HotEntry {
    std::shared_ptr<const std::string> blob;
    std::list<BsiStoreKey>::iterator lru_it;
  };

  // Loads from cold into hot; does not touch stats. Caller holds mu_.
  Result<std::shared_ptr<const std::string>> LoadFromCold(
      const BsiStoreKey& key);
  void EvictIfNeeded();

  mutable std::mutex mu_;
  const BsiStore* cold_;
  size_t hot_capacity_bytes_;
  size_t hot_bytes_ = 0;
  std::list<BsiStoreKey> lru_;  // front = most recent
  std::unordered_map<BsiStoreKey, HotEntry, BsiStoreKeyHash> hot_;
  Stats stats_;
};

}  // namespace expbsi

#endif  // EXPBSI_STORAGE_TIERED_STORE_H_
