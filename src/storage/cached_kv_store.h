// The "cached" storage backend: a bounded LRU row cache over another store.
//
// Spec: cached:capacity=<rows>,inner=<spec>   (defaults: 4096, "sorted")
//
// Point reads (Get/GetOrDefault) consult the cache first and fall through
// to the inner backend on a miss, caching present keys; writes invalidate
// the touched keys so the cache never serves stale rows. Only positive
// entries are cached — absent keys always hit the inner store — and scans,
// snapshots and fingerprints delegate entirely, so the wrapper changes the
// cost profile of the point-read path and nothing else (the conformance
// battery runs the full model check against it like any plain backend).
//
// Hit/miss counters surface through Stats().cache_hits/cache_misses and,
// via core::Cluster, through obs::MetricsRegistry as store.cache_hits /
// store.cache_misses.
//
// Thread-safety matches the StoreCounters idiom: const point reads are the
// one path concurrent workers share, and they mutate the LRU recency list,
// so the cache map+list are guarded by one mutex. Mutations follow the
// store-wide single-writer contract.
#ifndef THUNDERBOLT_STORAGE_CACHED_KV_STORE_H_
#define THUNDERBOLT_STORAGE_CACHED_KV_STORE_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "storage/kv_store.h"

namespace thunderbolt::storage {

class CachedKVStore final : public KVStore {
 public:
  /// Wraps `inner` with a cache of at most `capacity` rows (min 1).
  CachedKVStore(std::unique_ptr<KVStore> inner, size_t capacity);

  /// Registry factory: parses StoreOptions::params
  /// ("capacity=<n>,inner=<spec>"). Returns nullptr on unknown params, a
  /// malformed capacity or an unresolvable inner spec.
  static std::unique_ptr<KVStore> FromOptions(const StoreOptions& options);

  std::string name() const override { return "cached"; }
  Result<VersionedValue> Get(const Key& key) const override;
  Value GetOrDefault(const Key& key, Value default_value) const override;
  Status Put(const Key& key, Value value) override;
  Status Delete(const Key& key) override;
  Status Write(const WriteBatch& batch) override;
  Status RestoreEntry(const Key& key, const VersionedValue& vv) override;
  Status Flush() override { return inner_->Flush(); }
  size_t size() const override { return inner_->size(); }
  std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                              size_t limit = 0) const override;
  std::shared_ptr<const StoreSnapshot> Snapshot() const override;
  std::unique_ptr<KVStore> Fork() const override;
  void Reserve(size_t expected_keys) override {
    inner_->Reserve(expected_keys);
  }
  uint64_t ContentFingerprint() const override {
    return inner_->ContentFingerprint();
  }
  StoreStats Stats() const override;

  size_t capacity() const { return capacity_; }

 private:
  struct CacheEntry {
    VersionedValue vv;
    std::list<Key>::iterator lru;  // Position in lru_ (front = most recent).
  };

  /// Cache lookup; on hit copies the row into *out and refreshes recency.
  bool CacheGet(const Key& key, VersionedValue* out) const;
  /// Inserts/overwrites a row, evicting from the LRU tail past capacity.
  void CachePut(const Key& key, const VersionedValue& vv) const;
  void CacheErase(const Key& key);

  std::unique_ptr<KVStore> inner_;
  const size_t capacity_;
  mutable std::mutex mu_;                 // Guards map_ + lru_.
  mutable std::unordered_map<Key, CacheEntry> map_;
  mutable std::list<Key> lru_;
  mutable StoreCounters counters_;
};

}  // namespace thunderbolt::storage

#endif  // THUNDERBOLT_STORAGE_CACHED_KV_STORE_H_
