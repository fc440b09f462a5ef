#include "storage/cached_kv_store.h"

#include <cstdint>

#include "common/params.h"

namespace thunderbolt::storage {

CachedKVStore::CachedKVStore(std::unique_ptr<KVStore> inner, size_t capacity)
    : inner_(std::move(inner)), capacity_(capacity == 0 ? 1 : capacity) {}

std::unique_ptr<KVStore> CachedKVStore::FromOptions(
    const StoreOptions& options) {
  size_t capacity = 4096;
  std::string inner_spec = "sorted";
  for (const auto& [key, value] : ParseStoreParams(options.params)) {
    if (key == "capacity") {
      const Result<uint64_t> v = ParseUint(Param{key, value}, SIZE_MAX);
      if (!v.ok()) return nullptr;
      capacity = static_cast<size_t>(*v);
    } else if (key == "inner") {
      inner_spec = value;
    } else {
      return nullptr;  // Unknown param: reject, don't silently ignore.
    }
  }
  StoreOptions inner_options = options;
  inner_options.params.clear();  // The inner spec carries its own params.
  std::unique_ptr<KVStore> inner =
      StoreRegistry::Global().Create(inner_spec, inner_options);
  if (inner == nullptr) return nullptr;
  return std::make_unique<CachedKVStore>(std::move(inner), capacity);
}

bool CachedKVStore::CacheGet(const Key& key, VersionedValue* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // Refresh recency.
  *out = it->second.vv;
  return true;
}

void CachedKVStore::CachePut(const Key& key, const VersionedValue& vv) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.vv = vv;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  map_.emplace(key, CacheEntry{vv, lru_.begin()});
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
}

void CachedKVStore::CacheErase(const Key& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return;
  lru_.erase(it->second.lru);
  map_.erase(it);
}

Result<VersionedValue> CachedKVStore::Get(const Key& key) const {
  ++counters_.gets;
  VersionedValue cached;
  if (CacheGet(key, &cached)) {
    ++counters_.cache_hits;
    return cached;
  }
  ++counters_.cache_misses;
  Result<VersionedValue> r = inner_->Get(key);
  if (r.ok()) CachePut(key, r.value());
  return r;
}

Value CachedKVStore::GetOrDefault(const Key& key, Value default_value) const {
  ++counters_.gets;
  VersionedValue cached;
  if (CacheGet(key, &cached)) {
    ++counters_.cache_hits;
    return cached.value;
  }
  ++counters_.cache_misses;
  // Go through inner Get (not GetOrDefault) to learn presence: only
  // present keys are cached, so absent-key reads stay inner-served.
  Result<VersionedValue> r = inner_->Get(key);
  if (!r.ok()) return default_value;
  CachePut(key, r.value());
  return r.value().value;
}

Status CachedKVStore::Put(const Key& key, Value value) {
  ++counters_.puts;
  CacheErase(key);
  return inner_->Put(key, value);
}

Status CachedKVStore::Delete(const Key& key) {
  ++counters_.deletes;
  CacheErase(key);
  return inner_->Delete(key);
}

Status CachedKVStore::Write(const WriteBatch& batch) {
  ++counters_.batches;
  for (const WriteBatch::Entry& e : batch.entries()) {
    if (e.op == WriteBatch::Op::kDelete) {
      ++counters_.deletes;
    } else {
      ++counters_.puts;
    }
    CacheErase(e.key);
  }
  return inner_->Write(batch);
}

Status CachedKVStore::RestoreEntry(const Key& key, const VersionedValue& vv) {
  CacheErase(key);
  return inner_->RestoreEntry(key, vv);
}

std::vector<ScanEntry> CachedKVStore::Scan(const Key& begin, const Key& end,
                                           size_t limit) const {
  ++counters_.scans;
  return inner_->Scan(begin, end, limit);
}

std::shared_ptr<const StoreSnapshot> CachedKVStore::Snapshot() const {
  ++counters_.snapshots;
  return inner_->Snapshot();
}

std::unique_ptr<KVStore> CachedKVStore::Fork() const {
  ++counters_.forks;
  // The fork starts cold: cache contents are a recency artifact, not
  // state, and sharing them would couple the forks' mutexes.
  return std::make_unique<CachedKVStore>(inner_->Fork(), capacity_);
}

StoreStats CachedKVStore::Stats() const {
  StoreStats stats = counters_.ToStats();
  stats.backend = name();
  // Standard op counters are the wrapper's own (the conformance battery
  // counts API calls at the layer under test); the wrapper-specific
  // fields merge up so a stacked wal-under-cached still reports its log
  // activity through the outermost Stats().
  const StoreStats inner = inner_->Stats();
  stats.live_keys = inner.live_keys;
  stats.cache_hits += inner.cache_hits;
  stats.cache_misses += inner.cache_misses;
  stats.wal_appends += inner.wal_appends;
  stats.wal_syncs += inner.wal_syncs;
  stats.wal_checkpoints += inner.wal_checkpoints;
  stats.wal_recovered_records += inner.wal_recovered_records;
  return stats;
}

}  // namespace thunderbolt::storage
