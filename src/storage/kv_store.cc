#include "storage/kv_store.h"

#include <algorithm>

#include "common/hash.h"
#include "storage/cached_kv_store.h"
#include "storage/cow_kv_store.h"
#include "storage/sorted_kv_store.h"
#include "storage/wal_kv_store.h"

namespace thunderbolt::storage {

namespace {

/// Shared snapshot type for the copying backends: owns an ordered copy of
/// the entries taken at snapshot time.
class OrderedSnapshot final : public StoreSnapshot {
 public:
  explicit OrderedSnapshot(std::map<Key, VersionedValue> entries)
      : entries_(std::move(entries)) {}

  Result<VersionedValue> Get(const Key& key) const override {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("key not found: " + key);
    }
    return it->second;
  }

  Value GetOrDefault(const Key& key, Value default_value) const override {
    auto it = entries_.find(key);
    return it == entries_.end() ? default_value : it->second.value;
  }

  size_t size() const override { return entries_.size(); }

  std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                              size_t limit) const override {
    return ScanOrderedMap(entries_, begin, end, limit);
  }

 private:
  std::map<Key, VersionedValue> entries_;
};

}  // namespace

std::shared_ptr<const StoreSnapshot> MakeOrderedSnapshot(
    std::map<Key, VersionedValue> entries) {
  return std::make_shared<OrderedSnapshot>(std::move(entries));
}

std::vector<ScanEntry> ScanOrderedMap(
    const std::map<Key, VersionedValue>& map, const Key& begin,
    const Key& end, size_t limit) {
  std::vector<ScanEntry> out;
  for (auto it = map.lower_bound(begin); it != map.end(); ++it) {
    if (!end.empty() && it->first >= end) break;
    out.push_back(ScanEntry{it->first, it->second});
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

// --- MemKVStore -------------------------------------------------------------

Result<VersionedValue> MemKVStore::Get(const Key& key) const {
  ++counters_.gets;
  auto it = map_.find(key);
  if (it == map_.end()) {
    return Status::NotFound("key not found: " + key);
  }
  return it->second;
}

Value MemKVStore::GetOrDefault(const Key& key, Value default_value) const {
  ++counters_.gets;
  auto it = map_.find(key);
  return it == map_.end() ? default_value : it->second.value;
}

Status MemKVStore::Put(const Key& key, Value value) {
  ++counters_.puts;
  VersionedValue& vv = map_[key];
  vv.value = value;
  ++vv.version;
  return Status::OK();
}

Status MemKVStore::Delete(const Key& key) {
  ++counters_.deletes;
  map_.erase(key);
  return Status::OK();
}

Status MemKVStore::Write(const WriteBatch& batch) {
  ++counters_.batches;
  // Pre-size only when the batch could grow the table noticeably: bulk
  // loads get at most one rehash, while steady-state overwrite batches
  // (post-commit writes to mostly-live keys) avoid permanently doubling
  // the bucket array for keys that never materialize. try_emplace does a
  // single hash+probe per entry whether the key is fresh or live.
  if (batch.size() > map_.size() / 4) {
    map_.reserve(map_.size() + batch.size());
  }
  for (const WriteBatch::Entry& e : batch.entries()) {
    if (e.op == WriteBatch::Op::kDelete) {
      ++counters_.deletes;
      map_.erase(e.key);
      continue;
    }
    ++counters_.puts;
    VersionedValue& vv = map_.try_emplace(e.key).first->second;
    vv.value = e.value;
    ++vv.version;
  }
  return Status::OK();
}

Status MemKVStore::RestoreEntry(const Key& key, const VersionedValue& vv) {
  map_[key] = vv;
  return Status::OK();
}

std::vector<ScanEntry> MemKVStore::Scan(const Key& begin, const Key& end,
                                        size_t limit) const {
  ++counters_.scans;
  // No native ordering: collect the matching entries, then sort. Backends
  // with real range scans ("sorted", "cow") avoid the full pass.
  std::vector<ScanEntry> out;
  for (const auto& [key, vv] : map_) {
    if (key < begin) continue;
    if (!end.empty() && key >= end) continue;
    out.push_back(ScanEntry{key, vv});
  }
  std::sort(out.begin(), out.end(),
            [](const ScanEntry& a, const ScanEntry& b) {
              return a.key < b.key;
            });
  if (limit != 0 && out.size() > limit) out.resize(limit);
  return out;
}

std::shared_ptr<const StoreSnapshot> MemKVStore::Snapshot() const {
  ++counters_.snapshots;
  return MakeOrderedSnapshot(
      std::map<Key, VersionedValue>(map_.begin(), map_.end()));
}

std::unique_ptr<KVStore> MemKVStore::Fork() const {
  ++counters_.forks;
  auto copy = std::make_unique<MemKVStore>();
  copy->map_.reserve(map_.size());
  copy->map_.insert(map_.begin(), map_.end());
  return copy;
}

uint64_t MemKVStore::ContentFingerprint() const {
  std::vector<const std::pair<const Key, VersionedValue>*> entries;
  entries.reserve(map_.size());
  for (const auto& kv : map_) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  ContentDigest digest;
  for (const auto* kv : entries) {
    digest.Add(kv->first, kv->second.value);
  }
  return digest.Finish();
}

StoreStats MemKVStore::Stats() const {
  StoreStats stats = counters_.ToStats();
  stats.backend = name();
  stats.live_keys = map_.size();
  return stats;
}

// --- StoreRegistry ----------------------------------------------------------

std::vector<std::pair<std::string, std::string>> ParseStoreParams(
    const std::string& params) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < params.size()) {
    const size_t eq = params.find('=', pos);
    const size_t comma = params.find(',', pos);
    if (eq == std::string::npos || (comma != std::string::npos && comma < eq)) {
      // Malformed segment without '=': surface it with an empty value so
      // factories can reject it instead of silently dropping it.
      const size_t end = comma == std::string::npos ? params.size() : comma;
      out.emplace_back(params.substr(pos, end - pos), std::string());
      pos = end == params.size() ? end : end + 1;
      continue;
    }
    const std::string key = params.substr(pos, eq - pos);
    if (key == "inner") {
      // `inner` consumes the rest of the string: its value is a full spec
      // that may itself contain ',' and ':' (nested wrappers).
      out.emplace_back(key, params.substr(eq + 1));
      break;
    }
    const size_t end = comma == std::string::npos ? params.size() : comma;
    out.emplace_back(key, params.substr(eq + 1, end - (eq + 1)));
    pos = end == params.size() ? end : end + 1;
  }
  return out;
}

std::unique_ptr<KVStore> StoreRegistry::Create(
    const std::string& spec, const StoreOptions& options) const {
  const size_t colon = spec.find(':');
  StoreOptions opts = options;
  if (colon != std::string::npos && colon + 1 < spec.size()) {
    opts.params = spec.substr(colon + 1);
  }
  return FactoryRegistry::Create(spec.substr(0, colon), opts);
}

bool StoreRegistry::Contains(const std::string& spec) const {
  return FactoryRegistry::Contains(spec.substr(0, spec.find(':')));
}

StoreRegistry& StoreRegistry::Global() {
  static StoreRegistry* registry = [] {
    auto* r = new StoreRegistry();
    r->Register("mem", [](const StoreOptions&) {
      return std::unique_ptr<KVStore>(new MemKVStore());
    });
    r->Register("sorted", [](const StoreOptions&) {
      return std::unique_ptr<KVStore>(new SortedKVStore());
    });
    r->Register("cow", [](const StoreOptions&) {
      return std::unique_ptr<KVStore>(new CowKVStore());
    });
    r->Register("cached", [](const StoreOptions& options) {
      return CachedKVStore::FromOptions(options);
    });
    r->Register("wal", [](const StoreOptions& options) {
      return WalKVStore::FromOptions(options);
    });
    return r;
  }();
  return *registry;
}

}  // namespace thunderbolt::storage
