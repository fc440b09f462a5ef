// Versioned key-value storage engine API (v2).
//
// Substitutes for the LevelDB instance the paper uses to hold SmallBank
// account balances. Values are 64-bit integers, matching the paper's data
// model where contract operations are <Read, K> and <Write, K, V> over
// numeric account state. Every committed write bumps the key's version;
// versions drive OCC validation and preplay re-validation.
//
// The API is layered so each consumer sees exactly the capability it needs:
//
//   ReadView       Get/GetOrDefault/size — what execution engines preplay
//                  against (committed base state, or an overlay on it).
//   StoreSnapshot  An immutable point-in-time ReadView with ordered Scan.
//                  Writes to the owning store never show through.
//   KVStore        The full mutable engine: point writes, atomic
//                  WriteBatches (puts + deletes), ordered Scan,
//                  Snapshot()/Fork() (O(1) for "cow", a copy otherwise),
//                  content fingerprinting and Stats().
//
// Implementations register by name in StoreRegistry::Global()
// (common/registry.h), which is how core::Cluster and the bench drivers
// select a backend from a `--store <name>` flag without compile-time
// coupling. Built-ins:
//
//   mem     Hash map. Byte-identical behavior to the historical MemKVStore
//           (determinism baselines carry over); Scan sorts on demand and
//           Snapshot/Fork copy the whole table.
//   sorted  Ordered map (sorted_kv_store.h): real range scans, O(n)
//           snapshots.
//   cow     Persistent copy-on-write treap (cow_kv_store.h): Snapshot()
//           and Fork() are O(1) structural sharing — the backend for
//           validation-style workloads that fork state per block.
//   cached  Bounded LRU row cache layered over another backend
//           (cached_kv_store.h): point reads hit the cache, writes
//           invalidate; hit/miss counters in Stats().
//   wal     Append-only CRC-framed group-committed log + checkpoints over
//           another backend (wal_kv_store.h): survives kill -9 via replay,
//           tolerating a torn tail.
//
// Backend *specs* extend plain names with parameters:
// "wal:group_commit=4,inner=cached:capacity=512,inner=sorted" — everything
// after the first ':' goes to the factory as StoreOptions::params (see
// ParseStoreParams). The `inner=` key, when present, must come last: its
// value is itself a full spec, consuming the rest of the string, which is
// what makes wrapper nesting expressible without quoting.
#ifndef THUNDERBOLT_STORAGE_KV_STORE_H_
#define THUNDERBOLT_STORAGE_KV_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/registry.h"
#include "common/result.h"
#include "common/status.h"

namespace thunderbolt::obs {
class Tracer;  // obs/trace.h; wrapper backends emit wal.* spans through it.
}  // namespace thunderbolt::obs

namespace thunderbolt::storage {

using Key = std::string;
using Value = int64_t;
using Version = uint64_t;

/// A value together with the version at which it was written.
struct VersionedValue {
  Value value = 0;
  Version version = 0;

  friend bool operator==(const VersionedValue& a, const VersionedValue& b) {
    return a.value == b.value && a.version == b.version;
  }
};

/// One key/value pair returned by a range scan, in key order.
struct ScanEntry {
  Key key;
  VersionedValue value;
};

/// An atomically applied sequence of puts and deletes, applied in order
/// (a later entry for the same key wins; every put bumps the version).
class WriteBatch {
 public:
  enum class Op : uint8_t { kPut = 0, kDelete = 1 };

  void Put(Key key, Value value) {
    ops_.push_back(Entry{std::move(key), value, Op::kPut});
  }
  void Delete(Key key) {
    ops_.push_back(Entry{std::move(key), 0, Op::kDelete});
  }
  void Clear() { ops_.clear(); }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  struct Entry {
    Key key;
    Value value = 0;
    Op op = Op::kPut;
  };
  const std::vector<Entry>& entries() const { return ops_; }

 private:
  std::vector<Entry> ops_;
};

/// Read-only view of versioned state: the minimal interface execution
/// engines run against. Implemented by every store, every snapshot, and by
/// ad-hoc overlays (e.g. the proposer's speculative preplay view).
class ReadView {
 public:
  virtual ~ReadView() = default;

  /// Returns the current value+version, or NotFound.
  virtual Result<VersionedValue> Get(const Key& key) const = 0;

  /// Returns the value, or `default_value` when the key is absent (reads of
  /// fresh SmallBank accounts start from zero balances).
  virtual Value GetOrDefault(const Key& key, Value default_value) const = 0;

  /// Number of live keys.
  virtual size_t size() const = 0;
};

/// Immutable point-in-time view of a store. Obtained from
/// KVStore::Snapshot(); later writes to the store never show through.
class StoreSnapshot : public ReadView {
 public:
  /// All entries with `begin` <= key < `end`, in ascending key order. An
  /// empty `end` means "to the last key"; `limit` 0 means unlimited.
  virtual std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                                      size_t limit = 0) const = 0;
};

/// Operation counters every backend maintains (monitoring surface; also
/// how tests assert a backend actually took the cheap path).
struct StoreStats {
  std::string backend;       // Registry name.
  uint64_t live_keys = 0;
  uint64_t gets = 0;         // Get + GetOrDefault calls.
  uint64_t puts = 0;         // Put calls + batch put entries.
  uint64_t deletes = 0;      // Delete calls + batch delete entries.
  uint64_t batches = 0;      // Write() calls.
  uint64_t scans = 0;        // Scan() calls (store-level).
  uint64_t snapshots = 0;    // Snapshot() calls.
  uint64_t forks = 0;        // Fork() calls.

  // Wrapper-backend fields: zero unless a "cached" / "wal" layer is in the
  // stack (wrappers merge these up from their inner store, so the outermost
  // Stats() sees the whole stack).
  uint64_t cache_hits = 0;          // cached: point reads served from cache.
  uint64_t cache_misses = 0;        // cached: point reads forwarded to inner.
  uint64_t wal_appends = 0;         // wal: frames appended to the log.
  uint64_t wal_syncs = 0;           // wal: group-commit flush barriers.
  uint64_t wal_checkpoints = 0;     // wal: checkpoints written.
  uint64_t wal_recovered_records = 0;  // wal: entries+frames replayed at open.
};

/// Atomic twin of the StoreStats counter fields, used as the backends'
/// internal counter storage. Get/GetOrDefault are const yet count, which
/// makes the counters the one piece of store state mutated under
/// concurrent readers (thread executor pool workers all read the base
/// view); atomics keep that race-free without serializing reads.
///
/// Read-side tearing contract: ToStats() loads each atomic independently
/// with relaxed ordering — it is NOT a consistent cut across counters.
/// Under concurrent mutation a snapshot can pair a newer value of one
/// counter with an older value of another (e.g. cache_hits incremented by
/// an in-flight Get whose `gets` bump the snapshot missed, momentarily
/// showing hits + misses > gets). What IS guaranteed: each individual
/// counter is monotone non-decreasing across successive snapshots, no load
/// ever observes a torn/partial value, and a quiescent store snapshots
/// exactly. Derived cross-counter identities (hit-rate denominators,
/// hits + misses == gets) therefore only hold at quiescence — assert them
/// after joining workers, never mid-run. store_counters_concurrency_test
/// runs this contract under TSan.
struct StoreCounters {
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> snapshots{0};
  std::atomic<uint64_t> forks{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_syncs{0};
  std::atomic<uint64_t> wal_checkpoints{0};
  std::atomic<uint64_t> wal_recovered_records{0};

  // Copyable (atomics are not, by default) so stores keep their implicit
  // copy/move: tests copy a seeded MemKVStore to run a second engine or a
  // serial reference on the same state, and testutil::MakeStore returns
  // one by value. Copying is only meaningful on quiescent stores.
  StoreCounters() = default;
  StoreCounters(const StoreCounters& other) { *this = other; }
  StoreCounters& operator=(const StoreCounters& other) {
    gets = other.gets.load(std::memory_order_relaxed);
    puts = other.puts.load(std::memory_order_relaxed);
    deletes = other.deletes.load(std::memory_order_relaxed);
    batches = other.batches.load(std::memory_order_relaxed);
    scans = other.scans.load(std::memory_order_relaxed);
    snapshots = other.snapshots.load(std::memory_order_relaxed);
    forks = other.forks.load(std::memory_order_relaxed);
    cache_hits = other.cache_hits.load(std::memory_order_relaxed);
    cache_misses = other.cache_misses.load(std::memory_order_relaxed);
    wal_appends = other.wal_appends.load(std::memory_order_relaxed);
    wal_syncs = other.wal_syncs.load(std::memory_order_relaxed);
    wal_checkpoints = other.wal_checkpoints.load(std::memory_order_relaxed);
    wal_recovered_records =
        other.wal_recovered_records.load(std::memory_order_relaxed);
    return *this;
  }

  /// Snapshot into the plain struct (`backend`/`live_keys` are filled in
  /// by the store's Stats()). Subject to the tearing contract above.
  StoreStats ToStats() const {
    StoreStats stats;
    stats.gets = gets.load(std::memory_order_relaxed);
    stats.puts = puts.load(std::memory_order_relaxed);
    stats.deletes = deletes.load(std::memory_order_relaxed);
    stats.batches = batches.load(std::memory_order_relaxed);
    stats.scans = scans.load(std::memory_order_relaxed);
    stats.snapshots = snapshots.load(std::memory_order_relaxed);
    stats.forks = forks.load(std::memory_order_relaxed);
    stats.cache_hits = cache_hits.load(std::memory_order_relaxed);
    stats.cache_misses = cache_misses.load(std::memory_order_relaxed);
    stats.wal_appends = wal_appends.load(std::memory_order_relaxed);
    stats.wal_syncs = wal_syncs.load(std::memory_order_relaxed);
    stats.wal_checkpoints = wal_checkpoints.load(std::memory_order_relaxed);
    stats.wal_recovered_records =
        wal_recovered_records.load(std::memory_order_relaxed);
    return stats;
  }
};

/// Abstract storage engine interface. Implementations must apply
/// WriteBatches atomically with respect to snapshots: a snapshot taken
/// before Write() observes none of the batch.
class KVStore : public ReadView {
 public:
  /// Registry name ("mem", "sorted", "cow").
  virtual std::string name() const = 0;

  /// Single-key write; bumps the key's version (fresh keys start at 1).
  virtual Status Put(const Key& key, Value value) = 0;

  /// Removes the key and its version state; a later Put restarts the
  /// version at 1. Deleting an absent key is a no-op.
  virtual Status Delete(const Key& key) = 0;

  /// Atomically applies all entries in the batch, in order — a later entry
  /// for the same key wins (last-op-wins), every put bumps the version, a
  /// delete then re-put within one batch restarts the version at 1 exactly
  /// as the split point operations would. Pinned across every backend by
  /// the conformance battery's SameKeyBatchOrdering case.
  virtual Status Write(const WriteBatch& batch) = 0;

  /// Writes `key` with an exact value AND version, bypassing the bump
  /// semantics of Put. This is the checkpoint/recovery restore path: the
  /// "wal" backend must reconstruct versions byte-identically (OCC
  /// validation depends on them), which Put's version-bump cannot express.
  /// Not a general-purpose API — normal writers use Put/Write.
  virtual Status RestoreEntry(const Key& key, const VersionedValue& vv) = 0;

  /// Durability barrier: flushes any buffered writes to stable storage.
  /// Volatile backends are trivially durable-to-their-lifetime and return
  /// OK; the "wal" backend flushes its group-commit buffer.
  virtual Status Flush() { return Status::OK(); }

  /// All entries with `begin` <= key < `end`, ascending by key. An empty
  /// `end` means "to the last key"; `limit` 0 means unlimited. Backends
  /// without native ordering (mem) sort on demand.
  virtual std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                                      size_t limit = 0) const = 0;

  /// Immutable point-in-time view. O(1) for "cow", O(n) copy otherwise.
  virtual std::shared_ptr<const StoreSnapshot> Snapshot() const = 0;

  /// Independent mutable copy (forks validator state). O(1) structural
  /// sharing for "cow", deep copy otherwise.
  virtual std::unique_ptr<KVStore> Fork() const = 0;

  /// Capacity hint: pre-sizes internal structures for `expected_keys` live
  /// keys so bulk loads (workload InitStore, large WriteBatches) avoid
  /// incremental rehashing. Backends without a useful notion of capacity
  /// ignore it.
  virtual void Reserve(size_t expected_keys) { (void)expected_keys; }

  /// Content digest over sorted (key, value) pairs; used by tests to
  /// assert replica state convergence. Identical across backends holding
  /// the same content (versions are excluded, matching the historical
  /// MemKVStore digest).
  virtual uint64_t ContentFingerprint() const = 0;

  /// Operation counters + live size (see StoreStats).
  virtual StoreStats Stats() const = 0;
};

/// In-memory versioned KV store over a hash table — the "mem" backend,
/// byte-identical in behavior to the historical MemKVStore. Not internally
/// synchronized: in the discrete-event simulation each replica owns its
/// store and all access is single-threaded per replica (validation worker
/// pools copy snapshots).
class MemKVStore final : public KVStore {
 public:
  MemKVStore() = default;

  std::string name() const override { return "mem"; }
  Result<VersionedValue> Get(const Key& key) const override;
  Value GetOrDefault(const Key& key, Value default_value) const override;
  Status Put(const Key& key, Value value) override;
  Status Delete(const Key& key) override;
  Status Write(const WriteBatch& batch) override;
  Status RestoreEntry(const Key& key, const VersionedValue& vv) override;
  size_t size() const override { return map_.size(); }
  std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                              size_t limit = 0) const override;
  std::shared_ptr<const StoreSnapshot> Snapshot() const override;
  std::unique_ptr<KVStore> Fork() const override;
  void Reserve(size_t expected_keys) override { map_.reserve(expected_keys); }
  uint64_t ContentFingerprint() const override;
  StoreStats Stats() const override;

 private:
  std::unordered_map<Key, VersionedValue> map_;
  mutable StoreCounters counters_;
};

/// The one content-digest scheme every backend's ContentFingerprint must
/// produce: feed the live entries in ascending key order, then Finish().
/// Cross-backend fingerprint agreement (store conformance, determinism
/// and cross-engine tests) depends on this being the single definition.
class ContentDigest {
 public:
  void Add(const Key& key, Value value) {
    hash_.Update(key);
    hash_.UpdateInt(value);
  }
  uint64_t Finish() { return hash_.Finalize().Prefix64(); }

 private:
  Sha256 hash_;
};

/// Range-scan over an ordered map: entries with `begin` <= key < `end`
/// (empty `end` = unbounded), up to `limit` (0 = unlimited). Shared by the
/// std::map-backed backends and snapshots.
std::vector<ScanEntry> ScanOrderedMap(const std::map<Key, VersionedValue>& map,
                                      const Key& begin, const Key& end,
                                      size_t limit);

/// Wraps an ordered entry copy as an immutable StoreSnapshot (the O(n)
/// snapshot strategy shared by "mem" and "sorted").
std::shared_ptr<const StoreSnapshot> MakeOrderedSnapshot(
    std::map<Key, VersionedValue> entries);

/// Everything a store factory may consume.
struct StoreOptions {
  /// Backend-specific parameters, the part of a spec after the first ':'
  /// ("group_commit=4,inner=sorted"). Plain backends ignore it; wrappers
  /// parse it with ParseStoreParams.
  std::string params;

  /// Trace sink for wal.append / wal.checkpoint / wal.recover spans.
  /// nullptr means untraced (wrappers fall back to the null tracer).
  obs::Tracer* tracer = nullptr;

  /// Clock for span timestamps, in microseconds. The cluster wires the
  /// deterministic SimTime clock here so store spans land on the same
  /// timeline as the txn/batch spans; absent, spans carry ts 0.
  std::function<uint64_t()> now_us;
};

/// Splits a params string ("a=1,b=2,inner=wal:inner=mem") into key/value
/// pairs in order. `inner` is the one recursive key: its value is a full
/// backend spec, so it consumes the remainder of the string and must come
/// last. Malformed segments (no '=') are returned with an empty value.
std::vector<std::pair<std::string, std::string>> ParseStoreParams(
    const std::string& params);

/// Name -> factory registry (common/registry.h). `Global()` is preloaded
/// with the built-in backends ("mem", "sorted", "cow", "cached", "wal").
///
/// Create/Contains accept full *specs*: "wal:inner=sorted" resolves the
/// factory registered as "wal" and passes "inner=sorted" through
/// StoreOptions::params (any params already present in `options` are
/// overwritten by the spec's). Register takes a plain name, no ':'.
class StoreRegistry : public FactoryRegistry<KVStore, const StoreOptions&> {
 public:
  /// Instantiates the backend named by `spec` (plain name or
  /// "name:params"), or nullptr for unknown names and for params the
  /// backend rejects.
  std::unique_ptr<KVStore> Create(const std::string& spec,
                                  const StoreOptions& options = {}) const;

  /// True when the spec's base name is registered (params unvalidated).
  bool Contains(const std::string& spec) const;

  /// The process-wide registry, preloaded with the built-ins.
  static StoreRegistry& Global();
};

}  // namespace thunderbolt::storage

#endif  // THUNDERBOLT_STORAGE_KV_STORE_H_
