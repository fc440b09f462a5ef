// The "cow" storage backend: a persistent (copy-on-write) balanced tree.
//
// Nodes are immutable and shared through shared_ptr; every mutation
// path-copies the O(log n) nodes from the root to the touched key and
// leaves everything else shared. That makes Snapshot() and Fork() O(1) —
// they just retain the current root — where the hash/ordered backends pay
// a full O(n) copy. This is the backend for validation-style pipelines
// that fork state per block (bench_micro BM_StoreFork /
// BM_StoreSnapshot): forking stops scaling with store size.
//
// The tree is a treap keyed by lexicographic key order with priorities
// derived from a fixed 64-bit hash of the key, so its shape is a pure
// function of the live key set — identical across replicas regardless of
// insertion order. Scans are in-order walks with subtree pruning.
#ifndef THUNDERBOLT_STORAGE_COW_KV_STORE_H_
#define THUNDERBOLT_STORAGE_COW_KV_STORE_H_

#include <memory>

#include "storage/kv_store.h"

namespace thunderbolt::storage {

class CowKVStore final : public KVStore {
 public:
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

  struct Node {
    Key key;
    VersionedValue vv;
    uint64_t prio = 0;
    NodePtr left;
    NodePtr right;
    size_t count = 1;  // Subtree size.
  };

  CowKVStore() = default;

  std::string name() const override { return "cow"; }
  Result<VersionedValue> Get(const Key& key) const override;
  Value GetOrDefault(const Key& key, Value default_value) const override;
  Status Put(const Key& key, Value value) override;
  Status Delete(const Key& key) override;
  Status Write(const WriteBatch& batch) override;
  Status RestoreEntry(const Key& key, const VersionedValue& vv) override;
  size_t size() const override;
  std::vector<ScanEntry> Scan(const Key& begin, const Key& end,
                              size_t limit = 0) const override;
  std::shared_ptr<const StoreSnapshot> Snapshot() const override;
  std::unique_ptr<KVStore> Fork() const override;
  uint64_t ContentFingerprint() const override;
  StoreStats Stats() const override;

 private:
  NodePtr root_;
  mutable StoreCounters counters_;
};

}  // namespace thunderbolt::storage

#endif  // THUNDERBOLT_STORAGE_COW_KV_STORE_H_
