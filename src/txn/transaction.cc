#include "txn/transaction.h"

#include <algorithm>
#include <unordered_set>

namespace thunderbolt::txn {

bool ReadWriteSet::ConflictsWith(const ReadWriteSet& other) const {
  std::unordered_set<std::string_view> my_writes;
  for (const Operation& w : writes) my_writes.insert(w.key);
  for (const Operation& w : other.writes) {
    if (my_writes.count(w.key)) return true;
  }
  for (const Operation& r : other.reads) {
    if (my_writes.count(r.key)) return true;
  }
  std::unordered_set<std::string_view> their_writes;
  for (const Operation& w : other.writes) their_writes.insert(w.key);
  for (const Operation& r : reads) {
    if (their_writes.count(r.key)) return true;
  }
  return false;
}

std::vector<Key> ReadWriteSet::WrittenKeys() const {
  std::vector<Key> keys;
  keys.reserve(writes.size());
  for (const Operation& w : writes) keys.push_back(w.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

Hash256 Transaction::Digest() const {
  Sha256 h;
  h.UpdateInt(id);
  h.Update(contract);
  for (const std::string& a : accounts) {
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(a.size()));
    h.Update(a);
  }
  for (Value v : params) h.UpdateInt(v);
  return h.Finalize();
}

ShardMapper::ShardMapper(uint32_t num_shards)
    : policy_(std::make_shared<placement::HashPlacement>(num_shards)) {}

ShardMapper::ShardMapper(
    std::shared_ptr<const placement::PlacementPolicy> policy)
    : policy_(std::move(policy)) {}

ShardId ShardMapper::ShardOfKey(const Key& key) const {
  size_t slash = key.find('/');
  if (slash == std::string::npos) return ShardOfAccount(key);
  return ShardOfAccount(key.substr(0, slash));
}

std::vector<ShardId> ShardMapper::ShardsOf(const Transaction& tx) const {
  std::vector<ShardId> shards;
  shards.reserve(tx.accounts.size());
  for (const std::string& a : tx.accounts) {
    shards.push_back(ShardOfAccount(a));
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

std::string CheckingKey(const std::string& account) {
  return account + "/checking";
}

std::string SavingsKey(const std::string& account) {
  return account + "/savings";
}

}  // namespace thunderbolt::txn
