#include "core/payload.h"

#include "core/pending_cross_index.h"

namespace thunderbolt::core {

namespace {

void HashOperation(Sha256& h, const txn::Operation& op) {
  h.UpdateInt<uint8_t>(static_cast<uint8_t>(op.type));
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(op.key.size()));
  h.Update(op.key);
  h.UpdateInt(op.value);
}

void HashTransaction(Sha256& h, const txn::Transaction& tx) {
  Hash256 d = tx.Digest();
  h.Update(d.bytes.data(), d.bytes.size());
}

}  // namespace

Hash256 ThunderboltPayload::ContentDigest() const {
  if (digest_cached_) return digest_cache_;
  Sha256 h;
  h.Update("thunderbolt-payload", 19);
  h.UpdateInt<uint8_t>(static_cast<uint8_t>(kind));
  h.UpdateInt(shard);
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(preplayed.size()));
  for (const PreplayedTxn& p : preplayed) {
    HashTransaction(h, p.tx);
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(p.rw_set.reads.size()));
    for (const txn::Operation& op : p.rw_set.reads) HashOperation(h, op);
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(p.rw_set.writes.size()));
    for (const txn::Operation& op : p.rw_set.writes) HashOperation(h, op);
    h.UpdateInt<uint32_t>(static_cast<uint32_t>(p.emitted.size()));
    for (storage::Value v : p.emitted) h.UpdateInt(v);
  }
  h.UpdateInt<uint32_t>(static_cast<uint32_t>(cross_shard.size()));
  for (const txn::Transaction& tx : cross_shard) HashTransaction(h, tx);
  digest_cache_ = h.Finalize();
  digest_cached_ = true;
  return digest_cache_;
}

uint64_t ThunderboltPayload::SizeBytes() const {
  if (size_cache_ != 0) return size_cache_;
  // Rough wire estimate: a transaction is ~120 bytes; a preplayed entry
  // additionally carries its read/write sets and results.
  uint64_t size = 64;  // Header.
  for (const PreplayedTxn& p : preplayed) {
    size += 120;
    size += 40 * (p.rw_set.reads.size() + p.rw_set.writes.size());
    size += 8 * p.emitted.size();
  }
  size += 120 * cross_shard.size();
  size_cache_ = size;
  return size;
}

const std::vector<uint32_t>& ThunderboltPayload::CrossAccountIds(
    AccountIdTable* table) const {
  if (cross_ids_table_ != table) {
    cross_ids_.clear();
    for (const txn::Transaction& tx : cross_shard) {
      for (const std::string& account : tx.accounts) {
        cross_ids_.push_back(table->Intern(account));
      }
    }
    cross_ids_table_ = table;
  }
  return cross_ids_;
}

}  // namespace thunderbolt::core
