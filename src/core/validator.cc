#include "core/validator.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace thunderbolt::core {

namespace {

using storage::Key;
using storage::Value;

/// The block's writes so far (last writer per key in scheduled order),
/// keyed by views of key strings the payload owns.
using BlockWrites = std::unordered_map<std::string_view, Value>;

constexpr size_t kNotDeclared = ~size_t{0};

/// Index of the first operation on `key` in `ops`, or kNotDeclared.
size_t FirstIndexOf(const std::vector<txn::Operation>& ops,
                    std::string_view key) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].key == key) return i;
  }
  return kNotDeclared;
}

/// Context that replays a block's transactions, one at a time, against
/// base + earlier block writes, verifying every read against the declared
/// read set. It tracks reads and writes by index into the declared sets
/// and is reused across the block, so a valid replay allocates nothing
/// per operation; only an undeclared write (an invalid or forged block)
/// copies its key.
class ValidationContext final : public contract::ContractContext {
 public:
  ValidationContext(const storage::ReadView* base,
                    const BlockWrites* block_writes)
      : base_(base), block_writes_(block_writes) {}

  /// Starts the replay of a transaction that declared `declared`.
  void Reset(const txn::ReadWriteSet* declared) {
    declared_ = declared;
    ops = 0;
    mismatch.clear();
    read_checked_.assign(declared->reads.size(), 0);
    written.assign(declared->writes.size(), std::nullopt);
    undeclared_writes.clear();
  }

  Result<Value> DoRead(const Key& key) override {
    ++ops;
    if (const Value* own = LocalWrite(key)) {
      // Read-your-own-write: served locally; the CC records no read for
      // keys the transaction wrote first, so no declared entry exists.
      return *own;
    }
    auto bit = block_writes_->find(key);
    Value actual = (bit != block_writes_->end())
                       ? bit->second
                       : base_->GetOrDefault(key, 0);
    // The declared read set records the *first* read per key, so only the
    // first read of each key is checked.
    const size_t i = FirstIndexOf(declared_->reads, key);
    if (i == kNotDeclared) {
      mismatch = "undeclared read of " + key;
      return Status::Corruption(mismatch);
    }
    if (read_checked_[i]) return actual;
    read_checked_[i] = 1;
    if (declared_->reads[i].value != actual) {
      mismatch = "read mismatch on " + key + ": declared " +
                 std::to_string(declared_->reads[i].value) + " actual " +
                 std::to_string(actual);
      return Status::Corruption(mismatch);
    }
    return actual;
  }

  Status DoWrite(const Key& key, Value value) override {
    ++ops;
    const size_t i = FirstIndexOf(declared_->writes, key);
    if (i != kNotDeclared) {
      written[i] = value;
      return Status::OK();
    }
    for (auto& [k, v] : undeclared_writes) {
      if (k == key) {
        v = value;
        return Status::OK();
      }
    }
    undeclared_writes.emplace_back(key, value);
    return Status::OK();
  }

  uint64_t ops = 0;
  std::string mismatch;
  /// Final value per declared write; a key the declared writes repeat is
  /// written at its first index.
  std::vector<std::optional<Value>> written;
  std::vector<std::pair<Key, Value>> undeclared_writes;

 private:
  const Value* LocalWrite(const Key& key) const {
    const size_t i = FirstIndexOf(declared_->writes, key);
    if (i != kNotDeclared) return written[i] ? &*written[i] : nullptr;
    for (const auto& [k, v] : undeclared_writes) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  const storage::ReadView* base_;
  const BlockWrites* block_writes_;
  const txn::ReadWriteSet* declared_ = nullptr;
  std::vector<uint8_t> read_checked_;  // Per declared read.
};

}  // namespace

ValidationResult ValidatePreplay(const contract::Registry& registry,
                                 const std::vector<PreplayedTxn>& preplayed,
                                 const storage::ReadView& base) {
  ValidationResult result;
  BlockWrites block_writes;
  // Owns the keys of undeclared writes, which a valid block still carries
  // when its declared writes repeat a key.
  std::deque<Key> undeclared_keys;
  ValidationContext ctx(&base, &block_writes);

  for (const PreplayedTxn& p : preplayed) {
    ctx.Reset(&p.rw_set);
    Status s = registry.Execute(p.tx, ctx);
    result.ops += ctx.ops;
    if (!s.ok() && !s.IsCorruption()) {
      // Contract-level failure must also have produced an empty declared
      // write set; treat declared-nonempty as invalid.
      if (!p.rw_set.writes.empty()) {
        result.valid = false;
        result.failure = "failed contract declared writes: " + s.ToString();
        return result;
      }
      continue;
    }
    if (!s.ok()) {
      result.valid = false;
      result.failure = ctx.mismatch.empty() ? s.ToString() : ctx.mismatch;
      return result;
    }
    // Re-executed writes must match the declared write set exactly: as
    // many distinct keys, and each declared key's final value.
    const std::vector<txn::Operation>& declared = p.rw_set.writes;
    const size_t local_writes =
        ctx.undeclared_writes.size() +
        static_cast<size_t>(std::count_if(
            ctx.written.begin(), ctx.written.end(),
            [](const std::optional<Value>& w) { return w.has_value(); }));
    if (local_writes != declared.size()) {
      result.valid = false;
      result.failure = "write-set size mismatch for txn " +
                       std::to_string(p.tx.id);
      return result;
    }
    for (const txn::Operation& op : declared) {
      if (ctx.written[FirstIndexOf(declared, op.key)] != op.value) {
        result.valid = false;
        result.failure = "write mismatch on " + op.key;
        return result;
      }
    }
    for (size_t i = 0; i < declared.size(); ++i) {
      if (ctx.written[i]) block_writes[declared[i].key] = *ctx.written[i];
    }
    for (auto& [key, value] : ctx.undeclared_writes) {
      undeclared_keys.push_back(std::move(key));
      block_writes[undeclared_keys.back()] = value;
    }
  }

  // Final write batch: last writer per key in scheduled order.
  std::vector<std::pair<std::string_view, Value>> entries(
      block_writes.begin(), block_writes.end());
  std::sort(entries.begin(), entries.end());
  for (const auto& [key, value] : entries) {
    result.writes.Put(Key(key), value);
  }
  return result;
}

uint32_t ValidationCriticalPath(const std::vector<PreplayedTxn>& preplayed) {
  // Longest conflict chain: depth(t) = 1 + max depth over earlier
  // transactions whose declared sets conflict with t's. The deepest
  // writer and reader of each key are keyed by views of the payload's
  // key strings.
  std::unordered_map<std::string_view, uint32_t> writer_depth;
  std::unordered_map<std::string_view, uint32_t> reader_depth;
  uint32_t critical = 0;
  for (const PreplayedTxn& p : preplayed) {
    uint32_t depth = 0;
    for (const txn::Operation& op : p.rw_set.reads) {
      auto it = writer_depth.find(op.key);
      if (it != writer_depth.end()) depth = std::max(depth, it->second);
    }
    for (const txn::Operation& op : p.rw_set.writes) {
      auto it = writer_depth.find(op.key);
      if (it != writer_depth.end()) depth = std::max(depth, it->second);
      auto rit = reader_depth.find(op.key);
      if (rit != reader_depth.end()) depth = std::max(depth, rit->second);
    }
    uint32_t mine = depth + 1;
    critical = std::max(critical, mine);
    for (const txn::Operation& op : p.rw_set.reads) {
      uint32_t& d = reader_depth[op.key];
      d = std::max(d, mine);
    }
    for (const txn::Operation& op : p.rw_set.writes) {
      uint32_t& d = writer_depth[op.key];
      d = std::max(d, mine);
    }
  }
  return critical;
}

}  // namespace thunderbolt::core
