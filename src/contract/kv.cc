#include "contract/kv.h"

#include <memory>

namespace thunderbolt::contract {

namespace {

using txn::Transaction;

class KvReadContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 1, 0); !s.ok()) co_return s;
    const Key key = KvValueKey(tx.accounts[0]);
    const Value value = co_await ctx.Read(key);
    ctx.EmitResult(value);
    co_return Status::OK();
  }
};

class KvUpdateContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 1, 1); !s.ok()) co_return s;
    const Key key = KvValueKey(tx.accounts[0]);
    co_await ctx.Write(key, tx.params[0]);
    ctx.EmitResult(tx.params[0]);
    co_return Status::OK();
  }
};

class KvRmwContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 1, 1); !s.ok()) co_return s;
    const Key key = KvValueKey(tx.accounts[0]);
    const Value value = co_await ctx.Read(key);
    const Value updated = value + tx.params[0];
    co_await ctx.Write(key, updated);
    ctx.EmitResult(updated);
    co_return Status::OK();
  }
};

class KvTransferContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 2, 1); !s.ok()) co_return s;
    const Key src = KvValueKey(tx.accounts[0]);
    const Key dst = KvValueKey(tx.accounts[1]);
    if (src == dst) {
      // Self-transfer is a no-op; falling through would apply both writes
      // to one key and mint `amount` out of thin air.
      ctx.EmitResult(0);
      co_return Status::OK();
    }
    const Value src_value = co_await ctx.Read(src);
    const Value dst_value = co_await ctx.Read(dst);
    // Clamp at the source balance so records never go negative.
    Value amount = tx.params[0] < src_value ? tx.params[0] : src_value;
    if (amount < 0) amount = 0;
    co_await ctx.Write(src, src_value - amount);
    co_await ctx.Write(dst, dst_value + amount);
    ctx.EmitResult(amount);
    co_return Status::OK();
  }
};

}  // namespace

std::string KvValueKey(const std::string& record) {
  return record + "/value";
}

void RegisterKv(Registry& registry) {
  registry.Register(kKvRead, std::make_unique<KvReadContract>());
  registry.Register(kKvUpdate, std::make_unique<KvUpdateContract>());
  registry.Register(kKvRmw, std::make_unique<KvRmwContract>());
  registry.Register(kKvTransfer, std::make_unique<KvTransferContract>());
}

}  // namespace thunderbolt::contract
