#include "contract/tbvm.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "contract/contract.h"
#include "contract/smallbank.h"
#include "storage/kv_store.h"
#include "testutil/testutil.h"
#include "txn/transaction.h"

namespace thunderbolt::contract {
namespace {

using storage::Key;
using storage::Value;

class VmContext final : public ContractContext {
 public:
  explicit VmContext(storage::MemKVStore* store) : store_(store) {}
  Result<Value> DoRead(const Key& key) override {
    reads.push_back(key);
    return store_->GetOrDefault(key, 0);
  }
  Status DoWrite(const Key& key, Value value) override {
    writes.push_back(key);
    return store_->Put(key, value);
  }
  void EmitResult(Value value) override { results.push_back(value); }

  std::vector<Key> reads, writes;
  std::vector<Value> results;

 private:
  storage::MemKVStore* store_;
};

txn::Transaction Tx(std::vector<std::string> accounts,
                    std::vector<Value> params = {}) {
  txn::Transaction tx;
  tx.id = 1;
  tx.accounts = std::move(accounts);
  tx.params = std::move(params);
  return tx;
}

TEST(TbvmTest, ArithmeticAndEmit) {
  TbProgram p;
  p.code = {
      {TbOp::kLoadImm, 0, 0, 0, 6},
      {TbOp::kLoadImm, 1, 0, 0, 7},
      {TbOp::kMul, 2, 0, 1},
      {TbOp::kEmit, 2, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  storage::MemKVStore store;
  VmContext ctx(&store);
  ASSERT_TRUE(RunTbProgram(p, Tx({}), ctx).Run().ok());
  ASSERT_EQ(ctx.results.size(), 1u);
  EXPECT_EQ(ctx.results[0], 42);
}

TEST(TbvmTest, ConditionalBranching) {
  // Emits 1 if param0 < param1 else 0.
  TbProgram p;
  p.code = {
      {TbOp::kLoadParam, 0, 0, 0, 0},
      {TbOp::kLoadParam, 1, 0, 0, 1},
      {TbOp::kJlt, 0, 1, 0, 5},
      {TbOp::kLoadImm, 2, 0, 0, 0},
      {TbOp::kJmp, 0, 0, 0, 6},
      {TbOp::kLoadImm, 2, 0, 0, 1},
      {TbOp::kEmit, 2, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  storage::MemKVStore store;
  {
    VmContext ctx(&store);
    ASSERT_TRUE(RunTbProgram(p, Tx({}, {3, 9}), ctx).Run().ok());
    EXPECT_EQ(ctx.results[0], 1);
  }
  {
    VmContext ctx(&store);
    ASSERT_TRUE(RunTbProgram(p, Tx({}, {9, 3}), ctx).Run().ok());
    EXPECT_EQ(ctx.results[0], 0);
  }
}

TEST(TbvmTest, DataDependentAccessPattern) {
  // Reads a counter and only writes when it is non-zero: the write set
  // depends on runtime state, the property Thunderbolt's CE relies on.
  TbProgram p;
  p.suffixes = {"counter", "log"};
  p.code = {
      {TbOp::kMakeKey, 0, 0, 0},      // k0 = a/counter
      {TbOp::kRead, 0, 0, 0},         // r0 = [k0]
      {TbOp::kJz, 0, 0, 0, 5},        // skip write when zero
      {TbOp::kMakeKey, 1, 0, 1},      // k1 = a/log
      {TbOp::kWrite, 1, 0, 0},        // [k1] = r0
      {TbOp::kHalt, 0, 0, 0},
  };
  storage::MemKVStore store;
  {
    VmContext ctx(&store);
    ASSERT_TRUE(RunTbProgram(p, Tx({"a"}), ctx).Run().ok());
    EXPECT_TRUE(ctx.writes.empty());
  }
  store.Put("a/counter", 5);
  {
    VmContext ctx(&store);
    ASSERT_TRUE(RunTbProgram(p, Tx({"a"}), ctx).Run().ok());
    ASSERT_EQ(ctx.writes.size(), 1u);
    EXPECT_EQ(store.GetOrDefault("a/log", 0), 5);
  }
}

TEST(TbvmTest, StepBudgetStopsInfiniteLoop) {
  TbProgram p;
  p.step_budget = 1000;
  p.code = {{TbOp::kJmp, 0, 0, 0, 0}};  // while(true);
  storage::MemKVStore store;
  VmContext ctx(&store);
  Status s = RunTbProgram(p, Tx({}), ctx).Run();
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(TbvmTest, DivisionByZeroFails) {
  TbProgram p;
  p.code = {
      {TbOp::kLoadImm, 0, 0, 0, 1},
      {TbOp::kLoadImm, 1, 0, 0, 0},
      {TbOp::kDiv, 2, 0, 1},
  };
  storage::MemKVStore store;
  VmContext ctx(&store);
  EXPECT_TRUE(RunTbProgram(p, Tx({}), ctx).Run().IsInvalidArgument());
}

TEST(TbvmTest, MalformedProgramsRejected) {
  storage::MemKVStore store;
  {
    TbProgram p;  // Param index out of range.
    p.code = {{TbOp::kLoadParam, 0, 0, 0, 3}};
    VmContext ctx(&store);
    EXPECT_TRUE(RunTbProgram(p, Tx({}, {}), ctx).Run().IsInvalidArgument());
  }
  {
    TbProgram p;  // Read from unset key register.
    p.code = {{TbOp::kRead, 0, 2, 0}};
    VmContext ctx(&store);
    EXPECT_TRUE(RunTbProgram(p, Tx({}), ctx).Run().IsInvalidArgument());
  }
  {
    TbProgram p;  // Jump out of range.
    p.code = {{TbOp::kJmp, 0, 0, 0, 99}};
    VmContext ctx(&store);
    EXPECT_TRUE(RunTbProgram(p, Tx({}), ctx).Run().IsInvalidArgument());
  }
  {
    TbProgram p;  // kFail.
    p.code = {{TbOp::kFail, 0, 0, 0}};
    VmContext ctx(&store);
    EXPECT_TRUE(RunTbProgram(p, Tx({}), ctx).Run().IsInvalidArgument());
  }
}

// The TBVM-compiled SmallBank must behave identically to the native C++
// contracts on randomized inputs.
TEST(TbvmSmallBankTest, EquivalentToNativeContracts) {
  auto registry = Registry::CreateDefault();
  const std::pair<const char*, const char*> pairs[] = {
      {"smallbank.get_balance", "tbvm.get_balance"},
      {"smallbank.deposit_checking", "tbvm.deposit_checking"},
      {"smallbank.transact_savings", "tbvm.transact_savings"},
      {"smallbank.write_check", "tbvm.write_check"},
      {"smallbank.send_payment", "tbvm.send_payment"},
      {"smallbank.amalgamate", "tbvm.amalgamate"},
  };

  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::pair<std::string, Value>> init;
    for (int a = 0; a < 4; ++a) {
      std::string account = "a" + std::to_string(a);
      init.emplace_back(txn::CheckingKey(account),
                        static_cast<Value>(rng.NextBounded(200)) - 50);
      init.emplace_back(txn::SavingsKey(account),
                        static_cast<Value>(rng.NextBounded(200)) - 50);
    }
    storage::MemKVStore native_store = testutil::MakeStore(init);
    storage::MemKVStore vm_store = testutil::MakeStore(init);
    auto& [native_name, vm_name] = pairs[iter % 6];
    std::string a = "a" + std::to_string(rng.NextBounded(4));
    std::string b = "a" + std::to_string(rng.NextBounded(4));
    Value amount = static_cast<Value>(rng.NextBounded(150)) - 25;

    txn::Transaction tx = Tx({a, b}, {amount});
    tx.contract = native_name;
    VmContext native_ctx(&native_store);
    Status ns = registry->Execute(tx, native_ctx);

    tx.contract = vm_name;
    VmContext vm_ctx(&vm_store);
    Status vs = registry->Execute(tx, vm_ctx);

    ASSERT_EQ(ns.ok(), vs.ok()) << native_name << " iter " << iter;
    EXPECT_EQ(native_ctx.results, vm_ctx.results)
        << native_name << " iter " << iter;
    EXPECT_EQ(native_store.ContentFingerprint(),
              vm_store.ContentFingerprint())
        << native_name << " iter " << iter;
  }
}

}  // namespace
}  // namespace thunderbolt::contract
