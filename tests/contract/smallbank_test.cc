#include "contract/smallbank.h"

#include <gtest/gtest.h>

#include "contract/contract.h"
#include "storage/kv_store.h"
#include "testutil/testutil.h"
#include "txn/transaction.h"

namespace thunderbolt::contract {
namespace {

using storage::Key;
using storage::Value;

/// Direct store-backed context for contract unit tests.
class TestContext final : public ContractContext {
 public:
  explicit TestContext(storage::MemKVStore* store) : store_(store) {}

  Result<Value> DoRead(const Key& key) override {
    return store_->GetOrDefault(key, 0);
  }
  Status DoWrite(const Key& key, Value value) override {
    return store_->Put(key, value);
  }
  void EmitResult(Value value) override { results.push_back(value); }

  std::vector<Value> results;

 private:
  storage::MemKVStore* store_;
};

class SmallBankTest : public ::testing::Test {
 protected:
  SmallBankTest()
      : store_(testutil::MakeStore({{txn::CheckingKey("alice"), 100},
                                    {txn::SavingsKey("alice"), 50},
                                    {txn::CheckingKey("bob"), 10},
                                    {txn::SavingsKey("bob"), 5}})),
        registry_(Registry::CreateDefault()) {}

  std::vector<Value> Run(const std::string& contract,
                         std::vector<std::string> accounts,
                         std::vector<Value> params = {}) {
    txn::Transaction tx;
    tx.id = 1;
    tx.contract = contract;
    tx.accounts = std::move(accounts);
    tx.params = std::move(params);
    TestContext ctx(&store_);
    Status s = registry_->Execute(tx, ctx);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return ctx.results;
  }

  Value Checking(const std::string& a) {
    return store_.GetOrDefault(txn::CheckingKey(a), 0);
  }
  Value Savings(const std::string& a) {
    return store_.GetOrDefault(txn::SavingsKey(a), 0);
  }

  storage::MemKVStore store_;
  std::shared_ptr<Registry> registry_;
};

TEST_F(SmallBankTest, GetBalanceSumsBoth) {
  auto r = Run(kGetBalance, {"alice"});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 150);
}

TEST_F(SmallBankTest, GetBalanceUnknownAccountIsZero) {
  auto r = Run(kGetBalance, {"nobody"});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 0);
}

TEST_F(SmallBankTest, DepositChecking) {
  Run(kDepositChecking, {"bob"}, {25});
  EXPECT_EQ(Checking("bob"), 35);
}

TEST_F(SmallBankTest, TransactSavingsPositive) {
  auto r = Run(kTransactSavings, {"alice"}, {30});
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(Savings("alice"), 80);
}

TEST_F(SmallBankTest, TransactSavingsDeclinedWhenNegative) {
  auto r = Run(kTransactSavings, {"alice"}, {-60});
  EXPECT_EQ(r[0], 0);
  EXPECT_EQ(Savings("alice"), 50);  // Unchanged.
}

TEST_F(SmallBankTest, TransactSavingsWithdrawWithinFunds) {
  auto r = Run(kTransactSavings, {"alice"}, {-50});
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(Savings("alice"), 0);
}

TEST_F(SmallBankTest, WriteCheckNoPenalty) {
  Run(kWriteCheck, {"alice"}, {120});  // total 150 >= 120.
  EXPECT_EQ(Checking("alice"), -20);
}

TEST_F(SmallBankTest, WriteCheckOverdraftPenalty) {
  Run(kWriteCheck, {"bob"}, {20});  // total 15 < 20 -> debit 21.
  EXPECT_EQ(Checking("bob"), -11);
}

TEST_F(SmallBankTest, SendPaymentMovesFunds) {
  auto r = Run(kSendPayment, {"alice", "bob"}, {40});
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(Checking("alice"), 60);
  EXPECT_EQ(Checking("bob"), 50);
}

TEST_F(SmallBankTest, SendPaymentDeclinedOnInsufficientFunds) {
  auto r = Run(kSendPayment, {"bob", "alice"}, {999});
  EXPECT_EQ(r[0], 0);
  EXPECT_EQ(Checking("bob"), 10);
  EXPECT_EQ(Checking("alice"), 100);
}

TEST_F(SmallBankTest, AmalgamateMovesEverything) {
  auto r = Run(kAmalgamate, {"alice", "bob"});
  EXPECT_EQ(r[0], 160);  // 10 + 100 + 50.
  EXPECT_EQ(Checking("alice"), 0);
  EXPECT_EQ(Savings("alice"), 0);
  EXPECT_EQ(Checking("bob"), 160);
  EXPECT_EQ(Savings("bob"), 5);
}

TEST_F(SmallBankTest, MissingArgsRejected) {
  txn::Transaction tx;
  tx.contract = kSendPayment;
  tx.accounts = {"alice"};  // Needs two.
  tx.params = {1};
  TestContext ctx(&store_);
  EXPECT_TRUE(registry_->Execute(tx, ctx).IsInvalidArgument());
}

TEST_F(SmallBankTest, UnknownContractIsNotFound) {
  txn::Transaction tx;
  tx.contract = "no.such.contract";
  TestContext ctx(&store_);
  EXPECT_TRUE(registry_->Execute(tx, ctx).IsNotFound());
}

}  // namespace
}  // namespace thunderbolt::contract
