// Unit tests for the TPC-C-lite TBVM programs: Payment's YTD flows and
// bad-credit branch, NewOrder's order-id counter, stock decrement and
// restock rule, and the value-dependent probe read.
#include "contract/tpcc_lite.h"

#include <gtest/gtest.h>

#include "contract/contract.h"
#include "storage/kv_store.h"
#include "testutil/testutil.h"
#include "txn/transaction.h"

namespace thunderbolt::contract {
namespace {

/// Direct-to-store context recording reads and emitted results.
class StoreContext final : public ContractContext {
 public:
  explicit StoreContext(storage::MemKVStore* store) : store_(store) {}

  Result<Value> DoRead(const Key& key) override {
    reads.push_back(key);
    return store_->GetOrDefault(key, 0);
  }

  Status DoWrite(const Key& key, Value value) override {
    return store_->Put(key, value);
  }

  void EmitResult(Value value) override { emitted.push_back(value); }

  std::vector<Key> reads;
  std::vector<Value> emitted;

 private:
  storage::MemKVStore* store_;
};

class TpccLiteTest : public ::testing::Test {
 protected:
  TpccLiteTest() : registry_(Registry::CreateDefault()), ctx_(&store_) {}

  Status Run(const txn::Transaction& tx) {
    return registry_->Execute(tx, ctx_);
  }

  Value At(const std::string& key) { return store_.GetOrDefault(key, 0); }

  storage::MemKVStore store_;
  std::shared_ptr<Registry> registry_;
  StoreContext ctx_;
};

txn::Transaction PaymentTx(std::string warehouse, std::string district,
                           std::string customer, Value amount) {
  txn::Transaction tx;
  tx.id = 1;
  tx.contract = kTpccPayment;
  tx.accounts = {std::move(warehouse), std::move(district),
                 std::move(customer)};
  tx.params = {amount};
  return tx;
}

txn::Transaction NewOrderTx(std::string district,
                            std::vector<std::string> items,
                            std::vector<Value> quantities) {
  txn::Transaction tx;
  tx.id = 2;
  tx.contract = kTpccNewOrder;
  tx.accounts.push_back(std::move(district));
  for (auto& item : items) tx.accounts.push_back(std::move(item));
  tx.params = std::move(quantities);
  return tx;
}

TEST_F(TpccLiteTest, PaymentFlowsIntoAllThreeYtds) {
  store_.Put("c1/balance", 1000);
  ASSERT_TRUE(Run(PaymentTx("w1", "d1", "c1", 70)).ok());
  EXPECT_EQ(At("w1/ytd"), 70);
  EXPECT_EQ(At("d1/ytd"), 70);
  EXPECT_EQ(At("c1/balance"), 930);
  EXPECT_EQ(At("c1/ytd_payment"), 70);
  EXPECT_EQ(At("c1/payment_cnt"), 1);
  EXPECT_EQ(ctx_.emitted, (std::vector<Value>{930}));
}

TEST_F(TpccLiteTest, PaymentGoodCreditSkipsPenalty) {
  ASSERT_TRUE(Run(PaymentTx("w1", "d1", "c1", 10)).ok());
  EXPECT_EQ(At("c1/penalty"), 0);
  // The penalty key is never even read on the good-credit path.
  for (const Key& key : ctx_.reads) {
    EXPECT_NE(key, "c1/penalty");
  }
}

TEST_F(TpccLiteTest, PaymentBadCreditTakesPenaltyBranch) {
  store_.Put("c1/credit", 1);
  ASSERT_TRUE(Run(PaymentTx("w1", "d1", "c1", 10)).ok());
  EXPECT_EQ(At("c1/penalty"), 1);
  ASSERT_TRUE(Run(PaymentTx("w1", "d1", "c1", 10)).ok());
  EXPECT_EQ(At("c1/penalty"), 2);
}

TEST_F(TpccLiteTest, PaymentNonPositiveAmountDeclines) {
  ASSERT_TRUE(Run(PaymentTx("w1", "d1", "c1", 0)).ok());
  EXPECT_EQ(At("w1/ytd"), 0);
  EXPECT_EQ(ctx_.emitted, (std::vector<Value>{0}));
}

TEST_F(TpccLiteTest, NewOrderAdvancesOrderIdAndDeductsStock) {
  store_.Put("d1/next_oid", 1);
  store_.Put("i1/stock", 100);
  store_.Put("i2/stock", 100);
  store_.Put("i3/stock", 100);
  ASSERT_TRUE(Run(NewOrderTx("d1", {"i1", "i2", "i3"}, {5, 3, 2})).ok());
  EXPECT_EQ(At("d1/next_oid"), 2);
  EXPECT_EQ(At("d1/order_cnt"), 1);
  EXPECT_EQ(At("d1/order_ytd"), 10);
  EXPECT_EQ(At("i1/stock"), 95);
  EXPECT_EQ(At("i2/stock"), 97);
  EXPECT_EQ(At("i3/stock"), 98);
  EXPECT_EQ(ctx_.emitted, (std::vector<Value>{10}));
}

TEST_F(TpccLiteTest, NewOrderRestocksBelowThreshold) {
  store_.Put("d1/next_oid", 1);
  // stock < qty + margin triggers the +91 refill before deduction.
  store_.Put("i1/stock", 12);
  store_.Put("i2/stock", 100);
  store_.Put("i3/stock", 100);
  ASSERT_TRUE(Run(NewOrderTx("d1", {"i1", "i2", "i3"}, {5, 1, 1})).ok());
  EXPECT_EQ(At("i1/stock"), 12 + kTpccRestockAmount - 5);
  EXPECT_EQ(At("i2/stock"), 99);
}

TEST_F(TpccLiteTest, NewOrderProbesValueDependentKey) {
  // next_oid = 6, 4 accounts -> the probe reads accounts[6 % 4]/stock =
  // i2/stock. The read set depends on a value read in the same
  // transaction, which no engine can know up front.
  store_.Put("d1/next_oid", 6);
  store_.Put("i1/stock", 100);
  store_.Put("i2/stock", 100);
  store_.Put("i3/stock", 100);
  ASSERT_TRUE(Run(NewOrderTx("d1", {"i1", "i2", "i3"}, {1, 1, 1})).ok());
  ASSERT_FALSE(ctx_.reads.empty());
  EXPECT_EQ(ctx_.reads.back(), "i2/stock");
}

TEST_F(TpccLiteTest, ProgramsDisassemble) {
  // The assembler produces well-formed jumps: disassembly shouldn't show
  // any <bad op> and the programs must be non-trivial.
  EXPECT_GT(AssembleTpccPayment().code.size(), 20u);
  EXPECT_GT(AssembleTpccNewOrder().code.size(), 30u);
  EXPECT_EQ(Disassemble(AssembleTpccPayment()).find("<bad"),
            std::string::npos);
  EXPECT_EQ(Disassemble(AssembleTpccNewOrder()).find("<bad"),
            std::string::npos);
}

}  // namespace
}  // namespace thunderbolt::contract
