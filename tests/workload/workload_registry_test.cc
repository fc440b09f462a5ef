// Workload framework tests: registry lookup/factory behavior, the
// SmallBank refactor onto the Workload interface, and TPC-C-lite
// generation + invariants.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "contract/tpcc_lite.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"
#include "workload/tpcc_workload.h"

namespace thunderbolt::workload {
namespace {

TEST(WorkloadRegistryTest, GlobalHasBuiltins) {
  WorkloadRegistry& registry = WorkloadRegistry::Global();
  EXPECT_TRUE(registry.Contains("smallbank"));
  EXPECT_TRUE(registry.Contains("ycsb"));
  EXPECT_TRUE(registry.Contains("tpcc_lite"));
  EXPECT_FALSE(registry.Contains("nonexistent"));
  std::vector<std::string> names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 3u);
}

TEST(WorkloadRegistryTest, CreateUnknownReturnsNull) {
  EXPECT_EQ(WorkloadRegistry::Global().Create("nonexistent", {}), nullptr);
}

TEST(WorkloadRegistryTest, FactoriesProduceNamedWorkloads) {
  WorkloadOptions options;
  options.num_records = 100;
  for (const std::string& name : WorkloadRegistry::Global().Names()) {
    auto w = WorkloadRegistry::Global().Create(name, options);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
    // Every built-in seeds a store whose fresh state satisfies its own
    // invariant and generates transactions with resolvable contracts.
    storage::MemKVStore store;
    w->InitStore(&store);
    EXPECT_GT(store.size(), 0u) << name;
    EXPECT_TRUE(w->CheckInvariant(store).ok()) << name;
    auto batch = w->MakeBatch(10);
    ASSERT_EQ(batch.size(), 10u);
    auto contracts = contract::Registry::CreateDefault();
    for (const txn::Transaction& tx : batch) {
      EXPECT_NE(contracts->Lookup(tx.contract), nullptr)
          << name << " emitted unknown contract " << tx.contract;
      EXPECT_FALSE(tx.accounts.empty());
    }
  }
}

TEST(WorkloadRegistryTest, LocalRegistrationOverridesNothingGlobal) {
  WorkloadRegistry local;
  local.Register("custom", [](const WorkloadOptions& options) {
    return std::make_unique<SmallBankWorkload>(options);
  });
  EXPECT_TRUE(local.Contains("custom"));
  EXPECT_FALSE(WorkloadRegistry::Global().Contains("custom"));
  auto w = local.Create("custom", {});
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name(), "smallbank");
}

TEST(WorkloadRegistryTest, SmallBankConfigFromOptions) {
  // A registry-built SmallBank generates from exactly the options given.
  WorkloadOptions options;
  options.num_records = 1234;
  options.theta = 0.9;
  options.read_ratio = 0.25;
  options.num_shards = 4;
  options.seed = 99;
  std::unique_ptr<Workload> w =
      WorkloadRegistry::Global().Create("smallbank", options);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->options().num_records, 1234u);
  EXPECT_EQ(w->options().theta, 0.9);
  EXPECT_EQ(w->options().read_ratio, 0.25);
  EXPECT_EQ(w->options().num_shards, 4u);
  EXPECT_EQ(w->options().seed, 99u);
}

TEST(WorkloadRegistryTest, SmallBankInvariantDetectsLostMoney) {
  storage::MemKVStore store;
  SmallBankWorkload w =
      testutil::MakeSmallBank(&store, /*num_accounts=*/20, /*seed=*/80);
  ASSERT_TRUE(w.CheckInvariant(store).ok());
  store.Put(txn::CheckingKey(SmallBankWorkload::AccountName(0)), 0);
  EXPECT_FALSE(w.CheckInvariant(store).ok());
}

// --- TPC-C-lite generation -------------------------------------------------

WorkloadOptions TinyTpcc(uint64_t seed) {
  WorkloadOptions options;
  options.seed = seed;
  options.num_warehouses = 2;
  options.districts_per_warehouse = 3;
  options.customers_per_district = 5;
  options.num_items = 20;
  return options;
}

TEST(TpccLiteWorkloadTest, MixProducesBothTransactionTypes) {
  TpccLiteWorkload w(TinyTpcc(81));
  int payments = 0, neworders = 0;
  for (int i = 0; i < 2000; ++i) {
    txn::Transaction tx = w.Next();
    if (tx.contract == contract::kTpccPayment) {
      ++payments;
      ASSERT_EQ(tx.accounts.size(), 3u);
    } else {
      ASSERT_EQ(tx.contract, contract::kTpccNewOrder);
      ++neworders;
      ASSERT_EQ(tx.accounts.size(), 1u + contract::kTpccOrderItems);
      // Items are distinct.
      for (size_t a = 2; a < tx.accounts.size(); ++a) {
        EXPECT_NE(tx.accounts[a], tx.accounts[a - 1]);
      }
    }
  }
  EXPECT_NEAR(payments, 1000, 150);
  EXPECT_NEAR(neworders, 1000, 150);
}

TEST(TpccLiteWorkloadTest, PaymentAccountsAreConsistentHierarchy) {
  TpccLiteWorkload w(TinyTpcc(82));
  for (int i = 0; i < 500; ++i) {
    txn::Transaction tx = w.Next();
    if (tx.contract != contract::kTpccPayment) continue;
    // "w<w>", "w<w>.d<d>", "w<w>.d<d>.c<c>" share prefixes.
    EXPECT_EQ(tx.accounts[1].rfind(tx.accounts[0] + ".", 0), 0u);
    EXPECT_EQ(tx.accounts[2].rfind(tx.accounts[1] + ".", 0), 0u);
  }
}

TEST(TpccLiteWorkloadTest, FixedSeedIsDeterministic) {
  TpccLiteWorkload a(TinyTpcc(83));
  TpccLiteWorkload b(TinyTpcc(83));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Next().Digest(), b.Next().Digest()) << "diverged at " << i;
  }
}

TEST(TpccLiteWorkloadTest, TinyItemPoolIsClampedToOrderSize) {
  // num_items below kTpccOrderItems would starve the distinct-item picker;
  // the workload clamps it so generation always terminates.
  WorkloadOptions options = TinyTpcc(86);
  options.num_items = 1;
  TpccLiteWorkload w(options);
  for (int i = 0; i < 50; ++i) {
    txn::Transaction tx = w.Next();
    if (tx.contract == contract::kTpccNewOrder) {
      EXPECT_EQ(tx.accounts.size(), 1u + contract::kTpccOrderItems);
    }
  }
}

TEST(TpccLiteWorkloadTest, InvariantCatchesYtdMismatch) {
  TpccLiteWorkload w(TinyTpcc(84));
  storage::MemKVStore store;
  w.InitStore(&store);
  ASSERT_TRUE(w.CheckInvariant(store).ok());
  store.Put("w0/ytd", 5);  // Money appeared from nowhere.
  EXPECT_FALSE(w.CheckInvariant(store).ok());
}

TEST(TpccLiteWorkloadTest, InvariantCatchesOrderCountMismatch) {
  TpccLiteWorkload w(TinyTpcc(85));
  storage::MemKVStore store;
  w.InitStore(&store);
  store.Put("w0.d0/next_oid", TpccLiteWorkload::kInitialOrderId + 3);
  EXPECT_FALSE(w.CheckInvariant(store).ok());
  store.Put("w0.d0/order_cnt", 3);
  EXPECT_TRUE(w.CheckInvariant(store).ok());
}


// --- Param-string parsing --------------------------------------------------

TEST(WorkloadParamsTest, AppliesKnownKeys) {
  WorkloadOptions options;
  ASSERT_TRUE(ApplyWorkloadParams(
                  "num_records=2500,theta=0.9,read_ratio=0.25,"
                  "cross_shard_ratio=0.1,seed=7,distribution=hotspot,"
                  "update_ratio=0.75,num_warehouses=3,payment_ratio=0.6",
                  &options)
                  .ok());
  EXPECT_EQ(options.num_records, 2500u);
  EXPECT_EQ(options.theta, 0.9);
  EXPECT_EQ(options.read_ratio, 0.25);
  EXPECT_EQ(options.cross_shard_ratio, 0.1);
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.distribution, "hotspot");
  EXPECT_EQ(options.update_ratio, 0.75);
  EXPECT_EQ(options.num_warehouses, 3u);
  EXPECT_EQ(options.payment_ratio, 0.6);
}

TEST(WorkloadParamsTest, NumAccountsIsAnAliasForNumRecords) {
  WorkloadOptions options;
  ASSERT_TRUE(ApplyWorkloadParams("num_accounts=123", &options).ok());
  EXPECT_EQ(options.num_records, 123u);
}

TEST(WorkloadParamsTest, EmptySpecIsANoOp) {
  WorkloadOptions options;
  WorkloadOptions defaults;
  ASSERT_TRUE(ApplyWorkloadParams("", &options).ok());
  EXPECT_EQ(options.num_records, defaults.num_records);
  EXPECT_EQ(options.theta, defaults.theta);
}

TEST(WorkloadParamsTest, RejectsUnknownKeysAndMalformedSpecs) {
  WorkloadOptions options;
  EXPECT_FALSE(ApplyWorkloadParams("bogus_key=1", &options).ok());
  EXPECT_FALSE(ApplyWorkloadParams("theta", &options).ok());
  EXPECT_FALSE(ApplyWorkloadParams("theta=", &options).ok());
  EXPECT_FALSE(ApplyWorkloadParams("=0.5", &options).ok());
  EXPECT_FALSE(ApplyWorkloadParams("theta=abc", &options).ok());
  EXPECT_FALSE(ApplyWorkloadParams("num_records=12x", &options).ok());
}

TEST(WorkloadParamsTest, RejectsSignedAndOverflowingIntegers) {
  WorkloadOptions options;
  // strtoull would silently wrap "-1" to 2^64-1; a typo must not turn
  // into an absurd population size.
  EXPECT_FALSE(ApplyWorkloadParams("num_records=-1", &options).ok());
  EXPECT_FALSE(ApplyWorkloadParams("num_records=+5", &options).ok());
  EXPECT_FALSE(
      ApplyWorkloadParams("num_records=99999999999999999999999", &options)
          .ok());
  // 32-bit fields reject values that would truncate.
  EXPECT_FALSE(ApplyWorkloadParams("num_shards=4294967296", &options).ok());
  EXPECT_FALSE(ApplyWorkloadParams("num_shards=-1", &options).ok());
  EXPECT_TRUE(ApplyWorkloadParams("num_shards=4294967295", &options).ok());
  EXPECT_EQ(options.num_shards, 4294967295u);
}

TEST(WorkloadParamsTest, RejectsUnknownDistributions) {
  WorkloadOptions options;
  // YcsbWorkload silently maps unknown names to zipfian, so the parser
  // must catch the typo instead.
  EXPECT_FALSE(ApplyWorkloadParams("distribution=unifrom", &options).ok());
  for (const char* d : {"uniform", "zipfian", "hotspot"}) {
    ASSERT_TRUE(
        ApplyWorkloadParams(std::string("distribution=") + d, &options).ok());
    EXPECT_EQ(options.distribution, d);
  }
}

// --- Remote payments (cross-shard TPC-C-lite) ------------------------------

TEST(TpccLiteWorkloadTest, RemotePaymentsSpanShards) {
  WorkloadOptions options = TinyTpcc(90);
  options.num_shards = 2;
  options.cross_shard_ratio = 1.0;
  options.payment_ratio = 1.0;
  TpccLiteWorkload w(options);
  int remote = 0;
  for (int i = 0; i < 400; ++i) {
    ShardId shard = static_cast<ShardId>(i % 2);
    txn::Transaction tx = w.NextForShard(shard);
    ASSERT_EQ(tx.contract, contract::kTpccPayment);
    EXPECT_EQ(w.HomeShard(tx), shard);
    // Customer account belongs to a district of the *other* shard.
    if (tx.accounts[2].rfind(tx.accounts[1] + ".", 0) != 0) {
      ++remote;
      std::string customer_district =
          tx.accounts[2].substr(0, tx.accounts[2].rfind('.'));
      EXPECT_NE(w.mapper().ShardOfAccount(customer_district), shard);
    }
  }
  EXPECT_GT(remote, 300);
}

TEST(TpccLiteWorkloadTest, RemotePaymentInvariantBalancesGlobally) {
  // A remote payment credits warehouse+district at home and ytd_payment at
  // the remote customer: the per-warehouse customer breakdown breaks, the
  // global one must not.
  WorkloadOptions remote_options = TinyTpcc(91);
  remote_options.num_shards = 2;
  remote_options.cross_shard_ratio = 0.5;
  TpccLiteWorkload w(remote_options);
  storage::MemKVStore store;
  w.InitStore(&store);
  store.Put("w0/ytd", 5);
  store.Put("w0.d0/ytd", 5);
  store.Put("w1.d0.c0/ytd_payment", 5);
  EXPECT_TRUE(w.CheckInvariant(store).ok());
  // Strict mode (no remote payments configured) still rejects the same
  // state: the money left warehouse 0's customers.
  TpccLiteWorkload strict(TinyTpcc(91));
  EXPECT_FALSE(strict.CheckInvariant(store).ok());
  // And the global customer check still catches outright corruption even
  // when each warehouse/district pair balances.
  store.Put("w1/ytd", 3);
  store.Put("w1.d0/ytd", 3);
  EXPECT_FALSE(w.CheckInvariant(store).ok());
}

}  // namespace
}  // namespace thunderbolt::workload
