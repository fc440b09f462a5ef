#include "core/cross_shard_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>

#include "baselines/serial_executor.h"
#include "contract/contract.h"
#include "contract/smallbank.h"
#include "core/payload.h"
#include "core/pending_cross_index.h"
#include "testutil/testutil.h"
#include "workload/smallbank_workload.h"
#include "workload/workload.h"

namespace thunderbolt::core {
namespace {

/// CrossShardExecutor::ExecuteInPlace as it was with one string-keyed
/// queue per account, kept as the reference for the id-keyed queues.
CrossShardResult StringKeyedReference(
    const contract::Registry& registry, SimTime op_cost, uint32_t num_workers,
    const txn::ShardMapper& mapper,
    const std::vector<const txn::Transaction*>& txs, storage::KVStore* store,
    const std::vector<ShardId>& home_shards,
    placement::AccessTracker* tracker) {
  CrossShardResult result;
  std::unordered_map<std::string, SimTime> account_queue;
  SimTime total = 0;
  for (size_t t = 0; t < txs.size(); ++t) {
    const txn::Transaction& tx = *txs[t];
    const ShardId home = home_shards[t];
    for (const std::string& account : tx.accounts) {
      if (mapper.ShardOfAccount(account) != home) {
        ++result.remote_accesses;
        tracker->RecordRemoteAccess(account, home);
      }
    }
    const uint64_t ops = baselines::ExecuteSerialOne(registry, tx, store);
    const SimTime duration = ops * op_cost;
    result.total_ops += ops;
    ++result.executed;
    total += duration;
    SimTime ready = 0;
    for (const std::string& account : tx.accounts) {
      ready = std::max(ready, account_queue[account]);
    }
    for (const std::string& account : tx.accounts) {
      account_queue[account] = ready + duration;
    }
  }
  result.distinct_accounts = account_queue.size();
  for (const auto& [account, finish] : account_queue) {
    result.critical_path = std::max(result.critical_path, finish);
  }
  result.duration = std::max(total / num_workers, result.critical_path);
  return result;
}

void ExpectSameResult(const CrossShardResult& got,
                      const CrossShardResult& want) {
  EXPECT_EQ(got.executed, want.executed);
  EXPECT_EQ(got.total_ops, want.total_ops);
  EXPECT_EQ(got.distinct_accounts, want.distinct_accounts);
  EXPECT_EQ(got.remote_accesses, want.remote_accesses);
  EXPECT_EQ(got.critical_path, want.critical_path);
  EXPECT_EQ(got.duration, want.duration);
}

class CrossShardTest : public ::testing::Test {
 protected:
  CrossShardTest()
      : registry_(contract::Registry::CreateDefault()), mapper_(4) {}

  txn::Transaction Send(TxnId id, std::string from, std::string to,
                        storage::Value amount) {
    txn::Transaction tx;
    tx.id = id;
    tx.contract = contract::kSendPayment;
    tx.accounts = {std::move(from), std::move(to)};
    tx.params = {amount};
    return tx;
  }

  std::shared_ptr<contract::Registry> registry_;
  txn::ShardMapper mapper_;
};

TEST_F(CrossShardTest, EmptyBatch) {
  storage::MemKVStore store;
  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute({}, &store);
  EXPECT_EQ(r.executed, 0u);
  EXPECT_EQ(r.duration, 0u);
}

TEST_F(CrossShardTest, StateMatchesSerialExecution) {
  workload::WorkloadOptions wc = testutil::WorkloadTestOptions(
      /*num_records=*/200, /*seed=*/51, /*read_ratio=*/0.0);
  wc.num_shards = 4;
  wc.cross_shard_ratio = 1.0;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore store, serial_store;
  w.InitStore(&store);
  w.InitStore(&serial_store);

  std::vector<txn::Transaction> txs;
  for (int i = 0; i < 100; ++i) txs.push_back(w.NextForShard(i % 4));

  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute(txs, &store);
  EXPECT_EQ(r.executed, txs.size());

  baselines::ExecuteSerial(*registry_, txs, &serial_store, Micros(10));
  EXPECT_EQ(store.ContentFingerprint(), serial_store.ContentFingerprint());
}

TEST_F(CrossShardTest, IndependentQueuesRunInParallel) {
  storage::MemKVStore store;
  // Find accounts in 4 distinct shards.
  std::vector<std::string> per_shard(4);
  for (int i = 0; i < 1000; ++i) {
    std::string a = "acct" + std::to_string(i);
    per_shard[mapper_.ShardOfAccount(a)] = a;
  }
  for (auto& a : per_shard) {
    ASSERT_FALSE(a.empty());
    store.Put(txn::CheckingKey(a), 1000);
  }
  // Two independent pairs: (s0 -> s1) and (s2 -> s3).
  std::vector<txn::Transaction> txs{
      Send(1, per_shard[0], per_shard[1], 10),
      Send(2, per_shard[2], per_shard[3], 10),
  };
  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute(txs, &store);
  EXPECT_EQ(r.distinct_accounts, 4u);
  // Makespan is one transaction's cost (queues drain in parallel), while
  // chained transactions on the same accounts take twice as long.
  CrossShardResult serial_like =
      ex.Execute({Send(3, per_shard[0], per_shard[1], 1),
                  Send(4, per_shard[1], per_shard[0], 1)},
                 &store);
  EXPECT_EQ(serial_like.distinct_accounts, 2u);
  EXPECT_LT(r.duration, serial_like.duration);
  EXPECT_GT(serial_like.critical_path, r.critical_path);
}

TEST_F(CrossShardTest, SharedAccountsChainInCommitOrder) {
  storage::MemKVStore store;
  std::vector<std::string> per_shard(4);
  for (int i = 0; i < 1000; ++i) {
    std::string a = "acct" + std::to_string(i);
    per_shard[mapper_.ShardOfAccount(a)] = a;
  }
  store.Put(txn::CheckingKey(per_shard[0]), 100);
  store.Put(txn::CheckingKey(per_shard[1]), 0);
  store.Put(txn::CheckingKey(per_shard[2]), 0);
  // Chain: s0 -> s1 (60), then s1 -> s2 (50): the second only succeeds if
  // it observes the first (commit order preserved on shared accounts).
  std::vector<txn::Transaction> txs{
      Send(1, per_shard[0], per_shard[1], 60),
      Send(2, per_shard[1], per_shard[2], 50),
  };
  CrossShardExecutor ex(registry_.get(), Micros(10));
  CrossShardResult r = ex.Execute(txs, &store);
  EXPECT_EQ(r.distinct_accounts, 3u);
  EXPECT_EQ(store.GetOrDefault(txn::CheckingKey(per_shard[1]), -1), 10);
  EXPECT_EQ(store.GetOrDefault(txn::CheckingKey(per_shard[2]), -1), 50);
}

TEST_F(CrossShardTest, WorkerPoolBoundsMakespan) {
  storage::MemKVStore store;
  // 8 fully independent transfers; 2 workers -> makespan ~ total/2.
  std::vector<txn::Transaction> txs;
  for (int i = 0; i < 8; ++i) {
    std::string a = "u" + std::to_string(2 * i);
    std::string b = "u" + std::to_string(2 * i + 1);
    store.Put(txn::CheckingKey(a), 100);
    store.Put(txn::CheckingKey(b), 100);
    txs.push_back(Send(i + 1, a, b, 1));
  }
  CrossShardExecutor two(registry_.get(), Micros(10), 2);
  CrossShardExecutor eight(registry_.get(), Micros(10), 8);
  storage::MemKVStore s1 = store, s2 = store;
  CrossShardResult r2 = two.Execute(txs, &s1);
  CrossShardResult r8 = eight.Execute(txs, &s2);
  EXPECT_EQ(s1.ContentFingerprint(), s2.ContentFingerprint());
  EXPECT_GT(r2.duration, r8.duration);
  EXPECT_EQ(r2.critical_path, r8.critical_path);
}

// Seeded random cross-shard batches from SmallBank and YCSB, executed the
// way the commit path does: 1-3 payloads share one AccountIdTable, and
// ExecuteInPlace runs on their cached ids concatenated. Hot accounts repeat
// across transactions (theta 0.99 over 200 records); some transactions
// name an account twice, either as a self-transfer or as a trailing extra
// argument the contract ignores. One executor runs every batch, so queue
// state a call failed to reset would show in the next. Each result field,
// the remote-access counters and the store must match the string-keyed
// reference, and so must Execute on the same batch held by value (its ids
// interned for that batch alone).
TEST_F(CrossShardTest, IdKeyedQueuesMatchStringKeyedReference) {
  for (const char* name : {"smallbank", "ycsb"}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      workload::WorkloadOptions options =
          testutil::WorkloadTestOptions(/*num_records=*/200, seed);
      options.theta = 0.99;
      options.read_ratio = 0.2;
      options.cross_shard_ratio = 1.0;
      options.num_shards = 4;
      std::unique_ptr<workload::Workload> w =
          workload::WorkloadRegistry::Global().Create(name, options);
      ASSERT_NE(w, nullptr);
      storage::MemKVStore store, by_value_store, reference_store;
      w->InitStore(&store);
      w->InitStore(&by_value_store);
      w->InitStore(&reference_store);
      AccountIdTable table;
      const CrossShardExecutor ex(registry_.get(), Micros(10), 4,
                                  &w->mapper());
      std::mt19937_64 rng(seed);
      uint64_t remote_accesses = 0;
      for (int batch = 0; batch < 30; ++batch) {
        std::vector<ThunderboltPayload> payloads(1 + rng() % 3);
        for (ThunderboltPayload& payload : payloads) {
          const size_t n = 1 + rng() % 40;
          for (size_t i = 0; i < n; ++i) {
            txn::Transaction tx = w->NextForShard(rng() % options.num_shards);
            const uint64_t repeat = rng() % 10;
            if (repeat == 0 && tx.accounts.size() >= 2) {
              tx.accounts[1] = tx.accounts[0];
            } else if (repeat == 1) {
              tx.accounts.push_back(tx.accounts.front());
            }
            payload.cross_shard.push_back(std::move(tx));
          }
        }
        std::vector<const txn::Transaction*> txs;
        std::vector<txn::Transaction> by_value;
        std::vector<uint32_t> ids;
        std::vector<ShardId> homes;
        for (const ThunderboltPayload& payload : payloads) {
          for (const txn::Transaction& tx : payload.cross_shard) {
            txs.push_back(&tx);
            by_value.push_back(tx);
            homes.push_back(w->HomeShard(tx));
          }
          const std::vector<uint32_t>& block_ids =
              payload.CrossAccountIds(&table);
          ids.insert(ids.end(), block_ids.begin(), block_ids.end());
        }
        placement::AccessTracker tracker, reference_tracker;
        const CrossShardResult got =
            ex.ExecuteInPlace(txs, ids, &store, &homes, &tracker);
        const CrossShardResult want = StringKeyedReference(
            *registry_, Micros(10), 4, w->mapper(), txs, &reference_store,
            homes, &reference_tracker);
        ASSERT_NO_FATAL_FAILURE(ExpectSameResult(got, want));
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameResult(ex.Execute(by_value, &by_value_store, &homes),
                             want));
        ASSERT_EQ(store.ContentFingerprint(),
                  reference_store.ContentFingerprint())
            << "batch " << batch;
        ASSERT_EQ(by_value_store.ContentFingerprint(),
                  reference_store.ContentFingerprint())
            << "batch " << batch;
        ASSERT_EQ(tracker.total_remote_accesses(),
                  reference_tracker.total_remote_accesses());
        const auto hottest = tracker.HottestRemote(SIZE_MAX);
        const auto reference_hottest =
            reference_tracker.HottestRemote(SIZE_MAX);
        ASSERT_EQ(hottest.size(), reference_hottest.size());
        for (size_t i = 0; i < hottest.size(); ++i) {
          EXPECT_EQ(hottest[i].account, reference_hottest[i].account);
          EXPECT_EQ(hottest[i].by_shard, reference_hottest[i].by_shard);
        }
        remote_accesses += got.remote_accesses;
      }
      EXPECT_GT(remote_accesses, 0u);
    }
  }
}

}  // namespace
}  // namespace thunderbolt::core
