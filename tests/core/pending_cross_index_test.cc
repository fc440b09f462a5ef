// Property test for the rule-P4 pending cross-shard index: seeded random
// sequences of block receipts, commits, conflict queries and clears must
// get the same answer from PendingCrossIndex as from the string-keyed
// index ThunderboltNode kept before accounts had dense ids (copied below as
// the reference). Two replicas share one AccountIdTable and the same
// payload objects, as replicas of a cluster do, but apply their own
// events. The sequences repeat a TxnId in a second block (what an
// equivocating proposer can do), commit blocks never received, and query
// accounts that no block ever named. The flat TxnId set under the index is
// checked on its own against std::unordered_set.
#include "core/pending_cross_index.h"

#include <limits>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace thunderbolt::core {
namespace {

/// The P4 index as ThunderboltNode kept it with string keys.
class ReferenceIndex {
 public:
  void Add(const ThunderboltPayload& block) {
    for (const txn::Transaction& tx : block.cross_shard) {
      if (pending_cross_.insert(tx.id).second) {
        for (const std::string& account : tx.accounts) {
          ++pending_cross_accounts_[account];
        }
      }
    }
  }

  void Release(const ThunderboltPayload& block) {
    for (const txn::Transaction& tx : block.cross_shard) {
      if (pending_cross_.erase(tx.id) > 0) {
        for (const std::string& account : tx.accounts) {
          auto it = pending_cross_accounts_.find(account);
          if (it != pending_cross_accounts_.end() && --it->second == 0) {
            pending_cross_accounts_.erase(it);
          }
        }
      }
    }
  }

  bool Conflicts(const txn::Transaction& tx) const {
    for (const std::string& account : tx.accounts) {
      if (pending_cross_accounts_.count(account)) return true;
    }
    return false;
  }

  void Clear() {
    pending_cross_.clear();
    pending_cross_accounts_.clear();
  }

 private:
  std::unordered_set<TxnId> pending_cross_;
  std::unordered_map<std::string, uint32_t> pending_cross_accounts_;
};

constexpr int kHotAccounts = 6;

std::string Hot(int i) { return "acct" + std::to_string(i); }

txn::Transaction TxWith(TxnId id, std::vector<std::string> accounts) {
  txn::Transaction tx;
  tx.id = id;
  tx.contract = "smallbank.send_payment";
  tx.accounts = std::move(accounts);
  return tx;
}

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  /// 1-3 accounts from the hot set (repeats allowed, as a transaction's
  /// own account list may repeat one).
  std::vector<std::string> Accounts() {
    std::vector<std::string> accounts(Uniform(1, 3));
    for (std::string& a : accounts) a = Hot(Uniform(0, kHotAccounts - 1));
    return accounts;
  }

  /// A block of 1-4 fresh cross-shard transactions. With `reuse` (and a
  /// previous block to take it from), one of them repeats an earlier
  /// TxnId, with that transaction's accounts or with new ones.
  std::shared_ptr<ThunderboltPayload> Block(
      const std::vector<std::shared_ptr<ThunderboltPayload>>& earlier,
      bool reuse) {
    auto block = std::make_shared<ThunderboltPayload>();
    const int n = Uniform(1, 4);
    for (int i = 0; i < n; ++i) {
      block->cross_shard.push_back(TxWith(next_id_++, Accounts()));
    }
    if (reuse && !earlier.empty()) {
      const ThunderboltPayload& from =
          *earlier[Uniform(0, static_cast<int>(earlier.size()) - 1)];
      txn::Transaction twin =
          from.cross_shard[Uniform(
              0, static_cast<int>(from.cross_shard.size()) - 1)];
      if (Uniform(0, 1) == 1) twin.accounts = Accounts();
      block->cross_shard[Uniform(0, n - 1)] = twin;
    }
    return block;
  }

  /// A single-shard query: 1-2 hot accounts, sometimes one no block names.
  txn::Transaction Query() {
    std::vector<std::string> accounts(Uniform(1, 2));
    for (std::string& a : accounts) {
      a = Uniform(0, 9) == 0 ? "cold" + std::to_string(Uniform(0, 3))
                             : Hot(Uniform(0, kHotAccounts - 1));
    }
    return TxWith(1'000'000, std::move(accounts));
  }

 private:
  std::mt19937_64 rng_;
  TxnId next_id_ = 1;
};

struct Replica {
  explicit Replica(AccountIdTable* table) : index(table) {}
  PendingCrossIndex index;
  ReferenceIndex reference;
};

/// Every single account of the hot set plus one never named: the index
/// and the reference must agree on each.
void ExpectAgreeOnEveryAccount(const Replica& r, uint64_t seed, int step) {
  for (int a = 0; a <= kHotAccounts; ++a) {
    const txn::Transaction probe =
        TxWith(0, {a < kHotAccounts ? Hot(a) : std::string("never")});
    ASSERT_EQ(r.index.Conflicts(probe), r.reference.Conflicts(probe))
        << "seed " << seed << " step " << step << " account "
        << probe.accounts[0];
  }
}

TEST(PendingCrossIndexPropertyTest, MatchesStringKeyedReference) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Generator gen(seed);
    AccountIdTable table;
    std::vector<Replica> replicas;
    replicas.reserve(2);
    replicas.emplace_back(&table);
    replicas.emplace_back(&table);
    // Blocks some replica has been handed, and blocks only ever committed.
    std::vector<std::shared_ptr<ThunderboltPayload>> blocks;
    for (int step = 0; step < 300; ++step) {
      Replica& r = replicas[gen.Uniform(0, 1)];
      const int event = gen.Uniform(0, 99);
      if (event < 40) {
        // Receipt: a new block (a fifth repeat an earlier TxnId), or one
        // the other replica already received, sharing its id cache.
        if (blocks.empty() || gen.Uniform(0, 2) > 0) {
          blocks.push_back(gen.Block(blocks, gen.Uniform(0, 4) == 0));
        }
        const ThunderboltPayload& block =
            *blocks[gen.Uniform(0, static_cast<int>(blocks.size()) - 1)];
        r.index.Add(block);
        r.reference.Add(block);
      } else if (event < 70) {
        // Commit: mostly a known block, sometimes one never received.
        std::shared_ptr<ThunderboltPayload> block =
            blocks.empty() || gen.Uniform(0, 5) == 0
                ? gen.Block(blocks, /*reuse=*/true)
                : blocks[gen.Uniform(0, static_cast<int>(blocks.size()) - 1)];
        r.index.Release(*block);
        r.reference.Release(*block);
      } else if (event < 98) {
        const txn::Transaction query = gen.Query();
        ASSERT_EQ(r.index.Conflicts(query), r.reference.Conflicts(query))
            << "seed " << seed << " step " << step;
      } else {
        r.index.Clear();
        r.reference.Clear();
      }
      for (const Replica& each : replicas) {
        ASSERT_NO_FATAL_FAILURE(ExpectAgreeOnEveryAccount(each, seed, step));
      }
    }
  }
}

TEST(PendingCrossIndexTest, RepeatedTxnIdCountsOnce) {
  AccountIdTable table;
  PendingCrossIndex index(&table);
  ThunderboltPayload first;
  first.cross_shard.push_back(TxWith(5, {"a", "b"}));
  ThunderboltPayload second = first;  // Same TxnId in a second block.
  second.cross_shard.push_back(TxWith(6, {"c"}));
  index.Add(first);
  index.Add(second);
  EXPECT_TRUE(index.Conflicts(TxWith(0, {"a"})));
  index.Release(first);
  EXPECT_FALSE(index.Conflicts(TxWith(0, {"a"})));
  EXPECT_FALSE(index.Conflicts(TxWith(0, {"b"})));
  EXPECT_TRUE(index.Conflicts(TxWith(0, {"c"})));
  EXPECT_FALSE(index.Conflicts(TxWith(0, {"unseen"})));
  index.Clear();
  EXPECT_FALSE(index.Conflicts(TxWith(0, {"c"})));
}

// Seeded insert, erase and clear sequences against std::unordered_set. The
// ids come from a small pool per seed, so most operations hit ids already
// seen: random 64-bit values (whose homes collide and whose probe runs
// wrap past the table's end), a run of consecutive ids (what the workload
// counter issues), and 0, UINT64_MAX - 1 and UINT64_MAX (the last is the
// value that marks a free slot). Inserting up to the whole pool grows the
// table from 16 slots to 128, and clear keeps that capacity. After every
// step the return values, empty() and the membership of every pooled id
// must match the reference.
TEST(TxnIdSetPropertyTest, MatchesUnorderedSetReference) {
  constexpr TxnId kMax = std::numeric_limits<TxnId>::max();
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<TxnId> pool = {0, kMax - 1, kMax};
    const TxnId first = rng() % 1000;
    for (TxnId id = first; id < first + 12; ++id) pool.push_back(id);
    const size_t pool_size = 8 + rng() % 50;
    while (pool.size() < pool_size) pool.push_back(rng());

    TxnIdSet set;
    std::unordered_set<TxnId> reference;
    // Phases that favour inserts, then erases, so the load swings through
    // every growth threshold and back down to empty.
    for (int step = 0; step < 600; ++step) {
      const bool filling = (step / 100) % 2 == 0;
      const TxnId id = pool[rng() % pool.size()];
      const uint64_t event = rng() % 100;
      if (event < (filling ? 70u : 30u)) {
        ASSERT_EQ(set.insert(id), reference.insert(id).second)
            << "seed " << seed << " step " << step << " insert " << id;
      } else if (event < 99) {
        ASSERT_EQ(set.erase(id), reference.erase(id) > 0)
            << "seed " << seed << " step " << step << " erase " << id;
      } else {
        set.clear();
        reference.clear();
      }
      ASSERT_EQ(set.empty(), reference.empty())
          << "seed " << seed << " step " << step;
      for (TxnId each : pool) {
        ASSERT_EQ(set.contains(each), reference.count(each) > 0)
            << "seed " << seed << " step " << step << " id " << each;
      }
    }
  }
}

}  // namespace
}  // namespace thunderbolt::core
