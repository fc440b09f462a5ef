// Property battery over every policy registered in
// placement::PlacementRegistry::Global(): placement must be total (every
// account maps to a shard below num_shards), stable (same account, same
// answer across calls), and replica-deterministic (two policies built from
// the same configuration agree on every account and report equal
// fingerprints). The directory policy additionally rebalances hot keys
// deterministically and keeps its dictionary bounded.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "placement/placement.h"
#include "testutil/testutil.h"

namespace thunderbolt::placement {
namespace {

/// Account names in every style the built-in workloads emit, plus some
/// hostile extras (empty-ish, punctuated, long).
std::vector<std::string> SampleAccounts(Rng& rng, size_t count) {
  std::vector<std::string> accounts;
  accounts.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    switch (rng.NextBounded(6)) {
      case 0:
        accounts.push_back("acct" + std::to_string(rng.NextBounded(100000)));
        break;
      case 1:
        accounts.push_back("user" + std::to_string(rng.NextBounded(100000)));
        break;
      case 2:
        accounts.push_back("w" + std::to_string(rng.NextBounded(16)) + ".d" +
                           std::to_string(rng.NextBounded(10)) + ".c" +
                           std::to_string(rng.NextBounded(100)));
        break;
      case 3:
        accounts.push_back("item" + std::to_string(rng.NextBounded(1000)));
        break;
      case 4:
        accounts.push_back("w" + std::to_string(rng.NextBounded(16)));
        break;
      default:
        accounts.push_back(std::string(1 + rng.NextBounded(40), 'z') +
                           std::to_string(rng.NextBounded(1000)));
        break;
    }
  }
  return accounts;
}

/// A TPC-C-style hint so the locality policy exercises real group folding.
std::string WarehouseHint(const std::string& account) {
  if (account.empty() || account[0] != 'w') return account;
  size_t dot = account.find('.');
  if (dot == std::string::npos) return account;
  return account.substr(0, dot);
}

PlacementOptions OptionsFor(uint32_t num_shards) {
  PlacementOptions options;
  options.num_shards = num_shards;
  options.hint = WarehouseHint;
  return options;
}

class PlacementPolicyPropertyTest : public testutil::SeededTest {};

TEST_F(PlacementPolicyPropertyTest, RegistryHasAllBuiltins) {
  auto& registry = PlacementRegistry::Global();
  for (const char* name : {"hash", "range", "directory", "locality"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  EXPECT_EQ(registry.Names().size(), 4u);
  EXPECT_EQ(registry.Create("no-such-policy", OptionsFor(4)), nullptr);
}

TEST_F(PlacementPolicyPropertyTest, TotalStableAndReplicaDeterministic) {
  std::vector<std::string> accounts = SampleAccounts(rng_, 5000);
  for (const std::string& name : PlacementRegistry::Global().Names()) {
    for (uint32_t num_shards : {1u, 2u, 4u, 8u}) {
      // Two "replicas" built from identical configuration.
      auto a = PlacementRegistry::Global().Create(name, OptionsFor(num_shards));
      auto b = PlacementRegistry::Global().Create(name, OptionsFor(num_shards));
      ASSERT_NE(a, nullptr) << name;
      ASSERT_NE(b, nullptr) << name;
      EXPECT_EQ(a->name(), name);
      EXPECT_EQ(a->num_shards(), num_shards) << name;
      EXPECT_EQ(a->Fingerprint(), b->Fingerprint())
          << name << " shards=" << num_shards;
      for (const std::string& account : accounts) {
        ShardId s = a->ShardOfAccount(account);
        EXPECT_LT(s, num_shards) << name << " account=" << account;
        // Stable across calls, and equal across replicas.
        EXPECT_EQ(a->ShardOfAccount(account), s) << name;
        EXPECT_EQ(b->ShardOfAccount(account), s)
            << name << " account=" << account;
      }
    }
  }
}

TEST_F(PlacementPolicyPropertyTest, FingerprintSeparatesConfigurations) {
  for (const std::string& name : PlacementRegistry::Global().Names()) {
    auto two = PlacementRegistry::Global().Create(name, OptionsFor(2));
    auto four = PlacementRegistry::Global().Create(name, OptionsFor(4));
    EXPECT_NE(two->Fingerprint(), four->Fingerprint()) << name;
  }
}

TEST_F(PlacementPolicyPropertyTest, HashPolicyMatchesHistoricalMapping) {
  // The "hash" policy must stay byte-identical to the original
  // Sha256(account) % num_shards so determinism baselines carry over.
  HashPlacement policy(16);
  for (int i = 0; i < 1000; ++i) {
    std::string account = "acct" + std::to_string(i);
    EXPECT_EQ(policy.ShardOfAccount(account),
              static_cast<ShardId>(Sha256::Digest(account).Prefix64() % 16));
  }
}

TEST_F(PlacementPolicyPropertyTest, RangeRespectsConfiguredSplits) {
  PlacementOptions options;
  options.num_shards = 3;
  options.params = "splits=g;p";
  auto policy = PlacementRegistry::Global().Create("range", options);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->ShardOfAccount("acct1"), 0u);
  EXPECT_EQ(policy->ShardOfAccount("fff"), 0u);
  EXPECT_EQ(policy->ShardOfAccount("g"), 1u);
  EXPECT_EQ(policy->ShardOfAccount("item9"), 1u);
  EXPECT_EQ(policy->ShardOfAccount("p"), 2u);
  EXPECT_EQ(policy->ShardOfAccount("w3.d5"), 2u);
}

TEST_F(PlacementPolicyPropertyTest, LocalityCoLocatesHintGroups) {
  LocalityPlacement policy(8, WarehouseHint);
  for (uint32_t w = 0; w < 16; ++w) {
    std::string warehouse = "w" + std::to_string(w);
    ShardId home = policy.ShardOfAccount(warehouse);
    for (uint32_t d = 0; d < 4; ++d) {
      std::string district = warehouse + ".d" + std::to_string(d);
      EXPECT_EQ(policy.ShardOfAccount(district), home);
      EXPECT_EQ(policy.ShardOfAccount(district + ".c7"), home);
    }
  }
  // Without a hint, locality degenerates to hash.
  LocalityPlacement plain(8, nullptr);
  HashPlacement hash(8);
  for (int i = 0; i < 200; ++i) {
    std::string account = "user" + std::to_string(i);
    EXPECT_EQ(plain.ShardOfAccount(account), hash.ShardOfAccount(account));
  }
}

// CheckPlacementParams reports what the built-in factories abort on, and
// every spec it accepts builds. With num_shards 0 the shard-count bounds
// are left to the factory.
TEST_F(PlacementPolicyPropertyTest, CheckPlacementParamsMatchesFactoryRules) {
  struct Case {
    const char* policy;
    const char* params;
    uint32_t num_shards;
    bool ok;
  };
  const Case cases[] = {
      {"hash", "", 4, true},
      {"hash", "top_k=1", 4, false},
      {"locality", "", 4, true},
      {"locality", "group=w", 4, false},
      {"range", "splits=g;p", 4, true},
      {"range", "splits=p;g", 4, false},
      {"range", "splits=a;b;c;d", 4, false},
      {"range", "splits=a;b;c;d", 0, true},
      {"range", "bounds=g", 4, false},
      {"directory", "top_k=4,max_entries=16,assign=a:3;b:0", 4, true},
      {"directory", "top_k=abc", 4, false},
      {"directory", "top_k=-1", 4, false},
      {"directory", "max_entries=4294967296", 4, false},
      {"directory", "assign=a:4", 4, false},
      {"directory", "assign=a:4", 0, true},
      {"directory", "assign=a: 1", 0, false},
      {"directory", "assign=a", 4, false},
      {"directory", "top_k=", 4, false},
      {"directory", "bogus=1", 4, false},
      {"unregistered", "anything=1", 4, true},
  };
  for (const Case& c : cases) {
    PlacementOptions options;
    options.num_shards = c.num_shards;
    options.params = c.params;
    const Status status = CheckPlacementParams(c.policy, options);
    EXPECT_EQ(status.ok(), c.ok) << c.policy << " \"" << c.params << "\" "
                                 << c.num_shards << ": " << status.ToString();
    if (c.ok && c.num_shards > 0 &&
        PlacementRegistry::Global().Contains(c.policy)) {
      EXPECT_NE(PlacementRegistry::Global().Create(c.policy, options),
                nullptr)
          << c.policy << " \"" << c.params << "\"";
    }
  }
}

TEST_F(PlacementPolicyPropertyTest, DirectoryRebalanceIsDeterministic) {
  // Identical access stats applied to identically configured replicas must
  // produce identical migrations and identical post-migration mappings.
  AccessTracker stats;
  std::vector<std::string> accounts = SampleAccounts(rng_, 64);
  for (int round = 0; round < 500; ++round) {
    const std::string& account = accounts[rng_.NextBounded(accounts.size())];
    stats.RecordRemoteAccess(account,
                             static_cast<ShardId>(rng_.NextBounded(4)));
  }
  DirectoryPlacement a(4, /*top_k=*/6);
  DirectoryPlacement b(4, /*top_k=*/6);
  std::vector<MigrationEvent> ea = a.Rebalance(stats);
  std::vector<MigrationEvent> eb = b.Rebalance(stats);
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_GT(ea.size(), 0u);
  EXPECT_LE(ea.size(), 6u);
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].account, eb[i].account);
    EXPECT_EQ(ea[i].from, eb[i].from);
    EXPECT_EQ(ea[i].to, eb[i].to);
    EXPECT_NE(ea[i].from, ea[i].to);
    EXPECT_GT(ea[i].remote_accesses, 0u);
    // The account now lives where the migration said it went.
    EXPECT_EQ(a.ShardOfAccount(ea[i].account), ea[i].to);
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST_F(PlacementPolicyPropertyTest, RebalanceMovesHotKeysTowardAccessors) {
  DirectoryPlacement policy(4, /*top_k=*/2);
  AccessTracker stats;
  // "hot" is hammered by shard 2; "warm" by shard 1; "cool" barely at all.
  const ShardId hot_home = policy.ShardOfAccount("hot");
  for (int i = 0; i < 100; ++i) stats.RecordRemoteAccess("hot", 2);
  for (int i = 0; i < 50; ++i) stats.RecordRemoteAccess("warm", 1);
  stats.RecordRemoteAccess("cool", 3);
  EXPECT_EQ(stats.total_remote_accesses(), 151u);

  std::vector<MigrationEvent> events = policy.Rebalance(stats);
  // top_k=2 considers only the two hottest accounts; "cool" is never
  // touched even though it too was remote-accessed.
  ASSERT_LE(events.size(), 2u);
  bool hot_moved = false;
  for (const MigrationEvent& e : events) {
    EXPECT_NE(e.account, "cool");
    if (e.account == "hot") {
      hot_moved = true;
      EXPECT_EQ(e.from, hot_home);
      EXPECT_EQ(e.to, 2u);
      EXPECT_EQ(e.remote_accesses, 100u);
    }
  }
  // "hot" migrates unless it already lived on shard 2.
  EXPECT_EQ(hot_moved, hot_home != 2u);
  EXPECT_EQ(policy.ShardOfAccount("hot"), 2u);
}

TEST_F(PlacementPolicyPropertyTest, DirectoryDictionaryStaysBounded) {
  // Long runs churn the hot set: the dictionary must never exceed
  // max_entries, however many epochs of migrations (or manual assigns)
  // pile up — the least-recently-migrated pins fall back to hash.
  constexpr uint32_t kMaxEntries = 32;
  DirectoryPlacement policy(4, /*top_k=*/8, kMaxEntries);
  EXPECT_EQ(policy.max_entries(), kMaxEntries);

  uint64_t total_migrations = 0;
  for (int epoch = 0; epoch < 50; ++epoch) {
    AccessTracker stats;
    // A fresh hot set every epoch, hammered from a rotating shard.
    for (int a = 0; a < 8; ++a) {
      std::string account =
          "epoch" + std::to_string(epoch) + ".hot" + std::to_string(a);
      for (int hit = 0; hit < 10; ++hit) {
        stats.RecordRemoteAccess(account,
                                 static_cast<ShardId>((epoch + a) % 4));
      }
    }
    std::vector<MigrationEvent> events = policy.Rebalance(stats);
    total_migrations += events.size();
    EXPECT_LE(policy.directory_size(), kMaxEntries)
        << "epoch " << epoch << " overflowed the dictionary";
    for (const MigrationEvent& e : events) {
      EXPECT_LT(e.to, 4u);
    }
  }
  // The churn really exercised the bound (not a vacuous pass).
  EXPECT_GT(total_migrations, kMaxEntries);
  EXPECT_EQ(policy.directory_size(), kMaxEntries);

  // Assign floods respect the same bound.
  DirectoryPlacement assigned(4, /*top_k=*/8, kMaxEntries);
  for (int i = 0; i < 500; ++i) {
    assigned.Assign("acct" + std::to_string(i),
                    static_cast<ShardId>(i % 4));
  }
  EXPECT_EQ(assigned.directory_size(), kMaxEntries);
  // The survivors are exactly the most recently assigned pins.
  for (int i = 500 - kMaxEntries; i < 500; ++i) {
    EXPECT_EQ(assigned.ShardOfAccount("acct" + std::to_string(i)),
              static_cast<ShardId>(i % 4));
  }
}

TEST_F(PlacementPolicyPropertyTest, GenerationTracksMutations) {
  // txn::ShardMapper's memo cache keys on generation(): it must move on
  // every mapping change and stay put on lookups.
  DirectoryPlacement policy(4);
  const uint64_t initial = policy.generation();
  policy.ShardOfAccount("acct1");
  EXPECT_EQ(policy.generation(), initial);
  policy.Assign("acct1", 2);
  EXPECT_GT(policy.generation(), initial);

  AccessTracker stats;
  for (int i = 0; i < 10; ++i) stats.RecordRemoteAccess("hotkey", 3);
  const uint64_t before = policy.generation();
  std::vector<MigrationEvent> events = policy.Rebalance(stats);
  if (!events.empty()) {
    EXPECT_GT(policy.generation(), before);
  }
}

}  // namespace
}  // namespace thunderbolt::placement
