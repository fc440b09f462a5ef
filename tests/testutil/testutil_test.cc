// The helpers the other 28 suites lean on deserve their own coverage:
// a silently broken factory would surface as confusing failures elsewhere.
#include "testutil/testutil.h"

#include <gtest/gtest.h>

namespace thunderbolt::testutil {
namespace {

TEST(MakeStoreTest, PreloadsEntriesWithVersions) {
  storage::MemKVStore store = MakeStore({{"a", 1}, {"b", -2}});
  EXPECT_EQ(store.size(), 2u);
  auto a = store.Get("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->value, 1);
  EXPECT_GT(a->version, 0u);  // Preload counts as a committed write.
  EXPECT_EQ(store.GetOrDefault("b", 0), -2);
  EXPECT_EQ(store.GetOrDefault("missing", 7), 7);
}

TEST(MakeStoreTest, EmptyByDefault) {
  EXPECT_EQ(MakeStore().size(), 0u);
}

TEST(SmallBankBuilderTest, ConfigCarriesArguments) {
  workload::WorkloadOptions options =
      WorkloadTestOptions(123, /*seed=*/9, /*read_ratio=*/0.25,
                          /*theta=*/0.7);
  EXPECT_EQ(options.num_records, 123u);
  EXPECT_EQ(options.seed, 9u);
  EXPECT_DOUBLE_EQ(options.read_ratio, 0.25);
  EXPECT_DOUBLE_EQ(options.theta, 0.7);
}

TEST(SmallBankBuilderTest, MakeSmallBankSeedsStore) {
  storage::MemKVStore store;
  workload::SmallBankWorkload w = MakeSmallBank(&store, 10, /*seed=*/1);
  EXPECT_EQ(store.size(), 20u);  // checking + savings per account.
  EXPECT_EQ(w.TotalBalance(store),
            10 * (workload::SmallBankWorkload::kInitialChecking +
                  workload::SmallBankWorkload::kInitialSavings));
}

TEST(SmallBankBuilderTest, BatchesAreDeterministicPerSeed) {
  storage::MemKVStore s1, s2;
  workload::WorkloadOptions options = WorkloadTestOptions(100, /*seed=*/5);
  auto b1 = MakeSmallBankBatch(&s1, 50, options);
  auto b2 = MakeSmallBankBatch(&s2, 50, options);
  ASSERT_EQ(b1.size(), b2.size());
  for (size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(b1[i].Digest(), b2[i].Digest());
  }
  EXPECT_EQ(s1.ContentFingerprint(), s2.ContentFingerprint());
}

class SeededFixtureTest : public SeededTest {};

TEST_F(SeededFixtureTest, RngStreamIsReproducible) {
  // rng_ is re-seeded identically for every test; an independent stream
  // from the same seed must match it draw for draw.
  Rng fresh = MakeRng(kDefaultSeed);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng_.Next(), fresh.Next());
  }
}

}  // namespace
}  // namespace thunderbolt::testutil
