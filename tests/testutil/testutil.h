// Shared helpers for the Thunderbolt test suites: seeded-RNG fixtures,
// preloaded KV store factories and SmallBank workload builders. Everything
// here is deterministic — helpers take explicit seeds so a failing test
// reproduces from its own source alone.
#ifndef THUNDERBOLT_TESTS_TESTUTIL_TESTUTIL_H_
#define THUNDERBOLT_TESTS_TESTUTIL_TESTUTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"
#include "workload/smallbank_workload.h"

namespace thunderbolt::testutil {

/// Seed used by fixtures that don't care about the specific stream.
inline constexpr uint64_t kDefaultSeed = 0x7e57c0deULL;

/// Fixture with a deterministic RNG, re-seeded identically for every test
/// so sampled values never depend on test execution order.
class SeededTest : public ::testing::Test {
 protected:
  SeededTest() : rng_(kDefaultSeed) {}

  /// Independent stream for tests that need more than one generator.
  Rng MakeRng(uint64_t seed) const { return Rng(seed); }

  Rng rng_;
};

/// Fresh in-memory store preloaded with the given key/value pairs.
storage::MemKVStore MakeStore(
    std::vector<std::pair<std::string, storage::Value>> entries = {});

/// WorkloadOptions sized for tests (small population, fixed seed), for
/// any workload, constructed directly or by name (e.g. via core::Cluster).
/// Default ratios match the paper's SmallBank mix (theta 0.85, Pr 0.5).
workload::WorkloadOptions WorkloadTestOptions(uint64_t num_records,
                                              uint64_t seed,
                                              double read_ratio = 0.5,
                                              double theta = 0.85);

/// SmallBank over `WorkloadTestOptions`. When `store` is non-null its
/// account balances are initialized first.
workload::SmallBankWorkload MakeSmallBank(storage::MemKVStore* store,
                                          uint64_t num_accounts,
                                          uint64_t seed,
                                          double read_ratio = 0.5,
                                          double theta = 0.85);

/// One-shot SmallBank batch builder: seeds `store` with `options`'
/// accounts and returns `count` transactions from its mix. Takes the full
/// options (built via `WorkloadTestOptions`) rather than loose scalars so
/// call sites can't silently transpose account/batch counts.
std::vector<txn::Transaction> MakeSmallBankBatch(
    storage::MemKVStore* store, size_t count,
    const workload::WorkloadOptions& options);

}  // namespace thunderbolt::testutil

#endif  // THUNDERBOLT_TESTS_TESTUTIL_TESTUTIL_H_
