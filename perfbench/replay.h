// Per-block pipeline replay: rebuilds, from public calls only, the work the
// cluster does for each block of a workload, and times each stage:
//
//   Workload::MakeShardBatch
//     -> ExecutorPool::Run with the "ce" engine   (preplay, single-shard)
//     -> ValidatePreplay -> KVStore::Write         (validation + apply)
//     -> CrossShardExecutor::Execute               (cross-shard, OE path)
//   or, for serial-after-consensus (Tusk):
//     -> baselines::ExecuteSerial
//   and per block ThunderboltPayload::ContentDigest, one KeyPair::Sign per
//   replica and one KeyDirectory::Verify per quorum signature checked by
//   each replica and the proposer (the DAG's vote + certificate checks).
//
// The store is the "timed" registry wrapper, so every stage's time is
// reported without the time spent inside the store or in the timers around
// the store calls (self time).
#ifndef THUNDERBOLT_PERFBENCH_REPLAY_H_
#define THUNDERBOLT_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "timed_layers.h"
#include "workload/workload.h"

namespace perfbench {

struct ReplayCosts {
  uint64_t blocks = 0;
  uint64_t ce_txns = 0, ce_ns = 0;
  uint64_t validate_txns = 0, validate_ns = 0;
  uint64_t cross_txns = 0, cross_ns = 0;
  uint64_t serial_txns = 0, serial_ns = 0;
  uint64_t crypto_ns = 0;
  /// Empty when every replayed block preplayed and validated cleanly;
  /// otherwise names the first failure.
  std::string failure;
};

/// Replays blocks of `workload_name` (generated from `options`, including
/// its seed) under `config` until one second of wall time has passed and at
/// least two blocks per shard were replayed, or 4000 blocks were replayed.
/// `span_cost` is the timer cost taken out of the stage self times.
ReplayCosts RunReplay(const thunderbolt::core::ThunderboltConfig& config,
                      const std::string& workload_name,
                      thunderbolt::workload::WorkloadOptions options,
                      const SpanCost& span_cost);

}  // namespace perfbench

#endif  // THUNDERBOLT_PERFBENCH_REPLAY_H_
