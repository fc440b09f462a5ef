// Simulated executor pool.
//
// Drives a batch of transactions through any BatchEngine with E virtual
// executors on a virtual clock (EXPERIMENTS.md "Virtual time"): the
// *decisions* — dependency edges, lock conflicts, validation failures,
// aborts — are made by the real engine algorithms; only the passage of
// time is simulated.
// This reproduces the paper's executor-count sweeps (Figures 11/12) on a
// single physical core, fully deterministically. For real wall-clock
// parallelism see ThreadExecutorPool (thread_executor_pool.h); both
// implement the common ExecutorPool interface (executor_pool.h).
//
// Interleaving model. Contracts are ordinary C++ functions that call
// ContractContext synchronously, so they cannot be suspended mid-body.
// The pool instead advances a transaction one *operation* at a time by
// deterministic re-execution: each step re-runs the contract from the top
// with a context that replays the previously observed operation results
// from a log and performs exactly one new engine operation before pausing.
// Because contracts are deterministic given their read values, the replay
// is exact; engine state is only touched by the single new operation, at
// the correct virtual time. The replay cost is quadratic in a contract's
// operation count and not negligible: on the perfbench cluster-smallbank
// workload (seeds 1 and 13) a transaction attempt runs its contract 3.9
// times, and each engine operation costs 2.05 more context calls replayed
// from the log, each run rebuilding the contract's key strings.
//
// Timing model per operation:
//   start   = max(executor_free, engine_serial_free)
//   engine_serial_free = start + costs.engine_serial_cost   (shared latch /
//                        lock-manager / central-verifier critical section)
//   executor_free      = start + costs.engine_serial_cost + costs.op_cost
// Restarted transactions pay costs.restart_cost before re-running.
#ifndef THUNDERBOLT_CE_SIM_EXECUTOR_POOL_H_
#define THUNDERBOLT_CE_SIM_EXECUTOR_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ce/batch_engine.h"
#include "ce/executor_pool.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/types.h"
#include "contract/contract.h"
#include "txn/transaction.h"

namespace thunderbolt::ce {

class SimExecutorPool final : public ExecutorPool {
 public:
  SimExecutorPool(uint32_t num_executors, ExecutionCostModel costs)
      : num_executors_(num_executors), costs_(costs) {}

  /// Executes `batch` through `engine` using the contracts in `registry`.
  /// `start_time` seeds the virtual clock (used when the pool runs inside
  /// the cluster simulation). Returns Internal on livelock: a transaction
  /// restarted more than kMaxRestartsPerTxn times the batch size (per-slot
  /// bound over *consecutive* restarts), or total restarts above
  /// kMaxRestartFactor times the batch size (global backstop).
  Result<BatchExecutionResult> Run(BatchEngine& engine,
                                   const contract::Registry& registry,
                                   const std::vector<txn::Transaction>& batch,
                                   SimTime start_time = 0) override;

  uint32_t num_executors() const override { return num_executors_; }
  std::string name() const override { return "sim"; }
  const ExecutionCostModel& costs() const { return costs_; }

 private:
  uint32_t num_executors_;
  ExecutionCostModel costs_;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_SIM_EXECUTOR_POOL_H_
