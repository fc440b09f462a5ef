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
// Interleaving model. A contract is a C++20 coroutine
// (contract/contract.h) that suspends after each engine operation; the
// pool runs it in an EngineContext (executor_pool.h), keeps one suspended
// run per running slot and resumes it at the slot's next step, so a step
// makes at most one engine operation, at the step's virtual time, and each
// attempt runs its contract body once. A run that ends (the body
// returned, or an operation failed) ends the attempt: a completed run
// hands its emitted results to the engine and calls Finish. An abort,
// including one reported for the slot whose operation is on the stack,
// only marks the slot; its next step drops the suspended run and begins a
// new attempt, so no run is destroyed from inside the abort callback.
//
// Timing model per operation:
//   start   = max(executor_free, engine_serial_free)
//   engine_serial_free = start + costs.engine_serial_cost   (shared latch /
//                        lock-manager / central-verifier critical section)
//   executor_free      = start + costs.engine_serial_cost + costs.op_cost
// A step that makes an operation pays op_cost whether or not the operation
// succeeds; the step that only resumes a run to its end pays neither cost
// (start_cost still applies to the step that begins an attempt).
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
