// ExecutorPool: the common interface over the two ways this repository
// drives a batch of transactions through a BatchEngine.
//
//   "sim"     SimExecutorPool (sim_executor_pool.h): E *virtual* executors
//             interleaved deterministically on one physical thread over a
//             virtual clock. Reproduces the paper's executor-count sweeps
//             and is the only pool determinism_test accepts.
//   "thread"  ThreadExecutorPool (thread_executor_pool.h): E real
//             std::thread workers with double-buffered batch admission.
//             Produces wall-clock throughput numbers; timings (and, for
//             engines whose serialization order is interleaving-dependent,
//             the order itself) are nondeterministic. Final state still
//             agrees with "sim" on commutative batches — pinned by
//             thread_executor_pool_test / thread_pool_stress_test.
//
// Selection threads through ThunderboltConfig::pool and the benches'
// --pool flag via CreateExecutorPool, mirroring the registry idiom of
// EngineRegistry / WorkloadRegistry / PlacementRegistry / StoreRegistry.
#ifndef THUNDERBOLT_CE_EXECUTOR_POOL_H_
#define THUNDERBOLT_CE_EXECUTOR_POOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ce/batch_engine.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/types.h"
#include "contract/contract.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/transaction.h"

namespace thunderbolt::ce {

/// Virtual-time costs of the execution pipeline. Defaults are calibrated so
/// a single executor sustains roughly the per-core SmallBank rate of the
/// paper's testbed; see EXPERIMENTS.md. The thread pool consumes only the
/// restart-backoff fields (restart_cost / restart_backoff_cap), as real
/// wall-clock pauses between re-admissions of a repeatedly aborted slot.
struct ExecutionCostModel {
  /// Contract logic + storage access per operation (executor-local).
  SimTime op_cost = Micros(18);
  /// Serialized engine critical section per operation (CC latch, lock
  /// manager, or OCC verifier — the shared resource that caps scaling).
  SimTime engine_serial_cost = Micros(2);
  /// Charged to an executor when it begins (or restarts) a transaction.
  SimTime start_cost = Micros(4);
  /// Base penalty before re-running an aborted transaction. Consecutive
  /// restarts of the same transaction back off exponentially with a
  /// per-slot deterministic jitter, breaking the symmetric abort ping-pong
  /// two crossing read-modify-writes would otherwise fall into.
  SimTime restart_cost = Micros(10);
  /// Cap exponent for the restart backoff (max factor 2^cap).
  uint32_t restart_backoff_cap = 6;
};

/// Livelock guards shared by both pools. A batch fails with Internal when
/// one transaction restarts more than kMaxRestartsPerTxn times the batch
/// size (the per-transaction bound promised by the Run contract), or when
/// total restarts exceed kMaxRestartFactor times the batch size (global
/// backstop for ping-pong patterns that keep resetting the per-slot
/// consecutive-restart counter).
inline constexpr uint64_t kMaxRestartsPerTxn = 64;
inline constexpr uint64_t kMaxRestartFactor = 1000;

/// Outcome of executing one batch. `duration` (and the latency histogram)
/// is virtual time for the "sim" pool and wall-clock microseconds for the
/// "thread" pool — see EXPERIMENTS.md before comparing the two. A caller
/// that applies the batch to storage takes the engine's FinalWrites().
struct BatchExecutionResult {
  std::vector<TxnRecord> records;      // Indexed by slot.
  std::vector<TxnSlot> order;          // Serialization order.
  uint64_t total_aborts = 0;           // Re-executions across the batch.
  /// total_aborts broken down by cause, indexed by obs::AbortReason (the
  /// engine reports the reason through the abort callback).
  std::array<uint64_t, obs::kNumAbortReasons> abort_reasons{};
  SimTime start_time = 0;
  SimTime duration = 0;                // Makespan of the batch.
  Histogram commit_latency_us;         // Per-txn commit latency.
  /// Per-transaction phase decomposition of commit_latency_us: the pool
  /// fills kQueueWait / kExecute / kRestartBackoff (one sample per
  /// committed transaction, zeros included so counts line up); the
  /// cluster commit path adds the consensus-side phases on top. Also
  /// merged into the registry's "phase.<name>_us" histograms when a
  /// metrics sink is installed.
  obs::LatencyBreakdown phases;
};

/// Observability context a pool records into. Set once (per node / bench
/// cell) before Run; both sinks may be shared across pools. `tracer` is
/// never null — the default is the shared no-op NullTracer, so an
/// un-instrumented pool costs one branch per would-be event. `pid` scopes
/// trace events to a replica in multi-node runs.
struct PoolObsContext {
  obs::Tracer* tracer = obs::NullTracerInstance();
  obs::MetricsRegistry* metrics = nullptr;
  uint32_t pid = 0;
};

/// The contract context both pools run an attempt in. Each Read and Write
/// goes to the engine under the attempt's slot and incarnation; emitted
/// results are buffered and reach the engine only when the attempt
/// completes (Finish). The sim pool resumes the run one operation per
/// step; the thread pool runs it straight through.
class EngineContext final : public contract::ContractContext {
 public:
  /// Begins an attempt of `slot` on `engine` (BatchEngine::Begin) and
  /// drops the previous attempt's emits.
  void Begin(BatchEngine& engine, TxnSlot slot) {
    engine_ = &engine;
    slot_ = slot;
    incarnation_ = engine_->Begin(slot);
    emits_.clear();
  }

  /// Ends the attempt whose run ended with `run`: a completed run (OK)
  /// first hands its emits to the engine, a failed one (bad arguments,
  /// unknown contract) only finalizes the operations it made. Returns the
  /// engine's Finish status.
  Status Finish(const Status& run) {
    if (run.ok()) {
      for (Value v : emits_) engine_->Emit(slot_, incarnation_, v);
    }
    return engine_->Finish(slot_, incarnation_);
  }

  uint32_t incarnation() const { return incarnation_; }

  void EmitResult(Value value) override { emits_.push_back(value); }

 protected:
  Result<Value> DoRead(const Key& key) override {
    return engine_->Read(slot_, incarnation_, key);
  }
  Status DoWrite(const Key& key, Value value) override {
    return engine_->Write(slot_, incarnation_, key, value);
  }

 private:
  BatchEngine* engine_ = nullptr;
  TxnSlot slot_ = 0;
  uint32_t incarnation_ = 0;
  std::vector<Value> emits_;
};

/// A pool of E executors (virtual or physical) that drives one batch at a
/// time through any BatchEngine. Run is not itself thread-safe: one batch
/// per pool at a time, from one caller thread.
class ExecutorPool {
 public:
  virtual ~ExecutorPool() = default;

  /// Executes `batch` through `engine` using the contracts in `registry`.
  /// `start_time` seeds the clock (used when the pool runs inside the
  /// cluster simulation). Returns Internal on livelock (see
  /// kMaxRestartsPerTxn / kMaxRestartFactor above).
  virtual Result<BatchExecutionResult> Run(
      BatchEngine& engine, const contract::Registry& registry,
      const std::vector<txn::Transaction>& batch, SimTime start_time = 0) = 0;

  virtual uint32_t num_executors() const = 0;

  /// Selection name: "sim" or "thread".
  virtual std::string name() const = 0;

  /// Installs the observability sinks this pool records into (trace events
  /// per transaction/batch, `pool.<name>.*` metrics). Call between
  /// batches, not during Run.
  void SetObs(const PoolObsContext& ctx) { obs_ = ctx; }

 protected:
  /// Publishes a finished batch into obs_.metrics (no-op without one) as
  /// pool.<name>.*: batch, transaction and restart counters (restarts also
  /// by cause), the commit-latency histogram, the phase decomposition, and
  /// the queue-depth and wave-occupancy gauges. Occupancy is the mean of
  /// `occupancy_samples` busy-executor counts summing to `occupancy_sum`,
  /// as a fraction of the pool width.
  void PublishBatchMetrics(const BatchExecutionResult& result,
                           size_t max_queue_depth, uint64_t occupancy_sum,
                           uint64_t occupancy_samples) const;

  PoolObsContext obs_;
};

/// Instantiates the named pool ("sim" or "thread") with `num_executors`
/// executors. Returns nullptr for unknown names.
std::unique_ptr<ExecutorPool> CreateExecutorPool(const std::string& name,
                                                 uint32_t num_executors,
                                                 ExecutionCostModel costs);

/// Registered pool names, sorted ("sim", "thread").
std::vector<std::string> ExecutorPoolNames();

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_EXECUTOR_POOL_H_
