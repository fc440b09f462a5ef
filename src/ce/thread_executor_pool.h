// Real threaded executor pool.
//
// Drives a batch through any BatchEngine with E std::thread workers —
// the production-shaped counterpart of SimExecutorPool's virtual-time
// simulation, and the pool behind the repo's wall-clock tps-vs-threads
// numbers (thunderbolt_bench --pool=thread --threads=...).
//
// Admission is double-buffered, Aria-style (see SNIPPETS.md Snippet 1,
// chenhao-ye/polaris BatchMgr): workers drain the *current* queue while
// every transaction aborted by the engine is re-admitted into the *next*
// queue; when the current queue runs dry the buffers swap. Restart storms
// therefore wait for the in-flight wave to pass instead of hammering the
// engine, and a slot re-admitted many times consecutively additionally
// sleeps an exponentially growing real backoff
// (ExecutionCostModel::restart_cost / restart_backoff_cap) before its next
// attempt.
//
// Engine requirements. Workers call Begin/Read/Write/Emit/Finish
// concurrently, so the engine must declare SupportsConcurrentExecutors()
// and synchronize internally per the thread-safety contract in
// batch_engine.h (this replaces the sim pool's virtual engine_serial_cost
// with the engine's real critical sections). The abort callback runs on
// whichever worker thread triggered the abort, with engine-internal locks
// held; the pool's callback only touches its own queue state under the
// pool mutex (lock order: engine lock, then pool lock — never the
// reverse).
//
// Unlike the sim pool, which resumes a contract one engine operation per
// step, a worker runs each attempt's contract straight through in an
// EngineContext (executor_pool.h), the context the sim pool also uses:
// every operation goes to the engine directly. Contract logic,
// key construction and base-store reads run in parallel on the workers;
// only the engine's internal critical sections serialize.
//
// Determinism caveat: wall-clock timings, abort counts and (for engines
// whose serialization order is interleaving-dependent) the commit order
// are NOT deterministic. determinism_test stays on the "sim" pool; the
// agreement suites pin thread-vs-sim final-state fingerprints on
// commutative batches instead.
#ifndef THUNDERBOLT_CE_THREAD_EXECUTOR_POOL_H_
#define THUNDERBOLT_CE_THREAD_EXECUTOR_POOL_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ce/batch_engine.h"
#include "ce/executor_pool.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/types.h"
#include "contract/contract.h"
#include "txn/transaction.h"

namespace thunderbolt::ce {

class ThreadExecutorPool final : public ExecutorPool {
 public:
  /// Starts `num_executors` worker threads immediately; they idle between
  /// batches so per-Run overhead is one mutex round-trip, not thread
  /// creation. `costs` feeds only the restart backoff (see file header).
  explicit ThreadExecutorPool(uint32_t num_executors,
                              ExecutionCostModel costs = {});
  ~ThreadExecutorPool() override;

  ThreadExecutorPool(const ThreadExecutorPool&) = delete;
  ThreadExecutorPool& operator=(const ThreadExecutorPool&) = delete;

  /// Executes `batch` through `engine`. Blocks until the batch commits or
  /// fails. `start_time` is passed through to the result; `duration` and
  /// the latency histogram are wall-clock microseconds. Returns
  /// InvalidArgument when the engine does not support concurrent
  /// executors (and more than one worker would touch it), Internal on
  /// livelock or engine stall. Not thread-safe: one batch at a time.
  Result<BatchExecutionResult> Run(BatchEngine& engine,
                                   const contract::Registry& registry,
                                   const std::vector<txn::Transaction>& batch,
                                   SimTime start_time = 0) override;

  uint32_t num_executors() const override { return num_executors_; }
  std::string name() const override { return "thread"; }
  const ExecutionCostModel& costs() const { return costs_; }

 private:
  /// Per-batch shared state; valid only while `active_` is true. Owned by
  /// Run, touched by workers strictly under `mu_` (queue state) or via the
  /// engine's own synchronization (engine calls).
  struct Job {
    BatchEngine* engine = nullptr;
    const contract::Registry* registry = nullptr;
    const std::vector<txn::Transaction>* batch = nullptr;
    uint32_t n = 0;

    // Double-buffered admission: workers pop from `current`; aborted
    // transactions are re-admitted into `next`; buffers swap when
    // `current` drains.
    std::deque<TxnSlot> current;
    std::deque<TxnSlot> next;
    std::vector<uint8_t> queued;           // In current or next.
    std::vector<uint8_t> pinned;           // Owned by a worker right now.
    std::vector<uint8_t> restart_pending;  // Aborted while pinned.
    std::vector<uint32_t> consecutive_restarts;

    uint32_t executing = 0;        // Workers inside an attempt.
    uint32_t workers_inside = 0;   // Workers inside the job loop.
    bool done = false;
    Status error = Status::OK();
    // Restarts by cause; mutated in the abort callback under mu_.
    std::array<uint64_t, obs::kNumAbortReasons> reason_counts{};

    std::chrono::steady_clock::time_point wall_start;
    uint64_t wall_start_trace_us = 0;  // wall_start in the trace domain.
    // One histogram per worker (Histogram is single-writer; see
    // common/histogram.h), merged into the result at batch end.
    std::vector<Histogram> worker_latency_us;

    // Per-slot phase accounting (mutated under mu_, read at quiescence):
    // admission -> first attempt, summed attempt durations, summed real
    // backoff sleeps.
    std::vector<uint64_t> queue_wait_us;
    std::vector<uint64_t> exec_us;
    std::vector<uint64_t> backoff_us;
    std::vector<uint8_t> started;  // First attempt seen (queue_wait set).

    // Admission-pressure signals for the pool.thread.* gauges.
    size_t max_queue_depth = 0;     // Peak current+next backlog.
    uint64_t occupancy_sum = 0;     // Sum of `executing` at attempt start.
    uint64_t occupancy_samples = 0;
  };

  void WorkerLoop();
  /// Runs one attempt of `slot` to completion against the engine (no pool
  /// lock held). Returns whether the attempt finished or was aborted.
  enum class Outcome { kFinished, kAborted };
  Outcome Attempt(Job& job, TxnSlot slot);

  /// Wall-clock microseconds since pool construction — the trace
  /// timestamp domain for this pool (monotonic across batches, so
  /// consecutive Runs land side by side on the Perfetto timeline).
  uint64_t TraceNowUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - trace_epoch_)
            .count());
  }

  const uint32_t num_executors_;
  const ExecutionCostModel costs_;
  const std::chrono::steady_clock::time_point trace_epoch_ =
      std::chrono::steady_clock::now();

  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers: new work / job start / end.
  std::condition_variable done_cv_;  // Run: batch finished or failed.
  Job job_;
  bool active_ = false;     // A batch is in flight.
  bool shutdown_ = false;   // Destructor ran; workers exit.
  uint64_t job_gen_ = 0;    // Bumped per Run; keeps late workers off a
                            // finished job and lets them join the next one.
  uint32_t next_worker_id_ = 0;  // Histogram index assignment.
  std::vector<std::thread> workers_;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_THREAD_EXECUTOR_POOL_H_
