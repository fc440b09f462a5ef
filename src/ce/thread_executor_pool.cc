#include "ce/thread_executor_pool.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace thunderbolt::ce {

ThreadExecutorPool::ThreadExecutorPool(uint32_t num_executors,
                                       ExecutionCostModel costs)
    : num_executors_(num_executors), costs_(costs) {
  workers_.reserve(num_executors_);
  for (uint32_t i = 0; i < num_executors_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadExecutorPool::~ThreadExecutorPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadExecutorPool::Outcome ThreadExecutorPool::Attempt(Job& job,
                                                        TxnSlot slot) {
  EngineContext ctx;
  ctx.Begin(*job.engine, slot);
  const Status s = job.registry->Execute((*job.batch)[slot], ctx);
  if (s.IsAborted()) return Outcome::kAborted;
  // A completed attempt hands its emits to the engine. A contract-level
  // failure (bad arguments, unknown contract) still finalizes the
  // operations performed so far — same policy as the sim pool — so the
  // batch outcome stays well-defined.
  return ctx.Finish(s).IsAborted() ? Outcome::kAborted : Outcome::kFinished;
}

void ThreadExecutorPool::WorkerLoop() {
  // Worker index = position of this thread's histogram; assigned on first
  // job entry in arrival order.
  std::unique_lock<std::mutex> lk(mu_);
  const uint32_t id = next_worker_id_++;
  uint64_t served = 0;
  for (;;) {
    work_cv_.wait(lk,
                  [&] { return shutdown_ || (active_ && job_gen_ != served); });
    if (shutdown_) return;
    served = job_gen_;
    Job& job = job_;
    ++job.workers_inside;

    while (active_ && !job.done && job.error.ok()) {
      if (job.current.empty() && !job.next.empty()) {
        // Double-buffer swap: the next wave (re-admitted aborted txns)
        // becomes the current batch.
        std::swap(job.current, job.next);
        if (obs_.tracer->enabled()) {
          obs::TraceEvent ev;
          ev.kind = obs::EventKind::kWave;
          ev.pid = obs_.pid;
          ev.tid = id;
          ev.ts_us = TraceNowUs();
          ev.a = job.current.size();
          obs_.tracer->Record(ev);
        }
      }
      if (job.current.empty()) {
        if (job.executing == 0) {
          // No queued work and no attempt in flight: the engine state is
          // frozen, so this is terminal. Calling into the engine while
          // holding the pool mutex is safe here — no worker holds an
          // engine lock (executing == 0).
          if (job.engine->AllCommitted()) {
            job.done = true;
          } else {
            job.error = Status::Internal(
                "thread pool stalled: no runnable transactions but batch "
                "incomplete (" +
                std::to_string(job.engine->committed_count()) + "/" +
                std::to_string(job.n) + " committed)");
          }
          work_cv_.notify_all();
          done_cv_.notify_all();
          break;
        }
        work_cv_.wait(lk);
        continue;
      }

      const size_t backlog = job.current.size() + job.next.size() + 1;
      if (backlog > job.max_queue_depth) job.max_queue_depth = backlog;
      const TxnSlot slot = job.current.front();
      job.current.pop_front();
      job.queued[slot] = 0;
      job.pinned[slot] = 1;
      ++job.executing;
      job.occupancy_sum += job.executing;
      ++job.occupancy_samples;
      const uint32_t restarts = job.consecutive_restarts[slot];

      lk.unlock();
      uint64_t backoff_slept_us = 0;
      if (restarts > 0) {
        // Real exponential backoff before re-running a restarted slot,
        // mirroring the sim pool's virtual restart_cost model.
        const uint32_t exp = std::min(restarts, costs_.restart_backoff_cap);
        backoff_slept_us = costs_.restart_cost * (uint64_t{1} << exp);
        std::this_thread::sleep_for(
            std::chrono::microseconds(backoff_slept_us));
      }
      const uint64_t attempt_start_us = TraceNowUs();
      const Outcome outcome = Attempt(job, slot);
      const uint64_t attempt_end_us = TraceNowUs();
      const double latency_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - job.wall_start)
              .count();
      // Engine progress counters are lock-free by contract, so these are
      // safe without the pool mutex.
      const bool all_committed = job.engine->AllCommitted();
      const bool over_global_cap =
          job.engine->total_aborts() > kMaxRestartFactor * job.n;
      if (outcome == Outcome::kFinished && obs_.tracer->enabled()) {
        // One span per completing attempt; for engines that commit at
        // Finish this is the transaction's lifecycle span.
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kTxnSpan;
        ev.pid = obs_.pid;
        ev.tid = id;
        ev.ts_us = attempt_start_us;
        ev.dur_us = attempt_end_us - attempt_start_us;
        ev.txn = (*job.batch)[slot].id;
        ev.a = restarts;
        ev.trace_id = (*job.batch)[slot].id;
        ev.span_id = 1;
        obs_.tracer->Record(ev);
      }
      lk.lock();

      // Phase accounting under the pool mutex.
      if (!job.started[slot]) {
        job.started[slot] = 1;
        job.queue_wait_us[slot] =
            attempt_start_us > job.wall_start_trace_us
                ? attempt_start_us - job.wall_start_trace_us
                : 0;
      }
      job.exec_us[slot] += attempt_end_us - attempt_start_us;
      job.backoff_us[slot] += backoff_slept_us;

      --job.executing;
      job.pinned[slot] = 0;
      const bool requeue =
          job.restart_pending[slot] != 0 || outcome == Outcome::kAborted;
      job.restart_pending[slot] = 0;
      if (requeue) {
        if (!job.queued[slot]) {
          job.queued[slot] = 1;
          job.next.push_back(slot);
        }
        work_cv_.notify_one();
      } else {
        job.consecutive_restarts[slot] = 0;
        job.worker_latency_us[id].Add(latency_us);
      }
      if (over_global_cap && job.error.ok()) {
        job.error = Status::Internal(
            "thread pool livelock: " +
            std::to_string(job.engine->total_aborts()) +
            " restarts for batch of " + std::to_string(job.n));
      }
      if (all_committed) job.done = true;
      if (job.done || !job.error.ok()) {
        work_cv_.notify_all();
        done_cv_.notify_all();
      }
    }

    --job_.workers_inside;
    done_cv_.notify_all();
  }
}

Result<BatchExecutionResult> ThreadExecutorPool::Run(
    BatchEngine& engine, const contract::Registry& registry,
    const std::vector<txn::Transaction>& batch, SimTime start_time) {
  const uint32_t n = static_cast<uint32_t>(batch.size());
  if (n == 0) {
    BatchExecutionResult empty;
    empty.start_time = start_time;
    return empty;
  }
  if (num_executors_ == 0) {
    return Status::InvalidArgument("executor pool needs >= 1 executor");
  }
  if (num_executors_ > 1 && !engine.SupportsConcurrentExecutors()) {
    return Status::InvalidArgument(
        "engine does not support concurrent executors (see the "
        "thread-safety contract in ce/batch_engine.h)");
  }

  // The callback runs on worker threads with engine-internal locks held;
  // it touches only pool queue state, under the pool mutex (lock order:
  // engine, then pool).
  engine.SetAbortCallback([this](TxnSlot slot, obs::AbortReason reason) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!active_) return;
    Job& job = job_;
    ++job.consecutive_restarts[slot];
    ++job.reason_counts[static_cast<size_t>(reason)];
    if (obs_.tracer->enabled()) {
      // Engine locks + pool mutex are held; the ring's own mutex is a
      // leaf, so recording here preserves the lock order.
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kTxnRestart;
      ev.reason = reason;
      ev.pid = obs_.pid;
      ev.ts_us = TraceNowUs();
      ev.txn = (*job.batch)[slot].id;
      ev.a = job.consecutive_restarts[slot];
      obs_.tracer->Record(ev);
    }
    if (job.consecutive_restarts[slot] > kMaxRestartsPerTxn * job.n &&
        job.error.ok()) {
      ++job.reason_counts[static_cast<size_t>(obs::AbortReason::kRestartBound)];
      job.error = Status::Internal(
          "thread pool livelock: txn slot " + std::to_string(slot) +
          " restarted " + std::to_string(job.consecutive_restarts[slot]) +
          " times consecutively (per-txn bound " +
          std::to_string(kMaxRestartsPerTxn * job.n) + ")");
      work_cv_.notify_all();
      done_cv_.notify_all();
    }
    if (job.pinned[slot]) {
      // The owning worker observes the abort (stale incarnation) or, if
      // its attempt already completed, re-admits via this flag.
      job.restart_pending[slot] = 1;
      return;
    }
    if (!job.queued[slot]) {
      job.queued[slot] = 1;
      job.next.push_back(slot);
      work_cv_.notify_one();
    }
  });

  std::unique_lock<std::mutex> lk(mu_);
  job_ = Job{};
  job_.engine = &engine;
  job_.registry = &registry;
  job_.batch = &batch;
  job_.n = n;
  for (TxnSlot s = 0; s < n; ++s) job_.current.push_back(s);
  job_.queued.assign(n, 1);
  job_.pinned.assign(n, 0);
  job_.restart_pending.assign(n, 0);
  job_.consecutive_restarts.assign(n, 0);
  job_.worker_latency_us.resize(num_executors_);
  job_.queue_wait_us.assign(n, 0);
  job_.exec_us.assign(n, 0);
  job_.backoff_us.assign(n, 0);
  job_.started.assign(n, 0);
  job_.wall_start = std::chrono::steady_clock::now();
  job_.wall_start_trace_us = TraceNowUs();
  active_ = true;
  ++job_gen_;
  work_cv_.notify_all();

  done_cv_.wait(lk, [&] {
    return (job_.done || !job_.error.ok()) && job_.workers_inside == 0;
  });
  active_ = false;

  const SimTime wall_us = static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - job_.wall_start)
          .count());
  Status error = job_.error;
  if (!error.ok()) {
    engine.SetAbortCallback({});
    return error;
  }

  // All workers have left and the batch is committed: the engine is
  // quiescent, so result extraction needs no synchronization.
  BatchExecutionResult result;
  result.start_time = start_time;
  result.duration = wall_us;
  result.order = engine.SerializationOrder();
  result.total_aborts = engine.total_aborts();
  result.abort_reasons = job_.reason_counts;
  result.records.reserve(n);
  for (TxnSlot s = 0; s < n; ++s) {
    result.records.push_back(engine.ExtractRecord(s));
  }
  // Merge the single-writer per-worker histograms (common/histogram.h).
  for (const Histogram& h : job_.worker_latency_us) {
    result.commit_latency_us.Merge(h);
  }
  // Per-phase decomposition: one sample per transaction in each
  // pool-side phase (zeros included so counts line up).
  for (TxnSlot s = 0; s < n; ++s) {
    result.phases[obs::Phase::kQueueWait].Add(
        static_cast<double>(job_.queue_wait_us[s]));
    result.phases[obs::Phase::kExecute].Add(
        static_cast<double>(job_.exec_us[s]));
    result.phases[obs::Phase::kRestartBackoff].Add(
        static_cast<double>(job_.backoff_us[s]));
  }
  if (obs_.tracer->enabled()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kBatchSpan;
    ev.pid = obs_.pid;
    ev.tid = num_executors_;  // Dedicated lane above the worker lanes.
    ev.ts_us = TraceNowUs() - wall_us;
    ev.dur_us = wall_us;
    ev.a = n;
    ev.b = result.total_aborts;
    obs_.tracer->Record(ev);
  }
  PublishBatchMetrics(result, job_.max_queue_depth, job_.occupancy_sum,
                      job_.occupancy_samples);
  engine.SetAbortCallback({});
  return result;
}

}  // namespace thunderbolt::ce
