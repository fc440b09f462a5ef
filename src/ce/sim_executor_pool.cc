#include "ce/sim_executor_pool.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <string>

namespace thunderbolt::ce {

namespace {

/// One logged operation result from a previous partial run.
struct LoggedOp {
  bool is_read;
  Key key;
  Value value;  // Read result, or value written.
};

/// Status code used internally to unwind contract execution after the
/// single new operation of a step has been performed.
constexpr StatusCode kPauseCode = StatusCode::kUnavailable;

bool IsPause(const Status& s) { return s.code() == kPauseCode; }

/// Contract context that replays `log` and then performs exactly one new
/// engine operation before pausing (see file header of
/// sim_executor_pool.h).
class SteppingContext final : public contract::ContractContext {
 public:
  SteppingContext(BatchEngine* engine, TxnSlot slot, uint32_t incarnation,
                  std::vector<LoggedOp>* log)
      : engine_(engine), slot_(slot), incarnation_(incarnation), log_(log) {}

  Result<Value> Read(const Key& key) override {
    if (pos_ < log_->size()) {
      const LoggedOp& op = (*log_)[pos_++];
      // Determinism check: the contract must re-issue the same op sequence.
      if (!op.is_read || op.key != key) {
        return Status::Internal("nondeterministic contract replay (read)");
      }
      return op.value;
    }
    if (did_new_op_) {
      // Should not happen: we pause immediately after the new op.
      return Status(kPauseCode, "step boundary");
    }
    did_new_op_ = true;
    Result<Value> r = engine_->Read(slot_, incarnation_, key);
    if (!r.ok()) return r.status();
    log_->push_back(LoggedOp{true, key, *r});
    return Status(kPauseCode, "step boundary");
  }

  Status Write(const Key& key, Value value) override {
    if (pos_ < log_->size()) {
      const LoggedOp& op = (*log_)[pos_++];
      if (op.is_read || op.key != key || op.value != value) {
        return Status::Internal("nondeterministic contract replay (write)");
      }
      return Status::OK();
    }
    if (did_new_op_) {
      return Status(kPauseCode, "step boundary");
    }
    did_new_op_ = true;
    Status s = engine_->Write(slot_, incarnation_, key, value);
    if (!s.ok()) return s;
    log_->push_back(LoggedOp{false, key, value});
    return Status(kPauseCode, "step boundary");
  }

  void EmitResult(Value value) override {
    // Buffer locally; only the final completing run forwards emits, so
    // replays do not duplicate them.
    emits_.push_back(value);
  }

  bool did_new_op() const { return did_new_op_; }
  const std::vector<Value>& emits() const { return emits_; }

 private:
  BatchEngine* engine_;
  TxnSlot slot_;
  uint32_t incarnation_;
  std::vector<LoggedOp>* log_;
  size_t pos_ = 0;
  bool did_new_op_ = false;
  std::vector<Value> emits_;
};

/// Per-transaction execution state.
struct TxnRun {
  std::vector<LoggedOp> log;
  uint32_t incarnation = 0;
  bool started = false;
  /// Set by the first Begin; restarts keep first_started_at.
  bool ever_started = false;
  SimTime first_started_at = 0;
};

/// An executor currently advancing a transaction; ordered by next free time.
struct BusyExecutor {
  SimTime free_at = 0;
  uint32_t id = 0;
  TxnSlot slot = 0;
  bool operator>(const BusyExecutor& other) const {
    if (free_at != other.free_at) return free_at > other.free_at;
    return id > other.id;
  }
};

/// An executor with no transaction assigned.
struct IdleExecutor {
  SimTime free_at = 0;
  uint32_t id = 0;
  bool operator>(const IdleExecutor& other) const {
    if (free_at != other.free_at) return free_at > other.free_at;
    return id > other.id;
  }
};

enum class StepOutcome { kPaused, kFinished, kAborted, kFailed };

}  // namespace

Result<BatchExecutionResult> SimExecutorPool::Run(
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

  std::vector<TxnRun> runs(n);
  // Transactions waiting for an executor, with the virtual time at which
  // they became available.
  std::deque<std::pair<TxnSlot, SimTime>> ready;
  for (TxnSlot s = 0; s < n; ++s) ready.emplace_back(s, start_time);

  // Restarts requested by the engine (self-aborts and cascading aborts).
  // The abort callback is the single re-queue authority. `queued` also
  // covers slots currently pinned to an executor, so a cascade abort of a
  // transaction another executor is running does not double-queue it: the
  // running executor observes the Aborted status and releases the slot,
  // which the callback already re-queued.
  std::vector<bool> queued(n, true);
  std::vector<bool> pinned(n, false);
  std::vector<uint32_t> consecutive_restarts(n, 0);
  std::vector<bool> needs_backoff(n, false);
  SimTime abort_event_time = start_time;

  // Observability: events carry virtual timestamps, so traces are
  // byte-deterministic per seed (determinism_test pins this). `tracer` is
  // the no-op NullTracer unless SetObs installed a real sink.
  obs::Tracer& tracer = *obs_.tracer;
  const bool tracing = tracer.enabled();
  std::array<uint64_t, obs::kNumAbortReasons> reason_counts{};
  // Executor currently stepping (the lane restart events land on) and the
  // last executor to run each slot (the lane its lifecycle span lands on).
  uint32_t acting_executor = 0;
  std::vector<uint32_t> last_executor(n, 0);
  // Per-transaction livelock bound (the Run contract): one slot restarted
  // more than kMaxRestartsPerTxn * n times *consecutively* fails the batch.
  // consecutive_restarts resets when the slot finishes, so an abort
  // ping-pong that keeps finishing-then-invalidating evades it; the global
  // kMaxRestartFactor cap below backstops that pattern.
  const uint64_t max_restarts_per_txn = kMaxRestartsPerTxn * n;
  TxnSlot livelocked_slot = kRootSlot;
  engine.SetAbortCallback([&](TxnSlot slot, obs::AbortReason reason) {
    runs[slot].log.clear();
    runs[slot].started = false;
    ++consecutive_restarts[slot];
    needs_backoff[slot] = true;
    ++reason_counts[static_cast<size_t>(reason)];
    if (tracing) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kTxnRestart;
      ev.reason = reason;
      ev.pid = obs_.pid;
      ev.tid = acting_executor;
      ev.ts_us = abort_event_time;
      ev.txn = batch[slot].id;
      ev.a = consecutive_restarts[slot];
      tracer.Record(ev);
    }
    if (consecutive_restarts[slot] > max_restarts_per_txn &&
        livelocked_slot == kRootSlot) {
      livelocked_slot = slot;
    }
    if (!queued[slot] && !pinned[slot]) {
      queued[slot] = true;
      ready.emplace_back(slot, abort_event_time);
    }
    // Pinned slots restart in place on their executor: the cleared log and
    // bumped incarnation make the next step Begin() afresh.
  });

  std::priority_queue<BusyExecutor, std::vector<BusyExecutor>, std::greater<>>
      busy;
  std::priority_queue<IdleExecutor, std::vector<IdleExecutor>, std::greater<>>
      idle;
  for (uint32_t e = 0; e < num_executors_; ++e) {
    idle.push(IdleExecutor{start_time, e});
  }

  SimTime engine_serial_free = start_time;
  std::vector<SimTime> commit_time(n, 0);
  // Per-phase accounting: virtual time each slot spent actually executing
  // steps vs parked in restart penalties/backoff (queue wait falls out of
  // first_started_at at the end).
  std::vector<SimTime> exec_us(n, 0);
  std::vector<SimTime> backoff_us(n, 0);
  // Admission-pressure signals for the pool.sim.* gauges: peak ready-queue
  // depth and average busy-executor occupancy across scheduler steps.
  size_t max_queue_depth = 0;
  uint64_t busy_samples_sum = 0;
  uint64_t scheduler_steps = 0;
  // Deterministic per-slot jittered exponential backoff (see
  // ExecutionCostModel::restart_cost).
  auto restart_backoff = [&](TxnSlot slot) {
    uint32_t exp = std::min(consecutive_restarts[slot],
                            costs_.restart_backoff_cap);
    uint64_t jitter = 1 + ((slot * 2654435761u) >> 28) % 8;  // 1..8
    return costs_.restart_cost * jitter * (uint64_t{1} << exp);
  };
  uint32_t last_committed = 0;
  BatchExecutionResult result;
  result.start_time = start_time;
  SimTime last_event = start_time;
  const uint64_t max_restarts = kMaxRestartFactor * n;

  // Hands waiting transactions to idle executors.
  auto assign = [&]() {
    if (ready.size() > max_queue_depth) max_queue_depth = ready.size();
    while (!ready.empty() && !idle.empty()) {
      auto [slot, available_at] = ready.front();
      ready.pop_front();
      queued[slot] = false;
      pinned[slot] = true;
      IdleExecutor ex = idle.top();
      idle.pop();
      busy.push(
          BusyExecutor{std::max(ex.free_at, available_at), ex.id, slot});
    }
  };

  // Advance `slot` by one step at virtual time `now`. Returns the outcome
  // and the consumed virtual cost via `cost`.
  auto step = [&](TxnSlot slot, SimTime now, SimTime* cost) -> StepOutcome {
    TxnRun& run = runs[slot];
    *cost = 0;
    if (!run.started) {
      run.incarnation = engine.Begin(slot);
      run.started = true;
      if (!run.ever_started) {
        run.ever_started = true;
        run.first_started_at = now;
      }
      *cost += costs_.start_cost;
    }
    SteppingContext ctx(&engine, slot, run.incarnation, &run.log);
    Status s = registry.Execute(batch[slot], ctx);
    if (ctx.did_new_op()) *cost += costs_.op_cost;

    if (IsPause(s)) return StepOutcome::kPaused;
    if (s.IsAborted()) return StepOutcome::kAborted;
    if (!s.ok()) return StepOutcome::kFailed;

    // Contract completed: forward emitted results and finalize.
    for (Value v : ctx.emits()) engine.Emit(slot, run.incarnation, v);
    Status fin = engine.Finish(slot, run.incarnation);
    if (fin.IsAborted()) return StepOutcome::kAborted;
    return StepOutcome::kFinished;
  };

  // The per-txn consecutive-restart bound tripped: surface it as its own
  // abort reason (trace + metrics) before failing the batch.
  auto report_restart_bound = [&](TxnSlot slot) {
    ++reason_counts[static_cast<size_t>(obs::AbortReason::kRestartBound)];
    if (tracing) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kTxnRestart;
      ev.reason = obs::AbortReason::kRestartBound;
      ev.pid = obs_.pid;
      ev.tid = acting_executor;
      ev.ts_us = abort_event_time;
      ev.txn = batch[slot].id;
      ev.a = consecutive_restarts[slot];
      tracer.Record(ev);
    }
    if (obs_.metrics != nullptr) {
      obs_.metrics
          ->GetCounter("pool.sim.restart_reason.restart_bound")
          .Inc();
    }
  };

  assign();
  while (!engine.AllCommitted()) {
    if (livelocked_slot != kRootSlot) {
      report_restart_bound(livelocked_slot);
      return Status::Internal(
          "executor pool livelock: txn slot " +
          std::to_string(livelocked_slot) + " restarted " +
          std::to_string(consecutive_restarts[livelocked_slot]) +
          " times consecutively (per-txn bound " +
          std::to_string(max_restarts_per_txn) + ")");
    }
    if (engine.total_aborts() > max_restarts) {
      return Status::Internal("executor pool livelock: " +
                              std::to_string(engine.total_aborts()) +
                              " restarts for batch of " + std::to_string(n));
    }
    if (busy.empty()) {
      // All remaining transactions should be Finished and commit via
      // dependency cascades inside the engine; reaching here with an
      // incomplete batch means the engine's graph logic is broken.
      return Status::Internal(
          "executor pool stalled: no runnable transactions but batch "
          "incomplete (" +
          std::to_string(engine.committed_count()) + "/" + std::to_string(n) +
          " committed)");
    }

    busy_samples_sum += busy.size();
    ++scheduler_steps;
    BusyExecutor ex = busy.top();
    busy.pop();
    const TxnSlot slot = ex.slot;

    // Apply pending restart backoff before re-running an aborted slot.
    if (needs_backoff[slot]) {
      needs_backoff[slot] = false;
      const SimTime pause = restart_backoff(slot);
      backoff_us[slot] += pause;
      busy.push(BusyExecutor{ex.free_at + pause, ex.id, slot});
      continue;
    }

    // Serialize the engine critical section across executors.
    SimTime start = std::max(ex.free_at, engine_serial_free);
    abort_event_time = start;
    acting_executor = ex.id;
    last_executor[slot] = ex.id;
    SimTime cost = 0;
    StepOutcome outcome = step(slot, start, &cost);
    SimTime serial_cost = cost > 0 ? costs_.engine_serial_cost : 0;
    engine_serial_free = start + serial_cost;
    SimTime done = start + serial_cost + cost;
    exec_us[slot] += serial_cost + cost;

    switch (outcome) {
      case StepOutcome::kPaused:
        busy.push(BusyExecutor{done, ex.id, slot});
        break;
      case StepOutcome::kAborted:
        // Restart in place on the same executor (the abort callback
        // already cleared the run state and flagged backoff; defensively
        // clear again for engines that self-abort without the callback).
        runs[slot].log.clear();
        runs[slot].started = false;
        done += costs_.restart_cost;
        backoff_us[slot] += costs_.restart_cost;
        busy.push(BusyExecutor{done, ex.id, slot});
        break;
      case StepOutcome::kFailed: {
        // Contract-level error (bad arguments etc.); the engine still
        // finalizes the operations performed so far to keep the batch
        // deterministic across replicas.
        Status fin = engine.Finish(slot, runs[slot].incarnation);
        if (fin.IsAborted()) {
          runs[slot].log.clear();
          runs[slot].started = false;
          done += costs_.restart_cost;
          backoff_us[slot] += costs_.restart_cost;
          busy.push(BusyExecutor{done, ex.id, slot});
          break;
        }
        pinned[slot] = false;
        idle.push(IdleExecutor{done, ex.id});
        break;
      }
      case StepOutcome::kFinished:
        consecutive_restarts[slot] = 0;
        pinned[slot] = false;
        idle.push(IdleExecutor{done, ex.id});
        break;
    }
    last_event = std::max(last_event, done);

    // Record commit times for transactions committed by this step.
    const std::vector<TxnSlot>& order = engine.SerializationOrder();
    for (; last_committed < order.size(); ++last_committed) {
      const TxnSlot committed_slot = order[last_committed];
      commit_time[committed_slot] = done;
      if (tracing) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kTxnCommit;
        ev.pid = obs_.pid;
        ev.tid = ex.id;
        ev.ts_us = done;
        ev.txn = batch[committed_slot].id;
        ev.a = runs[committed_slot].incarnation;
        ev.b = last_committed;
        tracer.Record(ev);
      }
    }

    assign();
  }

  result.order = engine.SerializationOrder();
  result.total_aborts = engine.total_aborts();
  result.abort_reasons = reason_counts;
  result.records.reserve(n);
  for (TxnSlot s = 0; s < n; ++s) {
    result.records.push_back(engine.ExtractRecord(s));
    SimTime submitted = batch[s].submit_time > 0 ? batch[s].submit_time
                                                 : start_time;
    SimTime committed = std::max(commit_time[s], submitted);
    result.commit_latency_us.Add(static_cast<double>(committed - submitted));
    // Phase decomposition: one sample per committed transaction in each
    // pool-side phase (zeros included so counts line up across phases).
    const SimTime first_start = std::max(runs[s].first_started_at, submitted);
    result.phases[obs::Phase::kQueueWait].Add(
        static_cast<double>(first_start - submitted));
    result.phases[obs::Phase::kExecute].Add(static_cast<double>(exec_us[s]));
    result.phases[obs::Phase::kRestartBackoff].Add(
        static_cast<double>(backoff_us[s]));
    if (tracing) {
      // One lifecycle span per committed transaction: first admission on
      // an executor through the step whose cascade committed it.
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kTxnSpan;
      ev.pid = obs_.pid;
      ev.tid = last_executor[s];
      ev.ts_us = runs[s].first_started_at;
      ev.dur_us = commit_time[s] > runs[s].first_started_at
                      ? commit_time[s] - runs[s].first_started_at
                      : 0;
      ev.txn = batch[s].id;
      ev.a = result.records[s].re_executions;
      ev.b = static_cast<uint64_t>(result.records[s].order);
      // Root of the transaction's causal tree; the cluster's cross-shard
      // hold spans hang under the same trace_id.
      ev.trace_id = batch[s].id;
      ev.span_id = 1;
      tracer.Record(ev);
    }
  }
  result.duration = last_event - start_time;
  if (tracing) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kBatchSpan;
    ev.pid = obs_.pid;
    ev.tid = num_executors_;  // Dedicated lane above the executor lanes.
    ev.ts_us = start_time;
    ev.dur_us = result.duration;
    ev.a = n;
    ev.b = result.total_aborts;
    tracer.Record(ev);
  }
  PublishBatchMetrics(result, max_queue_depth, busy_samples_sum,
                      scheduler_steps);
  return result;
}

}  // namespace thunderbolt::ce
