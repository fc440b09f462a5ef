// BatchEngine: the common executor-facing interface implemented by every
// concurrency-control engine in this repository — Thunderbolt's CC
// (ce/concurrency_controller.h), and the OCC and 2PL-No-Wait baselines
// (ce/occ_engine.h, ce/tpl_nowait_engine.h), all created by name through
// ce::EngineRegistry. The simulated executor pool (ce/sim_executor_pool.h)
// drives any engine through this interface, which is what makes the
// Figure 11/12 comparisons apples-to-apples.
#ifndef THUNDERBOLT_CE_BATCH_ENGINE_H_
#define THUNDERBOLT_CE_BATCH_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"

namespace thunderbolt::ce {

using storage::Key;
using storage::Value;

/// Index of a transaction within the batch being executed.
using TxnSlot = uint32_t;

/// Sentinel for "value read from the root (committed storage)".
inline constexpr TxnSlot kRootSlot = ~TxnSlot{0};

/// Re-queue callback: invoked once per restart with the victim slot and
/// *why* it was torn down (obs::AbortReason) — the executor pools break
/// total_aborts down by reason and emit restart trace events from it.
using AbortCallback = std::function<void(TxnSlot, obs::AbortReason)>;

/// Per-transaction outcome extracted after the batch commits.
struct TxnRecord {
  txn::ReadWriteSet rw_set;
  std::vector<Value> emitted;   // Results surfaced to the client.
  uint32_t re_executions = 0;   // Times the transaction was restarted.
  int order = -1;               // Position in the serialization order.
};

/// A concurrency-control engine executing one batch of transactions.
///
/// Lifecycle per slot: Begin -> {Read|Write|Emit}* -> Finish. Any call may
/// return Status::Aborted, after which the executor must re-run the
/// transaction from scratch with the incarnation returned by a new Begin.
/// Engines report *all* restarts (self-aborts and aborts inflicted by other
/// transactions) through the abort callback; that callback is the single
/// re-queue path for the executor pool.
///
/// Thread-safety contract (ThreadExecutorPool). An engine that returns
/// true from SupportsConcurrentExecutors() promises, for the duration of
/// one batch:
///
///  1. Begin/Read/Write/Emit/Finish may be called concurrently from
///     multiple executor threads, provided each *slot* is operated on by
///     at most one thread at a time (the pool pins a slot to one worker
///     per attempt). The engine synchronizes cross-slot shared state
///     internally — this is the real critical section the sim pool models
///     as engine_serial_cost.
///  2. AllCommitted / committed_count / total_aborts are safe to call
///     from any thread at any time and must not block on locks that are
///     held while invoking the abort callback (use atomics).
///  3. The abort callback may be invoked on any executor thread, with
///     engine-internal locks held. Callbacks must therefore not re-enter
///     the engine; the pools only touch their own queue state (lock
///     order: engine lock, then pool lock).
///  4. SerializationOrder / ExtractRecord / FinalWrites are only called
///     after AllCommitted() with all executors quiescent, and need no
///     synchronization.
///
/// Engines that return false (the default) are only ever driven by a
/// single thread — the sim pool, or the thread pool with one worker.
class BatchEngine {
 public:
  virtual ~BatchEngine() = default;

  /// True when the engine's operations may be called from concurrent
  /// executor threads per the contract above. ThreadExecutorPool refuses
  /// to run an engine with more than one worker unless this is true.
  virtual bool SupportsConcurrentExecutors() const { return false; }

  /// Registers the re-queue callback. Must be set before execution starts.
  /// The reason argument classifies the abort: read-write conflict /
  /// cascade invalidation (CC), validation failure (OCC), lock-acquire
  /// failure (2PL-No-Wait).
  virtual void SetAbortCallback(AbortCallback cb) = 0;

  /// Starts (or restarts) a slot; returns its current incarnation.
  virtual uint32_t Begin(TxnSlot slot) = 0;

  virtual Result<Value> Read(TxnSlot slot, uint32_t incarnation,
                             const Key& key) = 0;
  virtual Status Write(TxnSlot slot, uint32_t incarnation, const Key& key,
                       Value value) = 0;
  virtual void Emit(TxnSlot slot, uint32_t incarnation, Value value) = 0;

  /// Finalization phase: the transaction issued all its operations.
  /// Depending on the engine this validates and/or commits; commit may also
  /// happen later when dependencies commit.
  virtual Status Finish(TxnSlot slot, uint32_t incarnation) = 0;

  virtual bool AllCommitted() const = 0;
  virtual uint32_t committed_count() const = 0;

  /// Total number of restarts across the batch (Figure 11's
  /// "# of Re-executions" numerator).
  virtual uint64_t total_aborts() const = 0;

  /// The serialization order (slots). Meaningful once AllCommitted().
  virtual const std::vector<TxnSlot>& SerializationOrder() const = 0;

  virtual TxnRecord ExtractRecord(TxnSlot slot) const = 0;

  /// Final value of every key written by the batch under the
  /// serialization order.
  virtual storage::WriteBatch FinalWrites() const = 0;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_BATCH_ENGINE_H_
