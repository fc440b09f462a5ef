// ThunderboltNode: one replica of the Thunderbolt system (paper sections
// 3-6), combining every role the paper assigns to a node:
//   1. shard proposer — preplays its shard's single-shard transactions
//      through the Concurrent Executor (EOV) and proposes blocks;
//   2. replica — participates in the Tusk DAG consensus;
//   3. leader — commits cross-shard transactions in total order (OE).
//
// Proposal rules P1-P6 (section 5.1):
//   P1  Cross-shard TXs bypass the CE and ride blocks unexecuted.
//   P2  At commit, a leader's single-shard blocks apply before its
//       cross-shard transactions (G1).
//   P3  Before preplaying round r, a proposer waits for round r's leader
//       proposal (odd rounds) to learn of conflicting cross-shard TXs.
//   P4  Single-shard TXs whose accounts overlap a known uncommitted
//       cross-shard TX are not preplayed: they are deferred (Skip-block
//       path, section 5.4) and converted to cross-shard TXs if the
//       conflict persists past the leader timeout.
//   P5  Ordering gaps from missing shard proposals are handled a
//       posteriori: deterministic validation discards any preplayed block
//       whose declared reads no longer match, at every honest replica
//       alike.
//   P6  A proposer whose leader wait times out converts its pending
//       single-shard TXs to cross-shard TXs and submits them directly.
//
// Reconfiguration (section 6): Shift blocks are emitted on K-round
// proposer silence, every K' rounds, or after seeing f+1 Shift blocks;
// the first commit whose epoch-cumulative history holds 2f+1 Shift blocks
// ends the DAG, and all replicas restart a fresh DAG with shard ownership
// rotated round-robin, without ever pausing DAG construction.
//
// Simulation-level state dedup: all honest replicas apply the identical
// committed sequence, so the cluster keeps one canonical committed store,
// and replicas receive one payload object per block, which holds what the
// block's host work yields. Its digest, size and cross-shard account ids
// (interned in the cluster's one AccountIdTable) are cached by the first
// replica to ask. Its commit results, the validation verdict and, on a
// leader, the sub-DAG's cross-shard execution, are filled by the first
// replica to commit it; the rest reuse them while still being charged the
// virtual-time cost. Each replica still applies its own receive, commit
// and reconfiguration events to its own P4 index, so sharing the ids
// changes no decision.
// What a run retains: each replica collects its DAG below kDagGcDepth
// rounds under each committed leader, and a block's payload (preplayed
// transactions with their read/write sets, or raw transactions, and its
// commit results) is freed once the last replica collects it, so the
// retained blocks stay within a few rounds per replica however long the
// run. Retained for the whole run: every Histogram sample and the
// observer's commit_times.
#ifndef THUNDERBOLT_CORE_NODE_H_
#define THUNDERBOLT_CORE_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "ce/sim_executor_pool.h"
#include "common/histogram.h"
#include "common/simulator.h"
#include "common/types.h"
#include "contract/contract.h"
#include "core/config.h"
#include "core/cross_shard_executor.h"
#include "core/payload.h"
#include "core/pending_cross_index.h"
#include "core/validator.h"
#include "crypto/signature.h"
#include "dag/dag_core.h"
#include "net/network.h"
#include "obs/obs.h"
#include "placement/placement.h"
#include "storage/kv_store.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace thunderbolt::core {

/// Depth of DAG garbage collection: after committing the leader of round
/// r, a replica collects every DAG round below r - kDagGcDepth (four leader
/// rounds back), as Narwhal/Tusk collect below the last committed round
/// minus a depth. Safe because nothing reaches back that far:
/// instrumenting DagCore across every tier-1 test that runs a Cluster and
/// the fig13-17 and ablation --quick drivers (n up to 64, LAN and WAN,
/// crashes, reconfiguration, directory migrations) found no message for a
/// round below its receiver's last committed leader round, and no block
/// committed more than 6 rounds below its leader (two crashed leaders in a
/// row; 3 in the drivers). DagCore::ignored_below_gc() reads 0 in all of
/// them.
inline constexpr Round kDagGcDepth = 8;

/// State shared across all nodes of a simulated cluster: the canonical
/// committed store and the cluster-wide tables every replica reads. Per-
/// block results live on the block's payload instead (see file header).
struct SharedClusterState {
  /// Created by the Cluster from storage::StoreRegistry per
  /// ThunderboltConfig::store; always non-null while nodes run.
  std::unique_ptr<storage::KVStore> canonical;
  /// Dense ids for the accounts of cross-shard transactions, shared by
  /// every replica's P4 index (PendingCrossIndex).
  AccountIdTable account_ids;
  /// Remote-access counters for the current epoch, recorded by the first
  /// replica to execute each committed cross-shard batch and consumed by
  /// PlacementPolicy::Rebalance at the next reconfiguration boundary. Only
  /// a policy that reads them (PlacementPolicy::ConsumesAccessTracker,
  /// i.e. directory) gets them recorded; under any other it stays empty.
  placement::AccessTracker access_tracker;
  /// The last epoch whose boundary rebalance ran (the first replica to
  /// enter an epoch performs the deterministic migration; peers share the
  /// policy object in this simulation).
  EpochId rebalanced_epoch = 0;
  /// Hot-key migrations applied at reconfiguration boundaries, in order,
  /// appended by whichever replica performed that epoch's rebalance
  /// (directory placement; empty for policies without migration).
  std::vector<placement::MigrationEvent> migration_events;
  /// Open-loop service front end, owned by the Cluster; null in closed
  /// loop. When set, PullBatch dequeues admitted transactions (arrival-
  /// stamped submit_time) instead of generating fresh ones.
  svc::ServiceFrontEnd* service = nullptr;
};

class ThunderboltNode {
 public:
  ThunderboltNode(const ThunderboltConfig& config, ReplicaId id,
                  sim::Simulator* simulator, net::SimNetwork* network,
                  const crypto::KeyDirectory* keys,
                  std::shared_ptr<const contract::Registry> registry,
                  workload::Workload* workload,
                  std::shared_ptr<placement::PlacementPolicy> placement,
                  SharedClusterState* shared, obs::Observability* obs,
                  bool is_observer);

  ThunderboltNode(const ThunderboltNode&) = delete;
  ThunderboltNode& operator=(const ThunderboltNode&) = delete;

  /// Registers network handlers and kicks off round 1.
  void Start();

  /// Stops proposing (crash simulation; network drop handled by caller).
  void Stop() { stopped_ = true; }

  ReplicaId id() const { return id_; }
  EpochId epoch() const { return epoch_; }
  ShardId owned_shard() const { return owned_shard_; }
  const dag::DagCore& dag() const { return *dag_; }
  uint64_t proposals_made() const { return proposals_made_; }
  /// (commit index, pipeline completion time) per committed leader, kept
  /// by the observer only (empty elsewhere); drives Figure 16.
  const std::vector<std::pair<Round, SimTime>>& commit_times() const {
    return commit_times_;
  }

  /// Shard owned by replica `id` in `epoch` for an n-replica cluster:
  /// ownership rotates round-robin each epoch (section 6).
  static ShardId ShardOwnedBy(ReplicaId id, EpochId epoch, uint32_t n) {
    return static_cast<ShardId>((id + epoch) % n);
  }

 private:
  // --- Proposal pipeline ----------------------------------------------------
  void OnRoundReady(Round round);
  void TryPropose();
  void BuildProposal(Round round);
  void FinishProposal(Round round, std::shared_ptr<ThunderboltPayload> p,
                      SimTime prep_cost);
  void StartPreplay(Round round, std::vector<txn::Transaction> singles,
                    std::vector<txn::Transaction> crosses);
  /// Pulls a fresh shard batch, routing each txn to the single- or
  /// cross-shard path.
  void PullBatch(std::vector<txn::Transaction>* singles,
                 std::vector<txn::Transaction>* crosses);
  bool ShouldShift(Round round) const;

  // --- DAG callbacks -----------------------------------------------------------
  void OnBlockReceived(const dag::BlockPtr& block);
  void OnCommit(const dag::CommittedSubDag& sub_dag);
  void Reconfigure(Round ending_round);

  // --- Speculative state (own shard) ---------------------------------------
  /// Applies `payload`'s preplayed writes to the overlay; returns whether
  /// it had any.
  bool OverlayWrites(const ThunderboltPayload& payload);
  /// Rebuilds the preplay overlay from in-flight (proposed, uncommitted)
  /// blocks' writes.
  void RebuildOverlay();

  const ThunderboltConfig config_;
  const ReplicaId id_;
  sim::Simulator* simulator_;
  net::SimNetwork* network_;
  const crypto::KeyDirectory* keys_;
  std::shared_ptr<const contract::Registry> registry_;
  workload::Workload* workload_;
  std::shared_ptr<placement::PlacementPolicy> placement_;
  SharedClusterState* shared_;
  /// Cluster-owned observability bundle. The preplay pool records through
  /// it directly (SetObs in the ctor); the node adds cluster-level events
  /// — validation/cross-shard spans and epoch fences — at the observer
  /// only, so the shared timeline carries each commit-path event once.
  obs::Observability* obs_;
  const bool is_observer_;

  /// The cluster.* outcome metrics, resolved once at construction so an
  /// outcome that never happens still reads as zero. Each outcome is
  /// counted exactly once, at the virtual time it happens (Cluster::Run
  /// reads window deltas): a proposer counts its own conversions, the
  /// replica performing an epoch's rebalance its migrations, and the
  /// observer every commit-path outcome. Preplay aborts are the pools'
  /// pool.<pool>.restarts.
  struct Outcomes {
    Outcomes(obs::MetricsRegistry& m, bool open_loop);
    obs::Counter& invalid_blocks;    // Preplayed blocks discarded.
    obs::Counter& skip_blocks;       // Committed skip blocks.
    obs::Counter& shift_blocks;      // Committed shift blocks.
    obs::Counter& conversions;       // Single->cross conversions (P4/P6).
    obs::Counter& reconfigurations;  // DAG switches.
    obs::Counter& migrations;        // Hot-key migrations applied.
    /// Submit->completion latency per committed transaction.
    obs::HistogramMetric& commit_latency;
    /// Admit->completion latency; only under the service front end (null
    /// in closed loop, where admit == submit).
    obs::HistogramMetric* admit_latency;
  };
  Outcomes outcomes_;

  std::unique_ptr<dag::DagCore> dag_;
  /// Preplay pool: virtual executors on the simulation's clock.
  ce::SimExecutorPool pool_;
  CrossShardExecutor cross_executor_;

  EpochId epoch_ = 0;
  ShardId owned_shard_;
  bool stopped_ = false;

  // Proposal pipeline state.
  bool building_ = false;
  Round building_round_ = 0;
  bool leader_wait_armed_ = false;
  std::set<Round> leader_wait_expired_;
  SimTime ce_free_ = 0;
  uint64_t proposals_made_ = 0;
  Round rounds_proposed_in_epoch_ = 0;

  // Deferred single-shard transactions (Skip-block path, section 5.4),
  // with the virtual time each was first deferred (conversion deadline).
  std::deque<std::pair<txn::Transaction, SimTime>> deferred_singles_;

  // P4 index: the cross-shard transactions seen in received blocks but not
  // yet committed, and a reference count per account they touch. Its only
  // reader is the conflict check of rule P4 (and the re-admission of
  // deferred singles, section 5.4), which a Tusk proposer never reaches, so
  // only kThunderbolt maintains it. An id is enough: TxnIds are unique (one
  // shared Workload counter), and a replica receives every block before it
  // commits it, so OnCommit releases the committed transaction's own
  // accounts. Reconfigure clears it with the old DAG. The pending TxnIds
  // sit in a flat open-addressing table (TxnIdSet) that keeps its capacity,
  // so receiving and committing allocate nothing per transaction. The
  // counts are kept by dense account id (shared_->account_ids), read from
  // each payload's shared id cache, which the cross-shard executor's
  // account queues key on too; the events that move them are this
  // replica's own, so P4 decides exactly as with per-replica account
  // strings.
  PendingCrossIndex pending_cross_;

  // Preplay overlay: own-shard speculative writes from in-flight blocks,
  // the ones with writes, in proposal order. A block leaves when it
  // commits valid; shared ownership keeps its write sets readable after
  // DAG garbage collection.
  std::vector<std::shared_ptr<const ThunderboltPayload>> in_flight_;
  std::unordered_map<storage::Key, storage::Value> overlay_;

  // Reconfiguration state (per epoch).
  bool shift_sent_ = false;
  std::set<ReplicaId> shift_seen_;       // From received blocks (cond. 3).
  std::set<ReplicaId> shift_committed_;  // From committed blocks (quorum).

  // Commit pipeline (validation + execution) virtual-time resource.
  SimTime commit_pipeline_free_ = 0;
  std::vector<std::pair<Round, SimTime>> commit_times_;  // Observer only.
  /// Observer-side sequence number for kValidateSpan trace events.
  uint64_t validate_seq_ = 0;
};

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_NODE_H_
