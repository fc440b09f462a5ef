// Cluster-wide configuration for Thunderbolt nodes.
#ifndef THUNDERBOLT_CORE_CONFIG_H_
#define THUNDERBOLT_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "ce/executor_pool.h"
#include "common/types.h"
#include "net/network.h"
#include "obs/obs.h"
#include "svc/service.h"

namespace thunderbolt::core {

/// Which execution pipeline the cluster runs (paper section 12). The
/// preplay engine is chosen separately, by ThunderboltConfig::engine.
enum class ExecutionMode {
  /// Preplay (EOV) + parallel verification + OE cross-shard path:
  /// Thunderbolt with the "ce" engine, Thunderbolt-OCC with "occ".
  kThunderbolt,
  /// Plain Tusk: blocks carry raw transactions, executed serially in
  /// commit order after consensus (OE with sequential execution).
  kTusk,
};

struct ThunderboltConfig {
  uint32_t n = 4;                      // Replicas (= shards).
  ExecutionMode mode = ExecutionMode::kThunderbolt;
  /// Preplay engine, by ce::EngineRegistry name: "ce" (default; the
  /// Concurrency Controller), "occ" or "2pl". Unused under kTusk, which
  /// does not preplay.
  std::string engine = "ce";

  // --- Shard proposer / execution ------------------------------------------
  uint32_t batch_size = 500;           // Transactions preplayed per block.
  uint32_t num_executors = 16;         // CE pool width.
  uint32_t num_validators = 16;        // Parallel validation width.
  ce::ExecutionCostModel exec_costs;   // Per-operation virtual costs.
  /// Executor pool driving preplay, by ce::CreateExecutorPool name:
  /// "sim" (default; deterministic virtual-time simulation — required for
  /// determinism baselines) or "thread" (real std::thread workers,
  /// wall-clock timings, nondeterministic interleavings).
  std::string pool = "sim";

  // --- Consensus cadence ----------------------------------------------------
  /// Fixed per-proposal CPU cost (batch serialization, signing, block
  /// bookkeeping) charged before broadcasting each block. Together with the
  /// network's bandwidth/processing model this sets the round cadence; the
  /// default approximates the ~0.07 s/round the paper reports (Figure 16).
  SimTime proposal_prep_cost = Millis(25);
  /// A shard proposer waiting for the round leader's proposal (rule P3)
  /// converts its single-shard transactions to cross-shard after this
  /// timeout (rule P6).
  SimTime leader_timeout = Millis(400);
  /// Conflict handling for single-shard transactions whose accounts
  /// overlap pending cross-shard transactions:
  ///   false (default): convert immediately to cross-shard (rule P4).
  ///   true: defer them and emit Skip blocks until the conflicting
  ///         cross-shard transactions finalize, converting only after
  ///         leader_timeout (the section 5.4 preplay-recovery variant).
  bool use_skip_blocks = false;

  // --- Storage ---------------------------------------------------------------
  /// Canonical committed-store backend, as a storage::StoreRegistry spec:
  /// a plain name ("mem", "sorted", "cow") or a parametrized wrapper spec
  /// ("cached:capacity=4096,inner=sorted", "wal:group_commit=4,
  /// inner=sorted"). "mem" is the historical default (hash map,
  /// byte-identical determinism baselines); "cow" makes snapshot/fork O(1)
  /// structural sharing; "wal" adds a group-committed durability log with
  /// crash recovery (see storage/wal_kv_store.h).
  std::string store = "mem";

  // --- Placement -------------------------------------------------------------
  /// Account -> shard placement policy, by placement::PlacementRegistry
  /// name ("hash", "range", "directory", "locality"). "directory" is the
  /// one that performs hot-key migration at reconfiguration boundaries.
  std::string placement = "hash";
  /// Policy-specific parameters (see placement::PlacementOptions::params).
  std::string placement_params;

  // --- Reconfiguration (section 6) ------------------------------------------
  /// Broadcast a Shift block when some proposer has been silent for K
  /// rounds...
  Round silence_rounds_k = 8;
  /// ...or unconditionally every K' rounds (K' > K). 0 disables periodic
  /// rotation (the system-evaluation default outside Figure 15/16).
  Round reconfig_period_k_prime = 0;

  // --- Observability ---------------------------------------------------------
  /// Trace/metrics knobs for the cluster's obs::Observability bundle.
  /// Metrics are always collected (atomic counters; negligible cost);
  /// `obs.trace = true` additionally records lifecycle trace events into a
  /// ring buffer exported as Chrome trace JSON. Under the "sim" pool the
  /// trace is byte-deterministic per seed (determinism_test pins this).
  obs::ObsOptions obs;

  // --- Service front end ------------------------------------------------------
  /// Open-loop arrival + admission control (svc::ServiceFrontEnd). When
  /// `service.enabled`, proposers pull admitted transactions from per-shard
  /// bounded queues fed by a seeded arrival process instead of generating
  /// fresh batches on demand; commit latency then measures arrival ->
  /// commit. Disabled by default (closed loop, byte-identical to before).
  svc::ServiceConfig service;

  // --- Network ---------------------------------------------------------------
  net::LatencyModel latency = net::LatencyModel::Lan();
  uint64_t seed = 7;
};

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_CONFIG_H_
