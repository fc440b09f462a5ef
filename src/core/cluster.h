// Cluster harness: builds and runs a simulated Thunderbolt deployment of n
// replicas on one discrete-event simulator. This is the top-level entry
// point used by the system benchmarks (Figures 13-17), the integration
// tests, and the examples.
#ifndef THUNDERBOLT_CORE_CLUSTER_H_
#define THUNDERBOLT_CORE_CLUSTER_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/simulator.h"
#include "core/config.h"
#include "core/node.h"
#include "obs/latency.h"
#include "obs/obs.h"
#include "placement/placement.h"
#include "svc/service.h"
#include "workload/workload.h"

namespace thunderbolt::core {

/// Summary of a cluster run.
struct ClusterResult {
  uint64_t committed_single = 0;
  uint64_t committed_cross = 0;
  uint64_t invalid_blocks = 0;
  uint64_t skip_blocks = 0;
  uint64_t shift_blocks = 0;
  uint64_t conversions = 0;
  uint64_t reconfigurations = 0;
  /// Preplay re-executions in every replica's pool (pool.<pool>.restarts).
  uint64_t preplay_aborts = 0;
  /// Hot-key migrations applied at reconfiguration boundaries in this
  /// window (directory placement; 0 for policies without migration).
  uint64_t migrations = 0;
  SimTime duration = 0;
  double throughput_tps = 0;     // Committed transactions per virtual second.
  double avg_latency_s = 0;      // Mean commit latency in virtual seconds.
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  double p999_latency_s = 0;
  /// Commit-latency samples behind the percentiles above. When 0 (an idle
  /// window) the percentile fields are meaningless — consumers must treat
  /// them as absent, not as "0 seconds" (bench JSON emits null).
  uint64_t latency_samples = 0;
  /// Preplay aborts in this window broken down by cause, indexed by
  /// obs::AbortReason (window delta of the pools' restart_reason metrics).
  std::array<uint64_t, obs::kNumAbortReasons> abort_reasons{};
  /// (commit index, completion time) pairs from the observer since
  /// construction, not just this window (Figure 16).
  std::vector<std::pair<Round, SimTime>> commit_times;
  /// Per-phase commit-latency decomposition for this window (microsecond
  /// samples recorded into the registry's phase.<name>_us histograms by the
  /// pools — queue_wait / execute / restart_backoff — and the observer's
  /// commit path — validate / commit_apply / cross_shard_hold). Phases
  /// count different populations (preplayed vs committed vs cross-shard
  /// transactions), so their counts need not match latency_samples.
  obs::LatencyBreakdown phase_latency;

  // --- Service front end (all 0 in closed-loop runs) ------------------------
  /// Window deltas of the front end's accounting (svc/admission.h
  /// terminology): arrivals generated / accepted into a queue / turned away
  /// at the door (limiter or full drop-tail/codel queue) / dropped after
  /// admission (shed-oldest eviction, codel deadline shedding).
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  /// Admit->commit percentiles over the same window samples as
  /// p99/p999_latency_s (which are arrival->commit under the front end);
  /// the gap between the two views is the admission-queue wait. Meaningless
  /// when latency_samples == 0.
  double admit_p99_latency_s = 0;
  double admit_p999_latency_s = 0;
};

class Cluster {
 public:
  /// Runs the named registry workload ("smallbank", "ycsb", "tpcc_lite",
  /// ...) configured from `options`. `options.num_shards` is forced to
  /// `config.n` (one shard per replica, paper section 3.1). Aborts on an
  /// unknown workload, placement, store or engine name, or a pool other
  /// than "sim" — cluster construction is configuration, and a bad name is
  /// a programming error at every call site.
  Cluster(ThunderboltConfig config, const std::string& workload_name,
          workload::WorkloadOptions options);

  /// Same, with the options given as a "key=value[,key=value...]" param
  /// string over WorkloadOptions defaults, so
  /// `Cluster(config, "ycsb", "theta=0.9")` just works.
  Cluster(ThunderboltConfig config, const std::string& workload_name,
          const std::string& workload_params = "");

  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Crashes a replica at virtual time `when` (relative to run start).
  /// Must be called before Run. The observer (replica 0) must stay alive.
  void CrashReplicaAt(ReplicaId id, SimTime when);

  /// Runs the cluster for `duration` of virtual time and returns metrics.
  /// May be called repeatedly; each call continues the same deployment and
  /// reports the delta window.
  ClusterResult Run(SimTime duration);

  // --- Introspection ---------------------------------------------------------
  const ThunderboltNode& node(ReplicaId id) const { return *nodes_[id]; }
  sim::Simulator& simulator() { return *simulator_; }
  net::SimNetwork& network() { return *network_; }
  const storage::KVStore& canonical_state() const {
    return *shared_->canonical;
  }
  /// The cluster's observability bundle: metrics are always live; the
  /// trace ring exists when config.obs.trace was set. WriteJson /
  /// WriteChromeJson on these produce the bench --metrics-out/--trace-out
  /// artifacts.
  obs::Observability& obs() { return *obs_; }
  const obs::Observability& obs() const { return *obs_; }
  workload::Workload& workload() { return *workload_; }
  const workload::Workload& workload() const { return *workload_; }
  /// The open-loop service front end; null unless config.service.enabled.
  const svc::ServiceFrontEnd* service() const { return service_.get(); }
  /// The placement policy every node maps accounts through (mutated only
  /// at reconfiguration boundaries by hot-key migration).
  const placement::PlacementPolicy& placement() const { return *placement_; }
  /// The current epoch's remote-access counters. Recorded only when the
  /// placement policy consumes them (directory); empty under any other.
  const placement::AccessTracker& access_tracker() const {
    return shared_->access_tracker;
  }
  /// Hot-key migrations applied since construction, in order.
  const std::vector<placement::MigrationEvent>& migration_events() const {
    return shared_->migration_events;
  }

  /// The workload's consistency invariant over the canonical committed
  /// state (end-of-run validation for tests and benches).
  Status CheckInvariant() const {
    return workload_->CheckInvariant(*shared_->canonical);
  }

 private:
  ThunderboltConfig config_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::SimNetwork> network_;
  crypto::KeyDirectory keys_;
  std::shared_ptr<const contract::Registry> registry_;
  std::unique_ptr<workload::Workload> workload_;
  /// Shared with every node and (as const) with the workload's mapper;
  /// declared after workload_ so the locality policy's hint — which calls
  /// back into the workload — never outlives it.
  std::shared_ptr<placement::PlacementPolicy> placement_;
  /// Declared before shared_: the canonical store's backend may trace into
  /// the bundle (a "wal" store flushes + records a final wal.append span at
  /// destruction), so the tracer must outlive it.
  std::unique_ptr<obs::Observability> obs_;
  /// Open-loop front end (null in closed loop). After obs_ (publishes svc.*
  /// metrics into the bundle) and before shared_ (nodes reach it through
  /// SharedClusterState::service).
  std::unique_ptr<svc::ServiceFrontEnd> service_;
  std::unique_ptr<SharedClusterState> shared_;
  std::vector<std::unique_ptr<ThunderboltNode>> nodes_;
  bool started_ = false;

  /// Window reads over the registry, which every ClusterResult field comes
  /// from: a counter's growth, or the histogram samples recorded, since the
  /// previous Run read that metric (absent metrics read as empty).
  uint64_t CounterDelta(const std::string& name);
  Histogram HistogramWindow(const std::string& name);
  std::map<std::string, uint64_t> counter_marks_;
  std::map<std::string, size_t> histogram_marks_;

  /// Schedules the self-rechaining time-series sampler event at `when`
  /// (a window boundary on the sim clock). Started once, from the first
  /// Run, when config.obs.timeseries is set.
  void ScheduleWindowSample(SimTime when);

  /// Self-rechaining arrival-pump event: admits every arrival at its exact
  /// sim time, then re-arms at the next one. Started once, from the first
  /// Run, when the service front end is enabled.
  void PumpArrivals();
};

}  // namespace thunderbolt::core

#endif  // THUNDERBOLT_CORE_CLUSTER_H_
