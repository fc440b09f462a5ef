#include "core/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "ce/engine_registry.h"
#include "ce/executor_pool.h"

namespace thunderbolt::core {

namespace {

/// Parses `spec` over WorkloadOptions defaults, aborting on malformed
/// params (cluster construction is configuration; see Cluster ctor docs).
workload::WorkloadOptions OptionsFromParams(const std::string& spec) {
  workload::WorkloadOptions options;
  Status s = workload::ApplyWorkloadParams(spec, &options);
  if (!s.ok()) {
    std::fprintf(stderr, "Cluster: bad workload params \"%s\": %s\n",
                 spec.c_str(), s.ToString().c_str());
    std::abort();
  }
  return options;
}

}  // namespace

Cluster::Cluster(ThunderboltConfig config, const std::string& workload_name,
                 workload::WorkloadOptions options)
    : config_(config) {
  options.num_shards = config_.n;
  simulator_ = std::make_unique<sim::Simulator>();
  network_ = std::make_unique<net::SimNetwork>(simulator_.get(), config_.n,
                                               config_.latency, config_.seed);
  keys_ = crypto::KeyDirectory::Create(config_.n, config_.seed);
  registry_ = contract::Registry::CreateDefault();
  workload_ =
      workload::WorkloadRegistry::Global().Create(workload_name, options);
  if (workload_ == nullptr) {
    std::fprintf(stderr, "Cluster: unknown workload \"%s\"\n",
                 workload_name.c_str());
    std::abort();
  }
  placement_ = workload::InstallPlacement(
      workload_.get(), config_.placement, config_.placement_params, config_.n);
  if (placement_ == nullptr) {
    std::fprintf(stderr, "Cluster: unknown placement policy \"%s\"\n",
                 config_.placement.c_str());
    std::abort();
  }
  // The obs bundle precedes the store: a "wal" backend traces its
  // append/checkpoint barriers through it (and into its sim-time clock).
  obs_ = std::make_unique<obs::Observability>(config_.obs);
  shared_ = std::make_unique<SharedClusterState>();
  storage::StoreOptions store_options;
  store_options.tracer = obs_->tracer();
  store_options.now_us = [sim = simulator_.get()] { return sim->Now(); };
  shared_->canonical =
      storage::StoreRegistry::Global().Create(config_.store, store_options);
  if (shared_->canonical == nullptr) {
    std::fprintf(stderr, "Cluster: unknown store backend \"%s\"\n",
                 config_.store.c_str());
    std::abort();
  }
  // Validate the pool and engine names before any node constructs with
  // them.
  const std::vector<std::string> pools = ce::ExecutorPoolNames();
  if (std::find(pools.begin(), pools.end(), config_.pool) == pools.end()) {
    std::fprintf(stderr, "Cluster: unknown executor pool \"%s\"\n",
                 config_.pool.c_str());
    std::abort();
  }
  if (!ce::EngineRegistry::Global().Contains(config_.engine)) {
    std::fprintf(stderr, "Cluster: unknown engine \"%s\"\n",
                 config_.engine.c_str());
    std::abort();
  }
  workload_->InitStore(shared_->canonical.get());
  if (config_.service.enabled) {
    // Open-loop front end: the arrival processes draw client transactions
    // from the workload (one shard-homed stream per shard) and proposers
    // dequeue admitted work instead of generating batches on demand.
    service_ = std::make_unique<svc::ServiceFrontEnd>(
        config_.service, config_.n, config_.seed,
        [w = workload_.get()](ShardId shard) { return w->NextForShard(shard); },
        &obs_->metrics());
    shared_->service = service_.get();
  }

  nodes_.reserve(config_.n);
  for (ReplicaId id = 0; id < config_.n; ++id) {
    nodes_.push_back(std::make_unique<ThunderboltNode>(
        config_, id, simulator_.get(), network_.get(), &keys_, registry_,
        workload_.get(), placement_, shared_.get(), obs_.get(),
        /*is_observer=*/id == 0));
  }
}

Cluster::Cluster(ThunderboltConfig config, const std::string& workload_name,
                 const std::string& workload_params)
    : Cluster(config, workload_name, OptionsFromParams(workload_params)) {}

Cluster::~Cluster() = default;

void Cluster::CrashReplicaAt(ReplicaId id, SimTime when) {
  assert(id != 0 && "the observer replica must stay alive");
  assert(!started_ && "CrashReplicaAt must be scheduled before Run");
  simulator_->ScheduleAt(when, [this, id]() {
    network_->Crash(id);
    nodes_[id]->Stop();
    obs::Tracer& tracer = *obs_->tracer();
    if (tracer.enabled()) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kCrash;
      e.pid = id;
      e.ts_us = simulator_->Now();
      tracer.Record(e);
    }
  });
}

ClusterResult Cluster::Run(SimTime duration) {
  if (!started_) {
    started_ = true;
    for (auto& node : nodes_) node->Start();
    if (obs_->timeseries() != nullptr && config_.obs.timeseries_window_us > 0) {
      ScheduleWindowSample(config_.obs.timeseries_window_us);
    }
    if (service_ != nullptr) PumpArrivals();
  }
  const SimTime end = simulator_->Now() + duration;
  simulator_->RunUntil(end);
  // Record the run edge so a later FlushTimeSeries stamps the trailing
  // partial window at `end`, not at the last boundary that happened to
  // close (idempotent for windows the sampler chain already closed).
  obs_->SampleWindow(end);

  // The observer counted every outcome into the registry when it happened;
  // a transaction counts once its pipeline completion lies in the window.
  ClusterResult result;
  result.duration = duration;
  result.committed_single = CounterDelta("cluster.commits_single");
  result.committed_cross = CounterDelta("cluster.commits_cross");
  result.invalid_blocks = CounterDelta("cluster.invalid_blocks");
  result.skip_blocks = CounterDelta("cluster.skip_blocks");
  result.shift_blocks = CounterDelta("cluster.shift_blocks");
  result.conversions = CounterDelta("cluster.conversions");
  result.reconfigurations = CounterDelta("cluster.reconfigurations");
  result.preplay_aborts = CounterDelta("cluster.preplay_aborts");
  result.migrations = CounterDelta("cluster.migrations");
  // The pools break restarts down by cause into registry counters named
  // pool.<pool>.restart_reason.<reason>.
  for (size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    result.abort_reasons[r] = CounterDelta(
        "pool." + config_.pool + ".restart_reason." +
        obs::AbortReasonName(static_cast<obs::AbortReason>(r)));
  }
  result.commit_times = nodes_[0]->commit_times();

  const Histogram latency = HistogramWindow("cluster.commit_latency_us");
  const uint64_t committed = result.committed_single + result.committed_cross;
  result.throughput_tps =
      static_cast<double>(committed) / ToSeconds(duration);
  result.avg_latency_s = latency.Mean() / 1e6;
  result.p50_latency_s = latency.Median() / 1e6;
  result.p99_latency_s = latency.Percentile(99) / 1e6;
  result.p999_latency_s = latency.Percentile(99.9) / 1e6;
  result.latency_samples = latency.Count();
  if (service_ != nullptr) {
    const Histogram admit = HistogramWindow("cluster.admit_latency_us");
    result.admit_p99_latency_s = admit.Percentile(99) / 1e6;
    result.admit_p999_latency_s = admit.Percentile(99.9) / 1e6;
    result.offered = CounterDelta("svc.offered");
    result.admitted = CounterDelta("svc.admitted");
    result.rejected = CounterDelta("svc.rejected");
    result.shed = CounterDelta("svc.shed");
  } else {
    // Closed loop: admit == submit, so the admit->commit view coincides.
    result.admit_p99_latency_s = result.p99_latency_s;
    result.admit_p999_latency_s = result.p999_latency_s;
  }
  // Pool-side phases recorded during preplay, commit-path phases by the
  // observer.
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    result.phase_latency.phase[p] = HistogramWindow(
        std::string("phase.") + obs::PhaseName(static_cast<obs::Phase>(p)) +
        "_us");
  }

  // The canonical store's traffic counters are not events the nodes see;
  // mirror them into the registry here, so a --metrics-out snapshot
  // captures the whole system, not just the pools' view.
  obs::MetricsRegistry& m = obs_->metrics();
  auto sync_counter = [&m](const char* name, uint64_t cumulative) {
    obs::Counter& c = m.GetCounter(name);
    c.Inc(cumulative - c.value());  // Both monotone; bring up to date.
  };
  const storage::StoreStats stats = shared_->canonical->Stats();
  sync_counter("store.gets", stats.gets);
  sync_counter("store.puts", stats.puts);
  sync_counter("store.deletes", stats.deletes);
  sync_counter("store.batches", stats.batches);
  sync_counter("store.scans", stats.scans);
  sync_counter("store.snapshots", stats.snapshots);
  sync_counter("store.forks", stats.forks);
  // Wrapper-backend counters appear only when the layer is in the stack,
  // so plain-backend metrics snapshots stay byte-identical to before.
  if (stats.cache_hits + stats.cache_misses > 0) {
    sync_counter("store.cache_hits", stats.cache_hits);
    sync_counter("store.cache_misses", stats.cache_misses);
  }
  if (stats.wal_appends + stats.wal_checkpoints +
          stats.wal_recovered_records > 0) {
    sync_counter("store.wal_appends", stats.wal_appends);
    sync_counter("store.wal_syncs", stats.wal_syncs);
    sync_counter("store.wal_checkpoints", stats.wal_checkpoints);
    sync_counter("store.wal_recovered_records", stats.wal_recovered_records);
  }
  m.GetGauge("store.live_keys").Set(static_cast<double>(stats.live_keys));
  obs_->SyncTraceStats();
  return result;
}

uint64_t Cluster::CounterDelta(const std::string& name) {
  const obs::Counter* c = obs_->metrics().FindCounter(name);
  const uint64_t now = c == nullptr ? 0 : c->value();
  uint64_t& mark = counter_marks_[name];
  const uint64_t delta = now - mark;
  mark = now;
  return delta;
}

Histogram Cluster::HistogramWindow(const std::string& name) {
  const obs::HistogramMetric* h = obs_->metrics().FindHistogram(name);
  if (h == nullptr) return {};
  size_t& mark = histogram_marks_[name];
  Histogram window = h->Since(mark);
  mark += window.Count();
  return window;
}

void Cluster::ScheduleWindowSample(SimTime when) {
  simulator_->ScheduleAt(when, [this, when]() {
    obs_->SampleWindow(when);
    ScheduleWindowSample(when + config_.obs.timeseries_window_us);
  });
}

void Cluster::PumpArrivals() {
  const SimTime next = service_->NextArrivalTime();
  if (next == kSimTimeNever) return;  // Trace replay exhausted.
  simulator_->ScheduleAt(next, [this, next]() {
    service_->AdvanceTo(next);
    PumpArrivals();
  });
}

}  // namespace thunderbolt::core
