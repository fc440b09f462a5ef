// thunderbolt_perfbench: one measured run of one benchmark workload against
// core::Cluster, driven from the outside. perfbench/run.py starts one fresh
// process per run and aggregates the JSON line this prints.
//
//   thunderbolt_perfbench --workload <name> --seed <n> [--mode plain|traced]
//
// plain    the untraced run: one timed Cluster construction (set-up), a
//          virtual warm-up, then a fixed virtual window whose wall time,
//          memory, virtual outcome and layer counts are reported.
// traced   the same run on the "timed" store and "timed.<workload>"
//          registry wrappers (timed_layers.h), followed by the per-block
//          pipeline replay (replay.h). Layer times are reported net of the
//          timers' own cost, which is measured first and printed.
//
// Both modes check the run (workload invariant, latency sample floor,
// nonzero throughput, open-loop admission accounting) and exit 3 naming the
// failed check instead of printing a result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "core/cluster.h"
#include "core/config.h"
#include "obs/latency.h"
#include "replay.h"
#include "timed_layers.h"
#include "workload/workload.h"

namespace {

namespace tb = thunderbolt;

/// One benchmark workload. Every workload runs n=8 replicas, batch 500,
/// 16 executors, 16 validators, LAN, "hash" placement and the "mem" store.
struct WorkloadSpec {
  const char* name;
  const char* workload;
  const char* params;
  tb::core::ExecutionMode mode;
  double open_loop_tps;  // 0 = closed loop.
  tb::SimTime warmup, window;
};

// Windows are fixed in virtual time, so every virtual output is a pure
// function of the seed; cluster-tusk in particular must keep its length,
// because its serial backlog makes p50 grow with run length.
constexpr WorkloadSpec kWorkloads[] = {
    {"cluster-smallbank", "smallbank", "",
     tb::core::ExecutionMode::kThunderbolt, 0, tb::Millis(500),
     tb::Millis(1000)},
    {"cluster-tusk", "smallbank", "", tb::core::ExecutionMode::kTusk, 0,
     tb::Millis(500), tb::Millis(1000)},
    {"open-cross", "ycsb", "theta=0.9,cross_shard_ratio=0.3",
     tb::core::ExecutionMode::kThunderbolt, 40000, tb::Millis(500),
     tb::Millis(2000)},
};

constexpr uint64_t kMinLatencySamples = 10000;

const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(perfbench::NowNs() - start_ns) / 1e9;
}

double CurrentRssMb() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t CounterValue(const tb::obs::MetricsRegistry& m, const char* name) {
  const tb::obs::Counter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

/// Cluster-wide counters read from public getters, for window deltas.
struct Counters {
  uint64_t events = 0, messages = 0, dag_blocks = 0, proposals = 0;
  uint64_t ce_txns = 0, ce_restarts = 0, store_gets = 0, store_puts = 0;

  static Counters Read(tb::core::Cluster& cluster, uint32_t n) {
    Counters c;
    c.events = cluster.simulator().executed_events();
    c.messages = cluster.network().messages_delivered();
    c.dag_blocks = cluster.node(0).dag().committed_block_count();
    for (tb::ReplicaId r = 0; r < n; ++r) {
      c.proposals += cluster.node(r).proposals_made();
    }
    c.ce_txns = CounterValue(cluster.obs().metrics(), "pool.sim.txns");
    c.ce_restarts = CounterValue(cluster.obs().metrics(), "pool.sim.restarts");
    const tb::storage::StoreStats stats = cluster.canonical_state().Stats();
    c.store_gets = stats.gets;
    c.store_puts = stats.puts;
    return c;
  }
};

/// Builds a flat JSON object with full-precision numbers.
class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) {
    Raw(key, std::to_string(v));
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  std::string Done() const { return body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + v;
  }

  std::string body_;
};

int Fail(const char* check) {
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n", check);
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload_flag = FlagValue(argc, argv, "--workload");
  const char* seed_flag = FlagValue(argc, argv, "--seed");
  const char* mode_flag = FlagValue(argc, argv, "--mode");
  const std::string mode = mode_flag == nullptr ? "plain" : mode_flag;
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload_flag != nullptr && std::strcmp(workload_flag, w.name) == 0) {
      spec = &w;
    }
  }
  if (spec == nullptr || seed_flag == nullptr ||
      (mode != "plain" && mode != "traced")) {
    std::fprintf(stderr,
                 "usage: thunderbolt_perfbench --workload "
                 "<cluster-smallbank|cluster-tusk|open-cross> --seed <n> "
                 "[--mode plain|traced]\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(seed_flag, nullptr, 10);
  const bool traced = mode == "traced";
  perfbench::SpanCost span_cost;
  if (traced) {
    perfbench::RegisterTimedLayers();
    span_cost = perfbench::MeasureSpanCost();
  }

  tb::core::ThunderboltConfig config;
  config.n = 8;
  config.mode = spec->mode;
  config.batch_size = 500;
  config.num_executors = 16;
  config.num_validators = 16;
  config.pool = "sim";
  config.latency = tb::net::LatencyModel::Lan();
  config.placement = "hash";
  config.store = "mem";
  config.seed = seed;
  if (spec->open_loop_tps > 0) {
    config.service.enabled = true;
    config.service.arrival = "poisson";
    config.service.rate_tps = spec->open_loop_tps;
    config.service.admission = "drop-tail";
  }
  tb::workload::WorkloadOptions options;
  const tb::Status params =
      tb::workload::ApplyWorkloadParams(spec->params, &options);
  if (!params.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", params.ToString().c_str());
    return 2;
  }
  options.seed = seed;

  tb::core::ThunderboltConfig cluster_config = config;
  std::string cluster_workload = spec->workload;
  if (traced) {
    cluster_config.store = "timed:inner=" + config.store;
    cluster_workload = "timed." + cluster_workload;
  }

  // Set-up: Cluster construction including store seeding, once per process
  // so it pays the cold first-touch cost a real run pays.
  const uint64_t setup_start = perfbench::NowNs();
  auto cluster = std::make_unique<tb::core::Cluster>(cluster_config,
                                                     cluster_workload, options);
  const double setup_s = SecondsSince(setup_start);

  const tb::SimTime window = spec->window;
  cluster->Run(spec->warmup);
  const double rss_warm_mb = CurrentRssMb();
  const Counters before = Counters::Read(*cluster, config.n);
  perfbench::StoreClock().Reset();
  perfbench::WorkloadClock().Reset();
  const uint64_t run_start = perfbench::NowNs();
  const tb::core::ClusterResult r = cluster->Run(window);
  const double run_wall_s = SecondsSince(run_start);
  const double rss_end_mb = CurrentRssMb();
  const perfbench::LayerClock store_clock = perfbench::StoreClock();
  const perfbench::LayerClock gen_clock = perfbench::WorkloadClock();
  const Counters after = Counters::Read(*cluster, config.n);

  const uint64_t committed = r.committed_single + r.committed_cross;
  if (!cluster->CheckInvariant().ok()) return Fail("workload invariant");
  if (r.latency_samples < kMinLatencySamples) {
    return Fail("latency samples below 10000");
  }
  if (!(r.throughput_tps > 0)) return Fail("virtual_tps is zero");
  if (config.service.enabled && r.offered != r.admitted + r.rejected) {
    return Fail("offered != admitted + rejected");
  }

  char fingerprint[512];
  std::snprintf(fingerprint, sizeof(fingerprint),
                "fingerprint workload=%s seed=%" PRIu64
                " committed_single=%" PRIu64 " committed_cross=%" PRIu64
                " virtual_tps=%.17g p50_s=%.17g p999_s=%.17g samples=%" PRIu64
                " store=%016" PRIx64,
                spec->name, seed, r.committed_single, r.committed_cross,
                r.throughput_tps, r.p50_latency_s, r.p999_latency_s,
                static_cast<uint64_t>(r.latency_samples),
                cluster->canonical_state().ContentFingerprint());

  JsonLine out;
  out.Str("workload", spec->name);
  out.Str("mode", mode);
  out.Str("fingerprint", fingerprint);
  out.Num("setup_s", setup_s);
  out.Num("window_virtual_s", tb::ToSeconds(window));
  out.Num("run_wall_s", run_wall_s);
  out.Num("rss_warm_mb", rss_warm_mb);
  out.Num("rss_end_mb", rss_end_mb);
  out.Num("peak_rss_mb", PeakRssMb());
  out.Int("committed", committed);
  out.Num("virtual_tps", r.throughput_tps);
  out.Num("p50_s", r.p50_latency_s);
  out.Num("p999_s", r.p999_latency_s);
  out.Int("latency_samples", r.latency_samples);
  out.Int("invalid_blocks", r.invalid_blocks);
  out.Int("invalid_txns_bound",
          r.invalid_blocks * static_cast<uint64_t>(config.batch_size));
  out.Int("conversions", r.conversions);
  out.Int("offered", r.offered);
  out.Int("rejected", r.rejected);
  out.Int("shed", r.shed);
  out.Num("queue_wait_p999_s", r.p999_latency_s - r.admit_p999_latency_s);
  out.Int("events", after.events - before.events);
  out.Int("messages", after.messages - before.messages);
  out.Int("dag_committed_blocks", after.dag_blocks - before.dag_blocks);
  out.Int("blocks_proposed", after.proposals - before.proposals);
  out.Int("ce_txns", after.ce_txns - before.ce_txns);
  out.Int("ce_restarts", after.ce_restarts - before.ce_restarts);
  out.Int("store_gets", after.store_gets - before.store_gets);
  out.Int("store_puts", after.store_puts - before.store_puts);
  // Transactions each commit-path stage processed inside the window (the
  // phase histograms sample at consensus commit, when the work runs; the
  // committed counts above are by completion time).
  const uint64_t validated =
      r.phase_latency[tb::obs::Phase::kValidate].Count();
  const uint64_t executed_after_consensus =
      r.phase_latency[tb::obs::Phase::kCrossShardHold].Count();
  const bool serial = config.mode == tb::core::ExecutionMode::kTusk;
  out.Int("validated_txns", validated);
  out.Int("cross_executed_txns", serial ? 0 : executed_after_consensus);
  out.Int("serial_executed_txns", serial ? executed_after_consensus : 0);
  for (size_t p = 0; p < tb::obs::kNumPhases; ++p) {
    const tb::Histogram& h = r.phase_latency.phase[p];
    out.Num(std::string("phase_p50_us.") +
                tb::obs::PhaseName(static_cast<tb::obs::Phase>(p)),
            h.Count() == 0 ? 0.0 : h.Median());
  }

  if (traced) {
    out.Num("span_inside_ns", span_cost.inside_ns);
    out.Num("span_total_ns", span_cost.total_ns);
    out.Int("store_ns", perfbench::NetNs(store_clock, span_cost));
    out.Int("store_ops", store_clock.units);
    out.Int("gen_ns", perfbench::NetNs(gen_clock, span_cost));
    out.Int("gen_txns", gen_clock.units);
    cluster.reset();
    // Replay blocks as full as the run's own: open-loop proposers ship
    // whatever arrived, so their blocks are smaller than batch_size, and
    // both digest and CE costs depend on block size.
    tb::core::ThunderboltConfig replay_config = config;
    const uint64_t proposals = after.proposals - before.proposals;
    if (proposals > 0) {
      replay_config.batch_size = static_cast<uint32_t>(std::clamp<uint64_t>(
          (gen_clock.units + proposals / 2) / proposals, 1,
          config.batch_size));
    }
    out.Int("replay_block_txns", replay_config.batch_size);
    const perfbench::ReplayCosts replay = perfbench::RunReplay(
        replay_config, spec->workload, options, span_cost);
    if (!replay.failure.empty()) return Fail(replay.failure.c_str());
    out.Int("replay_blocks", replay.blocks);
    out.Int("replay_ce_txns", replay.ce_txns);
    out.Int("replay_ce_ns", replay.ce_ns);
    out.Int("replay_validate_txns", replay.validate_txns);
    out.Int("replay_validate_ns", replay.validate_ns);
    out.Int("replay_cross_txns", replay.cross_txns);
    out.Int("replay_cross_ns", replay.cross_ns);
    out.Int("replay_serial_txns", replay.serial_txns);
    out.Int("replay_serial_ns", replay.serial_ns);
    out.Int("replay_crypto_ns", replay.crypto_ns);
  }
  std::printf("%s\n", out.Done().c_str());
  return 0;
}
