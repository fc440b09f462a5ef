// bench_overload: the open-loop overload sweep (service front end).
//
// Closed-loop benches cannot show overload behavior: the generator only
// offers work as fast as the system drains it, so throughput-vs-load
// curves have no "beyond saturation" region. This driver first measures
// each engine's closed-loop saturation throughput S, then replays an
// open-loop arrival process at 0.2x..2x S per admission policy and plots
// throughput-vs-offered-load and latency-vs-offered-load.
//
// Expectation: throughput tracks offered load up to a saturation knee at
// ~S and plateaus beyond it for every policy. Past the knee the policies
// separate on latency: drop-tail lets the full standing queue build, so
// end-to-end p999 plateaus at queue_depth / per-shard service rate
// (bufferbloat — deep queues make it worse); shed-oldest keeps only the
// freshest work, bounding the wait at roughly queue_depth / offered rate;
// codel sheds anything older than its sojourn target at dequeue, capping
// the queue's latency contribution near the target regardless of depth.
//
//   bench_overload --smoke --json overload.json     # small CI sweep
//   bench_overload --engine ce --admission codel,drop-tail
//
// Flags:
//   --engine <names>         comma list: tusk (serial after consensus) or
//                            preplay engines by registry name (ce, occ,
//                            2pl)                        [ce,tusk]
//   --admission <names>      comma list of policies      [all three]
//   --arrival <name>         arrival process             [poisson]
//   --arrival-params <k=v,...>  process params           []
//   --queue-depth <n>        per-shard admission bound   [4096]
//   --codel-target-us <us>   codel sojourn target        [50000]
//   --workload <name> / --params <k=v,...>  cluster workload [smallbank]
//   --placement <name> / --store <name>     as in the other benches
//   --json <path>            dump the sweep tables as JSON
//   --trace-out / --metrics-out / --timeseries-out   last-cell artifacts
//   --smoke                  1 engine, shorter runs, fewer points (CI)
//   --quick                  shorter runs only
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ce/engine_registry.h"
#include "core/cluster.h"

namespace thunderbolt {
namespace {

/// `engine` is "tusk" (serial execution after consensus) or the
/// ce::EngineRegistry name of the preplay engine.
core::ThunderboltConfig BaseConfig(const std::string& engine,
                                   const bench::PlacementSelection& placement,
                                   const bench::StoreSelection& store) {
  core::ThunderboltConfig cfg;
  cfg.n = 4;
  if (engine == "tusk") {
    cfg.mode = core::ExecutionMode::kTusk;
  } else {
    cfg.engine = engine;
  }
  cfg.batch_size = 500;
  cfg.seed = 77;
  placement.ApplyTo(&cfg);
  store.ApplyTo(&cfg);
  return cfg;
}

/// Closed-loop saturation throughput: what the engine commits when the
/// proposers pull as fast as the pipeline drains. This anchors the sweep's
/// rate axis so "2x" means the same degree of overload on every engine.
double CalibrateSaturation(const std::string& engine,
                           const std::string& workload_name,
                           const workload::WorkloadOptions& options,
                           const bench::PlacementSelection& placement,
                           const bench::StoreSelection& store,
                           SimTime duration) {
  core::Cluster cluster(BaseConfig(engine, placement, store), workload_name,
                        options);
  const core::ClusterResult r = cluster.Run(duration);
  // An engine that commits (almost) nothing would collapse the rate axis;
  // floor the anchor so the sweep still exercises the admission machinery.
  return r.throughput_tps > 1000.0 ? r.throughput_tps : 1000.0;
}

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  using namespace thunderbolt;
  const bench::CostFooter cost_footer(argv[0]);
  // The sweep owns the offered rate, so --rate is not accepted here, and
  // --admission takes a comma list.
  bench::AcceptOnlyFlags(
      argc, argv,
      {"--smoke --engine <names> --admission <names> --arrival <name> "
       "--arrival-params <k=v,...> --queue-depth <n> --limiter-rate <tps> "
       "--limiter-burst <tokens> --codel-target-us <us>",
       bench::kQuickJsonFlags, bench::kClusterWorkloadFlags,
       bench::kPlacementFlags, bench::kStoreFlags, bench::kObsFlags});
  const bool smoke = bench::HasFlag(argc, argv, "smoke");
  const bool quick = smoke || bench::QuickMode(argc, argv);
  const SimTime duration = quick ? Seconds(1) : Seconds(3);

  workload::WorkloadOptions options;
  const std::string workload_name =
      bench::ClusterWorkloadFromFlags(argc, argv, &options, /*seed=*/77);
  const bench::PlacementSelection placement =
      bench::PlacementFromFlags(argc, argv);
  const bench::StoreSelection store = bench::StoreFromFlags(argc, argv);
  bench::ObsSelection obs = bench::ObsFromFlags(argc, argv);

  // The sweep owns the rate and policy axes; take the front end's shape
  // (arrival process, queue depth, codel target) from the shared flags.
  // --admission is a comma LIST here (the policy sweep), which the shared
  // single-name parser would reject — hide it from ServiceFromFlags.
  std::vector<char*> fe_args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--admission") {
      ++i;  // Skip the value too.
      continue;
    }
    if (arg.rfind("--admission=", 0) == 0) continue;
    fe_args.push_back(argv[i]);
  }
  bench::ServiceSelection service =
      bench::ServiceFromFlags(static_cast<int>(fe_args.size()),
                              fe_args.data());
  service.config.enabled = true;
  if (bench::FlagValue(argc, argv, "queue-depth").empty()) {
    // Deep enough that drop-tail's standing-queue latency clearly exceeds
    // the codel target — the contrast the figure is about.
    service.config.queue_depth = 4096;
  }

  std::vector<std::string> engines;
  {
    const std::string spec = bench::FlagValue(argc, argv, "engine");
    if (spec.empty()) {
      engines = smoke ? std::vector<std::string>{"ce"}
                      : std::vector<std::string>{"ce", "tusk"};
    } else {
      engines = bench::SplitList(spec);
    }
    const ce::EngineRegistry& registry = ce::EngineRegistry::Global();
    std::vector<std::string> known = registry.Names();
    known.push_back("tusk");
    for (const std::string& name : engines) {
      bench::RequireRegistered("engine", name,
                               name == "tusk" || registry.Contains(name),
                               known);
    }
  }
  std::vector<std::string> policies;
  {
    // --admission here selects the POLICY SWEEP (comma list), unlike the
    // single-policy flag of the other benches.
    std::string spec = bench::FlagValue(argc, argv, "admission");
    policies =
        spec.empty() ? svc::AdmissionPolicyNames() : bench::SplitList(spec);
    for (const std::string& name : policies) {
      svc::AdmissionPolicy parsed;
      if (!svc::ParseAdmissionPolicy(name, &parsed)) {
        std::fprintf(stderr, "unknown admission policy \"%s\"\n",
                     name.c_str());
        return 2;
      }
    }
  }
  const std::vector<double> mults =
      smoke ? std::vector<double>{0.25, 0.5, 1.0, 2.0}
            : std::vector<double>{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0};

  bench::Banner(
      "overload", "open-loop arrival sweep: throughput & tail latency vs "
      "offered load per admission policy",
      "throughput tracks offered load to a saturation knee then plateaus; "
      "beyond the knee drop-tail's p999 plateaus at the full standing "
      "queue (bufferbloat) while shed-oldest and codel keep it bounded");
  std::printf("workload: %s  arrival: %s  queue-depth: %u  duration: %.1fs\n",
              workload_name.c_str(), service.config.arrival.c_str(),
              service.config.queue_depth, ToSeconds(duration));

  bench::Table table(
      {"engine", "policy", "mult", "offered(tps)", "tput(tps)", "p99(s)",
       "p999(s)", "admit_p99(s)", "offered", "admitted", "shed", "rejected"},
      "overload");
  bool all_ok = true;
  for (const std::string& engine : engines) {
    const double saturation = CalibrateSaturation(
        engine, workload_name, options, placement, store, duration);
    std::printf("\n%s closed-loop saturation: %.0f tps\n", engine.c_str(),
                saturation);
    for (const std::string& policy : policies) {
      for (double mult : mults) {
        core::ThunderboltConfig cfg = BaseConfig(engine, placement, store);
        service.config.admission = policy;
        service.config.rate_tps = saturation * mult;
        service.ApplyTo(&cfg);
        obs.ApplyTo(&cfg);
        core::Cluster cluster(cfg, workload_name, options);
        const core::ClusterResult r = cluster.Run(duration);
        if (!cluster.CheckInvariant().ok()) all_ok = false;
        obs.Capture(cluster.obs());
        const bool idle = r.latency_samples == 0;
        table.Row({engine, policy, bench::Fmt(mult, 2),
                   bench::Fmt(service.config.rate_tps, 0),
                   bench::Fmt(r.throughput_tps, 0),
                   idle ? "-" : bench::Fmt(r.p99_latency_s, 4),
                   idle ? "-" : bench::Fmt(r.p999_latency_s, 4),
                   idle ? "-" : bench::Fmt(r.admit_p99_latency_s, 4),
                   bench::FmtInt(r.offered), bench::FmtInt(r.admitted),
                   bench::FmtInt(r.shed), bench::FmtInt(r.rejected)});
      }
    }
  }
  if (!all_ok) std::fprintf(stderr, "workload invariant VIOLATED\n");
  return bench::WriteTablesJsonIfRequested(argc, argv, "overload") |
         obs.WriteIfRequested() | (all_ok ? 0 : 1);
}
