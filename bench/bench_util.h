// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench binary regenerates one table/figure of the paper's evaluation:
// it sweeps the same parameters, prints the series as an aligned CSV-style
// table, and states the qualitative expectation from the paper so the
// output is self-checking.
#ifndef THUNDERBOLT_BENCH_BENCH_UTIL_H_
#define THUNDERBOLT_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/params.h"
#include "core/config.h"
#include "obs/latency.h"
#include "obs/obs.h"
#include "placement/placement.h"
#include "storage/kv_store.h"
#include "svc/service.h"
#include "workload/workload.h"

namespace thunderbolt::bench {

/// Escapes `s` for use inside a JSON string literal.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Formats a table cell as a JSON value: finite numbers stay bare,
/// everything else (including "inf"/"nan", which JSON cannot represent)
/// becomes a quoted string.
inline std::string JsonCell(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    double v = std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0' && std::isfinite(v)) return cell;
  }
  return "\"" + JsonEscape(cell) + "\"";
}

/// Every Table the binary prints is also recorded here, so any figure
/// binary can dump its full series as JSON with one call at the end of
/// main (WriteTablesJsonIfRequested).
class TableLog {
 public:
  struct Entry {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  static TableLog& Instance() {
    static TableLog log;
    return log;
  }

  /// Returns the new table's index; rows are added against it so two live
  /// Table objects can't cross-wire each other's series.
  size_t StartTable(std::string name, std::vector<std::string> columns) {
    if (name.empty()) name = "table" + std::to_string(tables_.size());
    tables_.push_back(Entry{std::move(name), std::move(columns), {}});
    return tables_.size() - 1;
  }

  void AddRow(size_t table_index, const std::vector<std::string>& cells) {
    if (table_index < tables_.size()) {
      tables_[table_index].rows.push_back(cells);
    }
  }

  const std::vector<Entry>& tables() const { return tables_; }

  /// Writes `{figure, tables: [{name, columns, rows}]}` to `path`.
  bool WriteJson(const std::string& path, const std::string& figure) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n  \"tables\": [",
                 JsonEscape(figure).c_str());
    for (size_t t = 0; t < tables_.size(); ++t) {
      const Entry& e = tables_[t];
      std::fprintf(f, "%s\n    {\n      \"name\": \"%s\",\n      "
                   "\"columns\": [",
                   t == 0 ? "" : ",", JsonEscape(e.name).c_str());
      for (size_t i = 0; i < e.columns.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                     JsonEscape(e.columns[i]).c_str());
      }
      std::fprintf(f, "],\n      \"rows\": [");
      for (size_t r = 0; r < e.rows.size(); ++r) {
        std::fprintf(f, "%s\n        [", r == 0 ? "" : ",");
        for (size_t i = 0; i < e.rows[r].size(); ++i) {
          std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                       JsonCell(e.rows[r][i]).c_str());
        }
        std::fprintf(f, "]");
      }
      std::fprintf(f, "%s\n      ]\n    }", e.rows.empty() ? "" : "\n");
    }
    std::fprintf(f, "%s\n  ]\n}\n", tables_.empty() ? "" : "\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<Entry> tables_;
};

/// The host cost footer every driver ends with. Declared first in main, it
/// prints one line to stderr when main returns: the driver's name, wall
/// seconds since it was constructed and the process's peak RSS (getrusage).
/// stdout and the --json series are left untouched.
class CostFooter {
 public:
  explicit CostFooter(const char* argv0)
      : name_(argv0), start_(std::chrono::steady_clock::now()) {
    name_.erase(0, name_.find_last_of('/') + 1);  // Keep the basename.
  }
  CostFooter(const CostFooter&) = delete;
  CostFooter& operator=(const CostFooter&) = delete;

  ~CostFooter() {
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    std::fprintf(stderr, "[cost] %s: wall %.2f s, peak RSS %.1f MB\n",
                 name_.c_str(), wall_s,
                 static_cast<double>(usage.ru_maxrss) / 1024.0);
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

/// Prints the figure banner.
inline void Banner(const char* figure, const char* description,
                   const char* expectation) {
  std::printf("\n");
  std::printf(
      "==============================================================="
      "=======\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("Paper expectation: %s\n", expectation);
  std::printf(
      "==============================================================="
      "=======\n");
}

/// Simple aligned table printer. Rows are mirrored into TableLog so the
/// binary can additionally dump its series as JSON (--json <path>).
class Table {
 public:
  explicit Table(std::vector<std::string> columns, std::string name = "")
      : columns_(std::move(columns)),
        log_index_(TableLog::Instance().StartTable(std::move(name),
                                                   columns_)) {
    for (const auto& c : columns_) std::printf("%14s", c.c_str());
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) std::printf("%14s", "----");
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) {
    TableLog::Instance().AddRow(log_index_, cells);
    for (const auto& c : cells) std::printf("%14s", c.c_str());
    std::printf("\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> columns_;
  size_t log_index_;
};

inline std::string Fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

/// Prints (and mirrors into the --json TableLog) a "phase_latency" table
/// summarizing a per-phase commit-latency decomposition — the standard
/// tail section of every figure binary that sweeps through the pools or
/// the cluster. Empty phases print "-" so an idle phase is not mistaken
/// for a zero-latency one.
inline void PhaseLatencyTable(const obs::LatencyBreakdown& phases) {
  std::printf("\n--- per-phase latency decomposition ---\n");
  Table table({"phase", "count", "mean(us)", "p50(us)", "p99(us)", "max(us)"},
              "phase_latency");
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    const Histogram& h = phases.phase[p];
    const bool empty = h.Count() == 0;
    table.Row({obs::PhaseName(static_cast<obs::Phase>(p)),
               FmtInt(h.Count()), empty ? "-" : Fmt(h.Mean(), 1),
               empty ? "-" : Fmt(h.Percentile(50), 1),
               empty ? "-" : Fmt(h.Percentile(99), 1),
               empty ? "-" : Fmt(h.Max(), 1)});
  }
}

/// Parses "--quick" from argv: benches shorten their virtual durations so
/// the whole suite runs in CI-friendly time.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  return false;
}

/// --quick and --json (WriteTablesJsonIfRequested), for AcceptOnlyFlags.
inline constexpr const char* kQuickJsonFlags = "--quick --json <path>";

/// True when the bare flag `--<name>` appears in argv.
inline bool HasFlag(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// Returns the value of `--<name> <value>` or `--<name>=<value>`, or ""
/// when the flag is absent.
inline std::string FlagValue(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(flag + "=", 0) == 0) return arg.substr(flag.size() + 1);
  }
  return "";
}

/// Exits with code 2 unless `name` is `known`, listing the `registered`
/// names: a typo in a registry-backed flag (--workload, --engine,
/// --placement, --store, --pool, --arrival, --admission) must not silently
/// bench the default.
inline void RequireRegistered(const char* what, const std::string& name,
                              bool known,
                              const std::vector<std::string>& registered) {
  if (known) return;
  std::fprintf(stderr, "unknown %s \"%s\"; registered:", what, name.c_str());
  for (const std::string& n : registered) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Parses `text`, the value of `--<flag>`, as a positive number of type T
/// (an integral T also needs a whole number in its range). Exits with code
/// 2 otherwise: a zero, negative or malformed size must not bench a
/// degenerate configuration.
template <typename T>
T PositiveFlag(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  const bool whole = !std::is_integral_v<T> || v == std::floor(v);
  if (end == text.c_str() || *end != '\0' || !(v > 0) || !whole ||
      !(v < static_cast<double>(std::numeric_limits<T>::max()))) {
    std::fprintf(stderr, "invalid --%s \"%s\"\n", flag, text.c_str());
    std::exit(2);
  }
  return static_cast<T>(v);
}

/// Accepts only the flags in `specs`: each `--name` in a spec is a flag,
/// and a `<...>` placeholder after it means the flag takes a value
/// (`--name v` or `--name=v`); the k*Flags spec next to each shared parser
/// lists that parser's flags. An unknown `--flag`, a stray word, a value flag
/// without its value or a switch given one prints the accepted flags to
/// stderr and exits with code 2: a typo must not run the default sweep.
/// `--help` prints them to stdout and exits 0. Call first in main.
inline void AcceptOnlyFlags(int argc, char** argv,
                            std::initializer_list<const char*> specs) {
  std::vector<std::pair<std::string, std::string>> flags;  // (--name, <v>)
  for (const char* spec : specs) {
    for (const std::string& word : Split(spec, ' ')) {
      if (word.rfind("--", 0) == 0) {
        flags.emplace_back(word, "");
      } else if (!flags.empty()) {
        flags.back().second = word;
      }
    }
  }
  auto print_flags = [&](std::FILE* out) {
    std::fprintf(out, "accepted flags:\n");
    for (const auto& [name, value] : flags) {
      std::fprintf(out, "  %s%s%s\n", name.c_str(), value.empty() ? "" : " ",
                   value.c_str());
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_flags(stdout);
      std::exit(0);
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto flag = std::find_if(flags.begin(), flags.end(),
                             [&](const auto& f) { return f.first == name; });
    std::string error;
    if (flag == flags.end()) {
      error = (arg.rfind("--", 0) == 0 ? "unknown flag "
                                        : "unexpected argument ") +
              arg;
    } else if (flag->second.empty() && eq != std::string::npos) {
      error = name + " takes no value";
    } else if (!flag->second.empty() && eq == std::string::npos &&
               ++i == argc) {
      error = name + " needs a value " + flag->second;
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      print_flags(stderr);
      std::exit(2);
    }
  }
}

/// Exits with code 2 when `spec` (a `k=v,...` param string) assigns any
/// of the `reserved` keys. Drivers reserve the axes their own flags or
/// sweep loops control: accepting such an override and then clobbering
/// it in the sweep would mislabel the emitted series.
inline void RejectReservedParams(const std::string& spec,
                                 std::initializer_list<const char*> reserved) {
  for (const char* key : reserved) {
    const std::string needle = std::string(key) + "=";
    for (size_t pos = spec.find(needle); pos != std::string::npos;
         pos = spec.find(needle, pos + 1)) {
      if (pos == 0 || spec[pos - 1] == ',') {
        std::fprintf(stderr,
                     "--params may not set \"%s\": this driver owns that "
                     "axis (use its dedicated flag or sweep)\n",
                     key);
        std::exit(2);
      }
    }
  }
}

inline constexpr const char* kClusterWorkloadFlags =
    "--workload <name> --params <k=v,...>";

/// Shared `--workload <name>` / `--params <k=v,...>` handling for the
/// cluster figure binaries: seeds `options` with the paper's shared
/// defaults (1000 records, theta 0.85, Pr 0.5, the figure's `seed`),
/// then returns the registry workload name (default "smallbank") after
/// applying any `--params` overrides — so every sharded bench sweeps
/// workload x engine x cluster-size from one flag set. Keys listed in
/// `reserved` (axes the figure itself sweeps) are rejected. Exits with
/// code 2 on an unknown name or malformed params — a typo must not
/// silently bench the wrong configuration.
inline std::string ClusterWorkloadFromFlags(
    int argc, char** argv, workload::WorkloadOptions* options, uint64_t seed,
    std::initializer_list<const char*> reserved = {}) {
  options->num_records = 1000;
  options->theta = 0.85;
  options->read_ratio = 0.5;
  options->seed = seed;
  std::string name = FlagValue(argc, argv, "workload");
  if (name.empty()) name = "smallbank";
  const workload::WorkloadRegistry& workloads =
      workload::WorkloadRegistry::Global();
  RequireRegistered("workload", name, workloads.Contains(name),
                    workloads.Names());
  const std::string spec = FlagValue(argc, argv, "params");
  RejectReservedParams(spec, reserved);
  Status s = workload::ApplyWorkloadParams(spec, options);
  if (!s.ok()) {
    std::fprintf(stderr, "bad --params: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  return name;
}

/// One engine row of the batch figures (11 and 12): the table label and
/// the ce::EngineRegistry name it runs.
struct BatchEngineRow {
  const char* label;
  const char* engine;
};

/// The engines Figures 11 and 12 compare, in table order.
inline constexpr BatchEngineRow kBatchEngines[] = {
    {"Thunderbolt", "ce"}, {"OCC", "occ"}, {"2PL-No-Wait", "2pl"}};

/// One system row of the cluster figures (paper section 12): the table
/// label, the pipeline, and the preplay engine by ce::EngineRegistry name
/// (unused under kTusk). Thunderbolt-OCC is kThunderbolt with "occ".
struct ClusterSystem {
  const char* label;
  core::ExecutionMode mode = core::ExecutionMode::kThunderbolt;
  const char* engine = "ce";

  void ApplyTo(core::ThunderboltConfig* config) const {
    config->mode = mode;
    config->engine = engine;
  }
};

/// The placement policy a bench binary was asked to run with.
struct PlacementSelection {
  std::string policy = "hash";
  std::string params;

  void ApplyTo(core::ThunderboltConfig* config) const {
    config->placement = policy;
    config->placement_params = params;
  }
};

inline constexpr const char* kPlacementFlags =
    "--placement <name> --placement-params <k=v,...>";

/// Shared `--placement <name>` / `--placement-params <k=v,...>` handling
/// for every bench binary: validates the policy name against
/// placement::PlacementRegistry::Global() and the params against that
/// policy (placement::CheckPlacementParams; the shard count is not known
/// here), and exits with code 2 on either error (mirroring the workload
/// flag — a typo must not silently bench the default placement or abort
/// the driver in the policy factory).
inline PlacementSelection PlacementFromFlags(int argc, char** argv) {
  PlacementSelection selection;
  std::string name = FlagValue(argc, argv, "placement");
  if (!name.empty()) {
    const placement::PlacementRegistry& policies =
        placement::PlacementRegistry::Global();
    RequireRegistered("placement policy", name, policies.Contains(name),
                      policies.Names());
    selection.policy = name;
  }
  selection.params = FlagValue(argc, argv, "placement-params");
  placement::PlacementOptions options;
  options.num_shards = 0;
  options.params = selection.params;
  const Status valid =
      placement::CheckPlacementParams(selection.policy, options);
  if (!valid.ok()) {
    std::fprintf(stderr,
                 "bad --placement-params \"%s\" for placement %s: %s\n",
                 selection.params.c_str(), selection.policy.c_str(),
                 valid.message().c_str());
    std::exit(2);
  }
  return selection;
}

/// The storage backend a bench binary was asked to run with.
struct StoreSelection {
  std::string name = "mem";

  void ApplyTo(core::ThunderboltConfig* config) const {
    config->store = name;
  }

  /// Instantiates the backend from storage::StoreRegistry (never null:
  /// StoreFromFlags created the spec once already).
  std::unique_ptr<storage::KVStore> Create() const {
    return storage::StoreRegistry::Global().Create(name);
  }
};

inline constexpr const char* kStoreFlags = "--store <spec>";

/// Shared `--store <spec>` handling for every bench binary: validates the
/// backend name against storage::StoreRegistry::Global(), then the whole
/// spec by creating it once (reopening a store is idempotent), and exits
/// with code 2 on either error (mirroring --workload/--placement — a typo
/// must not silently bench the default backend or crash a driver).
inline StoreSelection StoreFromFlags(int argc, char** argv) {
  StoreSelection selection;
  std::string name = FlagValue(argc, argv, "store");
  if (!name.empty()) {
    const storage::StoreRegistry& stores = storage::StoreRegistry::Global();
    RequireRegistered("store backend", name, stores.Contains(name),
                      stores.Names());
    if (stores.Create(name) == nullptr) {
      std::fprintf(stderr, "bad store spec \"%s\"\n", name.c_str());
      std::exit(2);
    }
    selection.name = name;
  }
  return selection;
}

/// The executor pool a bench binary was asked to run with.
struct PoolSelection {
  std::string name = "sim";

  void ApplyTo(core::ThunderboltConfig* config) const { config->pool = name; }

  /// Instantiates the pool (never null: the name was validated by
  /// PoolFromFlags).
  std::unique_ptr<ce::ExecutorPool> Create(
      uint32_t num_executors, ce::ExecutionCostModel costs = {}) const {
    return ce::CreateExecutorPool(name, num_executors, costs);
  }
};

inline constexpr const char* kPoolFlags = "--pool <name>";

/// Shared `--pool <name>` handling: validates against
/// ce::ExecutorPoolNames() and exits with code 2 on a typo. "sim" keeps
/// virtual-time determinism; "thread" measures real wall-clock scaling.
inline PoolSelection PoolFromFlags(int argc, char** argv) {
  PoolSelection selection;
  std::string name = FlagValue(argc, argv, "pool");
  if (!name.empty()) {
    const std::vector<std::string> names = ce::ExecutorPoolNames();
    RequireRegistered("executor pool", name,
                      std::find(names.begin(), names.end(), name) !=
                          names.end(),
                      names);
    selection.name = name;
  }
  return selection;
}

/// The open-loop service front end a bench binary was asked to run with
/// (disabled unless --arrival or --rate is given).
struct ServiceSelection {
  svc::ServiceConfig config;

  void ApplyTo(core::ThunderboltConfig* cluster_config) const {
    cluster_config->service = config;
  }
};

inline constexpr const char* kServiceFlags =
    "--arrival <name> --arrival-params <k=v,...> --rate <tps> "
    "--admission <policy> --queue-depth <n> --limiter-rate <tps> "
    "--limiter-burst <tokens> --codel-target-us <us>";

/// Shared `--arrival <name>` / `--arrival-params <k=v,...>` /
/// `--rate <tps>` / `--admission <policy>` / `--queue-depth <n>` handling
/// so every bench binary can run open-loop. Passing either `--arrival` or
/// `--rate` enables the front end (the other takes its default); the
/// remaining knobs refine it. Optional extras: `--limiter-rate <tps>` /
/// `--limiter-burst <tokens>` (token bucket ahead of the queues) and
/// `--codel-target-us <us>`. Validates the arrival name against
/// svc::ArrivalRegistry, the arrival params against that process
/// (svc::CheckArrivalParams) and the policy against ParseAdmissionPolicy,
/// exiting with code 2 on a typo (mirroring --workload/--placement — a
/// typo must not silently bench the closed loop or abort the driver in the
/// arrival factory).
inline ServiceSelection ServiceFromFlags(int argc, char** argv) {
  ServiceSelection selection;
  const std::string arrival = FlagValue(argc, argv, "arrival");
  const std::string rate = FlagValue(argc, argv, "rate");
  selection.config.enabled = !arrival.empty() || !rate.empty();
  if (!arrival.empty()) {
    const svc::ArrivalRegistry& arrivals = svc::ArrivalRegistry::Global();
    RequireRegistered("arrival process", arrival, arrivals.Contains(arrival),
                      arrivals.Names());
    selection.config.arrival = arrival;
  }
  selection.config.arrival_params = FlagValue(argc, argv, "arrival-params");
  if (!rate.empty()) {
    selection.config.rate_tps = PositiveFlag<double>("rate", rate);
  }
  svc::ArrivalOptions arrival_options;
  arrival_options.rate_tps = selection.config.rate_tps;
  arrival_options.params = selection.config.arrival_params;
  const Status valid =
      svc::CheckArrivalParams(selection.config.arrival, arrival_options);
  if (!valid.ok()) {
    std::fprintf(stderr, "bad --arrival-params \"%s\" for arrival %s: %s\n",
                 selection.config.arrival_params.c_str(),
                 selection.config.arrival.c_str(), valid.message().c_str());
    std::exit(2);
  }
  const std::string admission = FlagValue(argc, argv, "admission");
  if (!admission.empty()) {
    svc::AdmissionPolicy policy;
    RequireRegistered("admission policy", admission,
                      svc::ParseAdmissionPolicy(admission, &policy),
                      svc::AdmissionPolicyNames());
    selection.config.admission = admission;
  }
  const std::string depth = FlagValue(argc, argv, "queue-depth");
  if (!depth.empty()) {
    selection.config.queue_depth = PositiveFlag<uint32_t>("queue-depth", depth);
  }
  const std::string limiter_rate = FlagValue(argc, argv, "limiter-rate");
  if (!limiter_rate.empty()) {
    selection.config.limiter_rate_tps =
        PositiveFlag<double>("limiter-rate", limiter_rate);
  }
  const std::string limiter_burst = FlagValue(argc, argv, "limiter-burst");
  if (!limiter_burst.empty()) {
    selection.config.limiter_burst =
        PositiveFlag<double>("limiter-burst", limiter_burst);
  }
  const std::string codel = FlagValue(argc, argv, "codel-target-us");
  if (!codel.empty()) {
    selection.config.codel_target =
        PositiveFlag<SimTime>("codel-target-us", codel);
  }
  return selection;
}

/// The observability artifacts a bench binary was asked to produce.
/// `--trace-out <path>` enables lifecycle tracing (Chrome trace-event JSON,
/// loadable at ui.perfetto.dev); `--metrics-out <path>` snapshots the
/// metrics registry as JSON; `--timeseries-out <path>` records windowed
/// counter deltas (`--timeseries-window <us>` sets the window width).
/// `--trace-capacity <n>` bounds the ring.
///
/// Sweeping drivers call Capture() once per cluster/bundle; the artifacts
/// describe the LAST captured run (each capture replaces the previous one
/// — a sweep produces one representative trace, not a concatenation).
struct ObsSelection {
  std::string trace_path;
  std::string metrics_path;
  std::string timeseries_path;
  uint32_t trace_capacity = 1u << 16;
  uint64_t timeseries_window_us = 100000;

  bool requested() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !timeseries_path.empty();
  }
  bool trace() const { return !trace_path.empty(); }
  bool timeseries() const { return !timeseries_path.empty(); }

  void ApplyTo(core::ThunderboltConfig* config) const {
    config->obs.trace = trace();
    config->obs.trace_capacity = trace_capacity;
    config->obs.timeseries = timeseries();
    config->obs.timeseries_window_us = timeseries_window_us;
  }

  /// Builds a standalone bundle for non-cluster drivers (batch benches
  /// install it on their pool via SetObs and drive SampleWindow between
  /// cells themselves).
  std::unique_ptr<obs::Observability> MakeBundle() const {
    obs::ObsOptions options;
    options.trace = trace();
    options.trace_capacity = trace_capacity;
    options.timeseries = timeseries();
    options.timeseries_window_us = timeseries_window_us;
    return std::make_unique<obs::Observability>(options);
  }

  /// Snapshots `obs`'s sinks; safe to call after the owning cluster dies.
  /// Closes the trailing time-series window and syncs the ring's drop
  /// accounting into the registry first, so the artifacts are consistent.
  void Capture(obs::Observability& obs) {
    obs.SyncTraceStats();
    obs.FlushTimeSeries();
    metrics_json_ = obs.metrics().ToJson();
    trace_json_ = obs.ring() != nullptr ? obs.ring()->ToChromeJson() : "";
    timeseries_json_ =
        obs.timeseries() != nullptr ? obs.timeseries()->ToJson() : "";
  }

  /// Writes the captured artifacts to the requested paths. Returns 0, or
  /// 1 when a requested file could not be written (or nothing was
  /// captured).
  int WriteIfRequested() const {
    int rc = 0;
    rc |= WriteOne(trace_path, trace_json_, "trace");
    rc |= WriteOne(metrics_path, metrics_json_, "metrics");
    rc |= WriteOne(timeseries_path, timeseries_json_, "timeseries");
    return rc;
  }

 private:
  static int WriteOne(const std::string& path, const std::string& body,
                      const char* what) {
    if (path.empty()) return 0;
    if (body.empty()) {
      std::fprintf(stderr, "no %s captured for %s\n", what, path.c_str());
      return 1;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", path.c_str());
      return 1;
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = (std::fclose(f) == 0) && written == body.size();
    if (!ok) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s written to %s\n", what, path.c_str());
    return 0;
  }

  std::string trace_json_;
  std::string metrics_json_;
  std::string timeseries_json_;
};

inline constexpr const char* kObsFlags =
    "--trace-out <path> --metrics-out <path> --timeseries-out <path> "
    "--timeseries-window <us> --trace-capacity <n>";

/// Shared `--trace-out` / `--metrics-out` / `--timeseries-out` /
/// `--timeseries-window` / `--trace-capacity` handling.
inline ObsSelection ObsFromFlags(int argc, char** argv) {
  ObsSelection selection;
  selection.trace_path = FlagValue(argc, argv, "trace-out");
  selection.metrics_path = FlagValue(argc, argv, "metrics-out");
  selection.timeseries_path = FlagValue(argc, argv, "timeseries-out");
  const std::string cap = FlagValue(argc, argv, "trace-capacity");
  if (!cap.empty()) {
    selection.trace_capacity = PositiveFlag<uint32_t>("trace-capacity", cap);
  }
  const std::string window = FlagValue(argc, argv, "timeseries-window");
  if (!window.empty()) {
    selection.timeseries_window_us =
        PositiveFlag<uint64_t>("timeseries-window", window);
  }
  return selection;
}

/// Shared `--json <path>` handling for the figure binaries: when the flag
/// is present, dumps every table printed so far to that path. Call as the
/// last statement of main.
inline int WriteTablesJsonIfRequested(int argc, char** argv,
                                      const char* figure) {
  std::string path = FlagValue(argc, argv, "json");
  if (path.empty()) return 0;
  if (!TableLog::Instance().WriteJson(path, figure)) {
    std::fprintf(stderr, "failed to write JSON to %s\n", path.c_str());
    return 1;
  }
  std::printf("\nJSON series written to %s\n", path.c_str());
  return 0;
}

}  // namespace thunderbolt::bench

#endif  // THUNDERBOLT_BENCH_BENCH_UTIL_H_
