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

#include "ce/engine_registry.h"
#include "ce/executor_pool.h"
#include "common/params.h"
#include "contract/contract.h"
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

/// --quick and --json (WriteTablesJsonIfRequested), for AcceptOnlyFlags.
/// --quick shortens the virtual durations so the whole suite runs in
/// CI-friendly time.
inline constexpr const char* kQuickJsonFlags = "--quick --json <path>";

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

/// The flags AcceptOnlyFlags accepted, in argv order, by name without the
/// leading "--": a value flag carries its value, a switch "". A repeated
/// flag keeps its first value.
struct Flags {
  std::vector<std::pair<std::string, std::string>> values;

  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  /// The value of `--<name>`, or "" when the flag is absent.
  std::string Value(const std::string& name) const {
    const std::string* value = Find(name);
    return value == nullptr ? "" : *value;
  }

  /// Sets `*field` to `--<name>` read as PositiveFlag<T>; leaves it when
  /// the flag is absent.
  template <typename T>
  void ReadPositive(const char* name, T* field) const {
    const std::string text = Value(name);
    if (!text.empty()) *field = PositiveFlag<T>(name, text);
  }

  /// A copy without `--<name>`, for a shared reader that must not see a
  /// flag the driver gives its own meaning.
  Flags Without(const std::string& name) const {
    Flags rest = *this;
    std::erase_if(rest.values,
                  [&](const auto& flag) { return flag.first == name; });
    return rest;
  }

 private:
  const std::string* Find(const std::string& name) const {
    for (const auto& [flag, value] : values) {
      if (flag == name) return &value;
    }
    return nullptr;
  }
};

/// The one reader of argv: accepts only the flags in `specs` and returns
/// them. Each `--name` in a spec is a flag, and a `<...>` placeholder after
/// it means the flag takes a value (`--name v` or `--name=v`); the k*Flags
/// spec next to each shared reader lists that reader's flags. An unknown
/// `--flag`, a stray word, a value flag without its value (last in argv or
/// followed by another `--flag`) or a switch given one prints the accepted
/// flags to stderr and exits with code 2: a typo must not run the default
/// sweep. `--help` prints them to stdout and exits 0. Call first in main.
inline Flags AcceptOnlyFlags(int argc, char** argv,
                             std::initializer_list<const char*> specs) {
  std::vector<std::pair<std::string, std::string>> known;  // (--name, <v>)
  for (const char* spec : specs) {
    for (const std::string& word : Split(spec, ' ')) {
      if (word.rfind("--", 0) == 0) {
        known.emplace_back(word, "");
      } else if (!known.empty()) {
        known.back().second = word;
      }
    }
  }
  auto print_flags = [&](std::FILE* out) {
    std::fprintf(out, "accepted flags:\n");
    for (const auto& [name, value] : known) {
      std::fprintf(out, "  %s%s%s\n", name.c_str(), value.empty() ? "" : " ",
                   value.c_str());
    }
  };
  Flags given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_flags(stdout);
      std::exit(0);
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto flag = std::find_if(known.begin(), known.end(),
                             [&](const auto& f) { return f.first == name; });
    std::string value;
    std::string error;
    if (flag == known.end()) {
      error = (arg.rfind("--", 0) == 0 ? "unknown flag "
                                        : "unexpected argument ") +
              arg;
    } else if (flag->second.empty()) {
      if (eq != std::string::npos) error = name + " takes no value";
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      error = name + " needs a value " + flag->second;
    } else {
      value = argv[++i];
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      print_flags(stderr);
      std::exit(2);
    }
    given.values.emplace_back(name.substr(2), std::move(value));
  }
  return given;
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
    const Flags& flags, workload::WorkloadOptions* options, uint64_t seed,
    std::initializer_list<const char*> reserved = {}) {
  options->num_records = 1000;
  options->theta = 0.85;
  options->read_ratio = 0.5;
  options->seed = seed;
  std::string name = flags.Value("workload");
  if (name.empty()) name = "smallbank";
  const workload::WorkloadRegistry& workloads =
      workload::WorkloadRegistry::Global();
  RequireRegistered("workload", name, workloads.Contains(name),
                    workloads.Names());
  const std::string spec = flags.Value("params");
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

inline constexpr const char* kPlacementFlags =
    "--placement <name> --placement-params <k=v,...>";

inline constexpr const char* kStoreFlags = "--store <spec>";

inline constexpr const char* kPoolFlags = "--pool <name>";

inline constexpr const char* kServiceFlags =
    "--arrival <name> --arrival-params <k=v,...> --rate <tps> "
    "--admission <policy> --queue-depth <n> --limiter-rate <tps> "
    "--limiter-burst <tokens> --codel-target-us <us>";

/// The run choices of the shared placement, store, pool and service flags,
/// in one config: each driver copies it and sets its own axes. An absent
/// flag leaves the config default. A bad value exits with code 2 naming
/// it: a typo or an out-of-range shard must not silently bench the default
/// or abort the driver in a factory.
///
/// - `--placement <name>` / `--placement-params <k=v,...>`: the policy is
///   checked against placement::PlacementRegistry::Global() and its params
///   at each shard count in `shard_counts`, the ones the driver runs
///   (placement::CheckPlacementParams).
/// - `--store <spec>`: the backend is checked against
///   storage::StoreRegistry::Global(), then the whole spec by creating it
///   once (reopening a store is idempotent).
/// - `--pool <name>`: one of ce::ExecutorPoolNames(). "sim" keeps
///   virtual-time determinism; "thread" measures real wall-clock scaling.
/// - `--arrival <name>` or `--rate <tps>` enables the open-loop service
///   front end (the other takes its default); `--arrival-params`,
///   `--admission`, `--queue-depth`, `--limiter-rate` / `--limiter-burst`
///   (token bucket ahead of the queues) and `--codel-target-us` refine it.
///   The arrival name is checked against svc::ArrivalRegistry, its params
///   against that process (svc::CheckArrivalParams) and the policy against
///   svc::ParseAdmissionPolicy.
inline core::ThunderboltConfig ConfigFromFlags(
    const Flags& flags, const std::vector<uint32_t>& shard_counts) {
  core::ThunderboltConfig config;
  const std::string policy = flags.Value("placement");
  if (!policy.empty()) {
    const placement::PlacementRegistry& policies =
        placement::PlacementRegistry::Global();
    RequireRegistered("placement policy", policy, policies.Contains(policy),
                      policies.Names());
    config.placement = policy;
  }
  config.placement_params = flags.Value("placement-params");
  placement::PlacementOptions placement_options;
  placement_options.params = config.placement_params;
  for (uint32_t num_shards : shard_counts) {
    placement_options.num_shards = num_shards;
    const Status valid =
        placement::CheckPlacementParams(config.placement, placement_options);
    if (!valid.ok()) {
      std::fprintf(stderr,
                   "bad --placement-params \"%s\" for placement %s at %u "
                   "shards: %s\n",
                   config.placement_params.c_str(), config.placement.c_str(),
                   num_shards, valid.message().c_str());
      std::exit(2);
    }
  }

  const std::string store = flags.Value("store");
  if (!store.empty()) {
    const storage::StoreRegistry& stores = storage::StoreRegistry::Global();
    RequireRegistered("store backend", store, stores.Contains(store),
                      stores.Names());
    if (stores.Create(store) == nullptr) {
      std::fprintf(stderr, "bad store spec \"%s\"\n", store.c_str());
      std::exit(2);
    }
    config.store = store;
  }

  const std::string pool = flags.Value("pool");
  if (!pool.empty()) {
    const std::vector<std::string> names = ce::ExecutorPoolNames();
    RequireRegistered("executor pool", pool,
                      std::find(names.begin(), names.end(), pool) !=
                          names.end(),
                      names);
    config.pool = pool;
  }

  svc::ServiceConfig& service = config.service;
  const std::string arrival = flags.Value("arrival");
  const std::string rate = flags.Value("rate");
  service.enabled = !arrival.empty() || !rate.empty();
  if (!arrival.empty()) {
    const svc::ArrivalRegistry& arrivals = svc::ArrivalRegistry::Global();
    RequireRegistered("arrival process", arrival, arrivals.Contains(arrival),
                      arrivals.Names());
    service.arrival = arrival;
  }
  service.arrival_params = flags.Value("arrival-params");
  flags.ReadPositive("rate", &service.rate_tps);
  svc::ArrivalOptions arrival_options;
  arrival_options.rate_tps = service.rate_tps;
  arrival_options.params = service.arrival_params;
  const Status valid =
      svc::CheckArrivalParams(service.arrival, arrival_options);
  if (!valid.ok()) {
    std::fprintf(stderr, "bad --arrival-params \"%s\" for arrival %s: %s\n",
                 service.arrival_params.c_str(), service.arrival.c_str(),
                 valid.message().c_str());
    std::exit(2);
  }
  const std::string admission = flags.Value("admission");
  if (!admission.empty()) {
    svc::AdmissionPolicy parsed;
    RequireRegistered("admission policy", admission,
                      svc::ParseAdmissionPolicy(admission, &parsed),
                      svc::AdmissionPolicyNames());
    service.admission = admission;
  }
  flags.ReadPositive("queue-depth", &service.queue_depth);
  flags.ReadPositive("limiter-rate", &service.limiter_rate_tps);
  flags.ReadPositive("limiter-burst", &service.limiter_burst);
  flags.ReadPositive("codel-target-us", &service.codel_target);
  return config;
}

/// What one batch-figure cell (Figures 11 and 12) sums over its batches.
struct BatchCellSums {
  SimTime duration = 0;
  uint64_t txns = 0;
  uint64_t aborts = 0;
  uint32_t batches = 0;
  /// Sum of the batches' mean commit latencies, in microseconds.
  double latency_sum_us = 0;
  obs::LatencyBreakdown phases;

  double tps() const {
    return static_cast<double>(txns) / ToSeconds(duration);
  }
  /// Mean of the per-batch mean latencies (not a pooled mean), in seconds.
  double latency_s() const { return (latency_sum_us / batches) / 1e6; }
};

/// Runs one batch-figure cell: `runs` batches of `config.batch_size`
/// SmallBank transactions from `options`, over a fresh `config.store` store
/// seeded by the workload, each through a new `config.engine`
/// (ce::EngineRegistry) engine on one `config.num_executors`-wide
/// `config.pool` pool that records into `obs`; each batch's writes are
/// applied before the next. A failed batch exits 1 naming `cell`: the cell
/// has no number without it.
inline BatchCellSums RunBatchCell(const core::ThunderboltConfig& config,
                                  const workload::WorkloadOptions& options,
                                  uint32_t runs, obs::Observability* obs,
                                  const std::string& cell) {
  std::unique_ptr<workload::Workload> w =
      workload::WorkloadRegistry::Global().Create("smallbank", options);
  std::unique_ptr<storage::KVStore> store =
      storage::StoreRegistry::Global().Create(config.store);
  w->InitStore(store.get());
  auto registry = contract::Registry::CreateDefault();
  std::unique_ptr<ce::ExecutorPool> pool = ce::CreateExecutorPool(
      config.pool, config.num_executors, config.exec_costs);
  pool->SetObs(ce::PoolObsContext{obs->tracer(), &obs->metrics(), 0});
  BatchCellSums sums;
  for (uint32_t run = 0; run < runs; ++run) {
    auto batch = w->MakeBatch(config.batch_size);
    std::unique_ptr<ce::BatchEngine> engine =
        ce::EngineRegistry::Global().Create(config.engine, store.get(),
                                            config.batch_size);
    auto r = pool->Run(*engine, *registry, batch);
    if (!r.ok()) {
      std::fprintf(stderr, "%s run %u failed: %s\n", cell.c_str(), run,
                   r.status().ToString().c_str());
      std::exit(1);
    }
    store->Write(engine->FinalWrites());
    sums.duration += r->duration;
    sums.txns += config.batch_size;
    sums.aborts += r->total_aborts;
    ++sums.batches;
    sums.latency_sum_us += r->commit_latency_us.Mean();
    sums.phases.Merge(r->phases);
  }
  return sums;
}

inline constexpr const char* kObsFlags =
    "--trace-out <path> --metrics-out <path> --timeseries-out <path> "
    "--timeseries-window <us> --trace-capacity <n>";

/// Where a bench binary writes its observability artifacts.
/// `--trace-out <path>` gets lifecycle tracing (Chrome trace-event JSON,
/// loadable at ui.perfetto.dev); `--metrics-out <path>` a snapshot of the
/// metrics registry as JSON; `--timeseries-out <path>` windowed counter
/// deltas. ObsFromFlags turns the matching sinks on in the config's `obs`.
///
/// Sweeping drivers call Capture() once per cluster/bundle; the artifacts
/// describe the LAST captured run (each capture replaces the previous one
/// — a sweep produces one representative trace, not a concatenation).
struct ObsSelection {
  std::string trace_path;
  std::string metrics_path;
  std::string timeseries_path;

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

/// Shared `--trace-out` / `--metrics-out` / `--timeseries-out` /
/// `--timeseries-window <us>` (window width) / `--trace-capacity <n>`
/// (ring size) handling: turns on the requested sinks in `config->obs`
/// and returns where to write them.
inline ObsSelection ObsFromFlags(const Flags& flags,
                                 core::ThunderboltConfig* config) {
  ObsSelection selection;
  selection.trace_path = flags.Value("trace-out");
  selection.metrics_path = flags.Value("metrics-out");
  selection.timeseries_path = flags.Value("timeseries-out");
  config->obs.trace = !selection.trace_path.empty();
  config->obs.timeseries = !selection.timeseries_path.empty();
  flags.ReadPositive("trace-capacity", &config->obs.trace_capacity);
  flags.ReadPositive("timeseries-window", &config->obs.timeseries_window_us);
  return selection;
}

/// Shared `--json <path>` handling for the figure binaries: when the flag
/// is present, dumps every table printed so far to that path. Call as the
/// last statement of main.
inline int WriteTablesJsonIfRequested(const Flags& flags,
                                      const char* figure) {
  const std::string path = flags.Value("json");
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
