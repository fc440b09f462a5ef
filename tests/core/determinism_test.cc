// Determinism regression: the discrete-event simulation must be bit-exact
// reproducible. Two Cluster runs from the same RNG seed have to produce
// byte-identical commit order and histogram/metrics output; any divergence
// means nondeterminism crept into the protocol or scheduler (e.g. iteration
// over an unordered container, wall-clock leakage, uninitialized reads).
// The check runs for every cluster workload — sharded generation and
// cross-shard execution must be deterministic for ycsb and tpcc_lite just
// like for SmallBank — and for both the default "hash" placement (the
// historical configuration, byte-for-byte) and the "directory" placement
// under periodic reconfiguration, where hot-key migration mutates the
// account mapping mid-run and must do so identically in every replay.
// The matrix additionally spans storage backends: the default "mem" runs
// carry the historical byte-identical baselines forward, and "cow"/
// "sorted" runs pin the new backends to the same bar — plus a cross-
// backend leg asserting mem and cow converge to the same committed state.
// A second suite holds the other execution pipelines (OCC and 2PL-No-Wait
// preplay, Tusk's serial execution, CE preplay with Skip-block deferral) to
// the same bar.
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "testutil/testutil.h"

namespace thunderbolt::core {
namespace {

struct RunOutput {
  std::string commit_order;   // (round, time) per commit, serialized.
  std::string histogram;      // Throughput / latency report lines.
  uint64_t state_fingerprint; // Canonical store content digest.
  uint64_t placement_fingerprint;  // Policy mapping digest.
  std::string trace_json;     // Chrome trace export (virtual timestamps).
  std::string metrics_json;   // Metrics registry snapshot.
  std::string timeseries_json;  // Windowed counter deltas (sim clock).
  std::string phase_json;     // Per-phase latency decomposition.
};

/// (workload name, placement policy name, store backend name), plus an
/// optional open-loop shape: when `arrival` is set the cluster runs with
/// the service front end enabled (arrival process x admission policy) —
/// arrivals are seeded simulator events, so the whole open-loop pipeline
/// sits under the same byte-identical bar as the closed loop.
struct DeterminismParam {
  const char* workload;
  const char* placement;
  const char* store;
  const char* arrival = nullptr;
  const char* admission = nullptr;
};

/// The execution pipeline: the preplay engine by ce::EngineRegistry name,
/// the mode (kTusk executes serially after consensus instead), and whether
/// P4 defers conflicting singles behind Skip blocks (section 5.4) rather
/// than converting them.
struct PipelineParam {
  const char* engine = "ce";
  ExecutionMode mode = ExecutionMode::kThunderbolt;
  bool use_skip_blocks = false;
};

/// Prints the fields, so the listed test names carry no pointer bytes.
/// use_skip_blocks appears only when set, which keeps the names of the
/// entries that predate it.
void PrintTo(const PipelineParam& param, std::ostream* os) {
  *os << "engine=" << param.engine << " mode="
      << (param.mode == ExecutionMode::kTusk ? "tusk" : "thunderbolt");
  if (param.use_skip_blocks) *os << " use_skip_blocks=1";
}

RunOutput RunClusterOnce(const DeterminismParam& param, uint64_t seed,
                         const PipelineParam& pipeline = {}) {
  ThunderboltConfig cfg;
  cfg.n = 4;
  cfg.engine = pipeline.engine;
  cfg.mode = pipeline.mode;
  cfg.use_skip_blocks = pipeline.use_skip_blocks;
  cfg.batch_size = 100;
  cfg.placement = param.placement;
  cfg.store = param.store;
  // Trace with virtual timestamps under the sim pool: the export itself is
  // part of the determinism contract (byte-identical JSON per seed). The
  // windowed time-series rides the same sim clock, so its export is held
  // to the same bar.
  cfg.obs.trace = true;
  cfg.obs.timeseries = true;
  cfg.obs.timeseries_window_us = 100000;
  if (cfg.placement == "directory") {
    // Exercise the migration path: periodic reconfigurations give the
    // directory policy boundaries to rebalance at.
    cfg.reconfig_period_k_prime = 8;
  }
  if (param.arrival != nullptr) {
    cfg.service.enabled = true;
    cfg.service.arrival = param.arrival;
    cfg.service.admission = param.admission;
    cfg.service.rate_tps = 4000;
    cfg.service.queue_depth = 256;
  }
  workload::WorkloadOptions wc =
      testutil::WorkloadTestOptions(/*num_records=*/500, seed);
  wc.cross_shard_ratio = 0.1;
  // Keep TPC-C-lite tables test-sized (the defaults are bench-scale).
  wc.num_warehouses = 2;
  wc.customers_per_district = 20;
  wc.num_items = 50;

  Cluster cluster(cfg, param.workload, wc);
  ClusterResult r = cluster.Run(Seconds(2));
  // DAG garbage collection drops no proposal, vote, certificate or block
  // response below its watermark and stops no history walk there. Block
  // requests carry no round and are not counted, so a zero count does not
  // show that no request reached a collected block.
  for (ReplicaId id = 0; id < cfg.n; ++id) {
    EXPECT_EQ(cluster.node(id).dag().ignored_below_gc(), 0u)
        << "replica " << id;
  }

  RunOutput out;
  for (const auto& [round, when] : r.commit_times) {
    char line[64];
    std::snprintf(line, sizeof(line), "%" PRIu64 "@%" PRIu64 "\n",
                  static_cast<uint64_t>(round), static_cast<uint64_t>(when));
    out.commit_order += line;
  }
  char report[256];
  std::snprintf(report, sizeof(report),
                "committed=%" PRIu64 "+%" PRIu64 " tput=%.6f avg=%.9f "
                "p50=%.9f p99=%.9f aborts=%" PRIu64 " migrations=%" PRIu64
                "\n",
                r.committed_single, r.committed_cross, r.throughput_tps,
                r.avg_latency_s, r.p50_latency_s, r.p99_latency_s,
                r.preplay_aborts, r.migrations);
  out.histogram = report;
  out.state_fingerprint = cluster.canonical_state().ContentFingerprint();
  out.placement_fingerprint = cluster.placement().Fingerprint();
  out.trace_json = cluster.obs().ring()->ToChromeJson();
  out.metrics_json = cluster.obs().metrics().ToJson();
  cluster.obs().FlushTimeSeries();  // Stamp the trailing partial window.
  out.timeseries_json = cluster.obs().timeseries()->ToJson();
  out.phase_json = r.phase_latency.ToJson();
  return out;
}

void ExpectByteIdentical(const RunOutput& a, const RunOutput& b) {
  EXPECT_FALSE(a.commit_order.empty());
  EXPECT_EQ(a.commit_order, b.commit_order);
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.state_fingerprint, b.state_fingerprint);
  EXPECT_EQ(a.placement_fingerprint, b.placement_fingerprint);
  // The whole observability export is deterministic too: same seed, same
  // bytes — trace ring, metrics snapshot, windowed time-series and the
  // per-phase latency decomposition alike.
  EXPECT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_FALSE(a.timeseries_json.empty());
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
  EXPECT_EQ(a.phase_json, b.phase_json);
}

class ClusterDeterminismTest
    : public ::testing::TestWithParam<DeterminismParam> {};

TEST_P(ClusterDeterminismTest, IdenticalSeedsProduceByteIdenticalRuns) {
  ExpectByteIdentical(RunClusterOnce(GetParam(), /*seed=*/1234),
                      RunClusterOnce(GetParam(), /*seed=*/1234));
}

TEST_P(ClusterDeterminismTest, DifferentSeedsDiverge) {
  // Guard against the helper accidentally ignoring the seed, which would
  // make the identical-seed assertion vacuous.
  RunOutput a = RunClusterOnce(GetParam(), /*seed=*/1234);
  RunOutput b = RunClusterOnce(GetParam(), /*seed=*/99);
  EXPECT_NE(a.commit_order, b.commit_order);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ClusterDeterminismTest,
    ::testing::Values(DeterminismParam{"smallbank", "hash", "mem"},
                      DeterminismParam{"ycsb", "hash", "mem"},
                      DeterminismParam{"tpcc_lite", "hash", "mem"},
                      DeterminismParam{"smallbank", "directory", "mem"},
                      DeterminismParam{"ycsb", "directory", "mem"},
                      DeterminismParam{"tpcc_lite", "directory", "mem"},
                      DeterminismParam{"smallbank", "hash", "cow"},
                      DeterminismParam{"ycsb", "hash", "sorted"},
                      DeterminismParam{"tpcc_lite", "directory", "cow"},
                      // Wrapper backends sit below the determinism line
                      // too: WAL barriers/checkpoints and cache evictions
                      // are pure functions of the committed op sequence,
                      // so even their counters and spans must replay
                      // byte-identically (ephemeral WAL dir names must
                      // never leak into any export).
                      DeterminismParam{"smallbank", "hash",
                                       "wal:group_commit=4,inner=sorted"},
                      DeterminismParam{"ycsb", "hash",
                                       "cached:capacity=64,inner=sorted"},
                      DeterminismParam{
                          "tpcc_lite", "directory",
                          "wal:group_commit=2,checkpoint_every=64,"
                          "inner=cached:capacity=128,inner=mem"},
                      // Open-loop entries: the service front end's arrival
                      // schedule, admission decisions, queue-depth gauges
                      // and end-to-end latency samples must all replay
                      // byte-identically per seed.
                      DeterminismParam{"smallbank", "hash", "mem", "poisson",
                                       "drop-tail"},
                      DeterminismParam{"ycsb", "hash", "mem", "burst",
                                       "codel"}),
    [](const auto& info) {
      // Store specs carry ':', '=' and ',' — gtest names must stay
      // alphanumeric, so flatten every non-alnum byte to '_'.
      std::string name = std::string(info.param.workload) + "_" +
                         info.param.placement + "_" + info.param.store;
      if (info.param.arrival != nullptr) {
        name += std::string("_") + info.param.arrival + "_" +
                info.param.admission;
      }
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Every pipeline other than the default CE preplay, on smallbank/hash/mem:
// OCC and 2PL-No-Wait schedules, Tusk's post-consensus serial execution and
// the CE with P4's Skip-block deferral (where deferred singles re-enter
// through the pending cross-shard index) must replay byte-identically per
// seed too.
class PipelineDeterminismTest
    : public ::testing::TestWithParam<PipelineParam> {};

const DeterminismParam kPipelineConfig{"smallbank", "hash", "mem"};

TEST_P(PipelineDeterminismTest, IdenticalSeedsProduceByteIdenticalRuns) {
  ExpectByteIdentical(RunClusterOnce(kPipelineConfig, 1234, GetParam()),
                      RunClusterOnce(kPipelineConfig, 1234, GetParam()));
}

TEST_P(PipelineDeterminismTest, DifferentSeedsDiverge) {
  RunOutput a = RunClusterOnce(kPipelineConfig, 1234, GetParam());
  RunOutput b = RunClusterOnce(kPipelineConfig, 99, GetParam());
  EXPECT_NE(a.commit_order, b.commit_order);
}

INSTANTIATE_TEST_SUITE_P(
    SmallbankHashMem, PipelineDeterminismTest,
    ::testing::Values(PipelineParam{"occ", ExecutionMode::kThunderbolt},
                      PipelineParam{"2pl", ExecutionMode::kThunderbolt},
                      PipelineParam{"ce", ExecutionMode::kTusk},
                      PipelineParam{"ce", ExecutionMode::kThunderbolt,
                                    /*use_skip_blocks=*/true}),
    [](const auto& info) {
      if (info.param.mode == ExecutionMode::kTusk) return std::string("tusk");
      std::string name = info.param.engine;
      if (info.param.use_skip_blocks) name += "_skip";
      return name;
    });

// Swapping the storage backend must not move the committed state: a mem
// cluster and a cow cluster driven from the same seed land on identical
// commit orders, metrics and content fingerprints (the store is below the
// determinism line — only its snapshot/fork cost profile differs).
TEST(StoreBackendClusterAgreement, MemAndCowConverge) {
  for (const char* workload : {"smallbank", "tpcc_lite"}) {
    RunOutput mem =
        RunClusterOnce(DeterminismParam{workload, "hash", "mem"}, 1234);
    RunOutput cow =
        RunClusterOnce(DeterminismParam{workload, "hash", "cow"}, 1234);
    EXPECT_FALSE(mem.commit_order.empty());
    EXPECT_EQ(mem.commit_order, cow.commit_order) << workload;
    EXPECT_EQ(mem.histogram, cow.histogram) << workload;
    EXPECT_EQ(mem.state_fingerprint, cow.state_fingerprint) << workload;
  }
}

// The durable stack is invisible to the protocol: running the whole
// cluster through WAL + block cache changes nothing above the storage
// line — same commits, same latencies, same final state as bare mem.
TEST(StoreBackendClusterAgreement, MemAndWalStackConverge) {
  RunOutput mem =
      RunClusterOnce(DeterminismParam{"smallbank", "hash", "mem"}, 1234);
  RunOutput wal = RunClusterOnce(
      DeterminismParam{"smallbank", "hash",
                       "wal:group_commit=4,inner=cached:capacity=256,"
                       "inner=sorted"},
      1234);
  EXPECT_FALSE(mem.commit_order.empty());
  EXPECT_EQ(mem.commit_order, wal.commit_order);
  EXPECT_EQ(mem.histogram, wal.histogram);
  EXPECT_EQ(mem.state_fingerprint, wal.state_fingerprint);
}

}  // namespace
}  // namespace thunderbolt::core
