// Component microbenchmarks (google-benchmark): hashing, signatures, the
// concurrency controller, the executor pool, validation, DAG consensus and
// the workload generator. These are wall-clock benchmarks of the
// implementation itself (not the simulated system) — useful for tracking
// regressions.
//
// This file replaces the global operator new/delete with a counting
// malloc/free pair, so BM_CcBatch, BM_Validation, BM_CrossShardExecute and
// BM_PendingCrossIndex can report heap allocations per transaction (the
// allocs_per_txn counter), and BM_DagRounds per committed block
// (allocs_per_block).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "baselines/serial_executor.h"
#include "ce/concurrency_controller.h"
#include "ce/sim_executor_pool.h"
#include "common/sha256_kernels.h"
#include "common/simulator.h"
#include "contract/contract.h"
#include "core/cross_shard_executor.h"
#include "core/node.h"
#include "core/payload.h"
#include "core/pending_cross_index.h"
#include "core/validator.h"
#include "crypto/signature.h"
#include "dag/dag_core.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "workload/smallbank_workload.h"
#include "workload/workload.h"

namespace {

// Counting is off except inside CountAllocations, so a timed loop pays one
// relaxed load and branch per allocation.
std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: inlined into a delete-expression, free() on a pointer from
// operator new trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace thunderbolt {
namespace {

/// Exact number of operator new calls `fn` makes (single-threaded).
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_TxnDigest(benchmark::State& state) {
  // One SmallBank transaction's digest: the unit a Tusk block's
  // ThunderboltPayload::ContentDigest repeats for each raw transaction.
  workload::WorkloadOptions wc;
  wc.num_records = 10000;
  workload::SmallBankWorkload w(wc);
  const txn::Transaction tx = w.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.Digest());
  }
}
BENCHMARK(BM_TxnDigest);

void BM_SignVerify(benchmark::State& state) {
  auto dir = crypto::KeyDirectory::Create(4, 1);
  Hash256 digest = Sha256::Digest("message");
  crypto::Signature sig = dir.key(0).Sign(digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.Verify(digest, sig));
  }
}
BENCHMARK(BM_SignVerify);

void BM_QuorumValidate(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  auto dir = crypto::KeyDirectory::Create(n, 1);
  Hash256 digest = Sha256::Digest("block");
  crypto::QuorumCert qc;
  qc.digest = digest;
  for (uint32_t i = 0; i < QuorumSize(n); ++i) {
    qc.signatures.push_back(dir.key(i).Sign(digest));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(qc.Validate(dir, n).ok());
  }
}
BENCHMARK(BM_QuorumValidate)->Arg(4)->Arg(16)->Arg(64);

void RegistryStoreBench(benchmark::State& state, const char* backend,
                        bool fork) {
  // Snapshot()/Fork() cost per backend at |state.range(0)| live keys: the
  // copying backends ("mem", "sorted") pay O(n); the persistent "cow"
  // tree retains its root in O(1) — the ISSUE-5 acceptance bar is cow
  // >= 10x cheaper than mem at >= 10k keys.
  std::unique_ptr<storage::KVStore> store =
      storage::StoreRegistry::Global().Create(backend);
  uint64_t n = static_cast<uint64_t>(state.range(0));
  store->Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    store->Put("key" + std::to_string(i), static_cast<storage::Value>(i));
  }
  for (auto _ : state) {
    if (fork) {
      std::unique_ptr<storage::KVStore> copy = store->Fork();
      benchmark::DoNotOptimize(copy->size());
    } else {
      std::shared_ptr<const storage::StoreSnapshot> snap = store->Snapshot();
      benchmark::DoNotOptimize(snap->size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_StoreSnapshot_Mem(benchmark::State& state) {
  RegistryStoreBench(state, "mem", /*fork=*/false);
}
BENCHMARK(BM_StoreSnapshot_Mem)->Arg(10000)->Arg(100000);

void BM_StoreSnapshot_Cow(benchmark::State& state) {
  RegistryStoreBench(state, "cow", /*fork=*/false);
}
BENCHMARK(BM_StoreSnapshot_Cow)->Arg(10000)->Arg(100000);

void BM_StoreFork_Mem(benchmark::State& state) {
  RegistryStoreBench(state, "mem", /*fork=*/true);
}
BENCHMARK(BM_StoreFork_Mem)->Arg(10000)->Arg(100000);

void BM_StoreFork_Cow(benchmark::State& state) {
  RegistryStoreBench(state, "cow", /*fork=*/true);
}
BENCHMARK(BM_StoreFork_Cow)->Arg(10000)->Arg(100000);

void BM_StoreWriteBatch(benchmark::State& state) {
  // Batch apply over a half-fresh/half-live key mix (the post-commit write
  // path): try_emplace keeps it to one lookup per entry. The store is
  // re-copied from the base every iteration so the fresh-key insertion
  // path is measured in steady state, not just on the first pass.
  storage::MemKVStore base;
  const int64_t kLive = 10000;
  for (int64_t i = 0; i < kLive; ++i) {
    base.Put("key" + std::to_string(i), i);
  }
  storage::WriteBatch batch;
  for (int64_t i = kLive / 2; i < kLive / 2 + kLive; ++i) {
    batch.Put("key" + std::to_string(i), i + 1);
  }
  for (auto _ : state) {
    state.PauseTiming();
    storage::MemKVStore store = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.Write(batch).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_StoreWriteBatch);

txn::Transaction ShardProbeTxn(int num_accounts) {
  txn::Transaction tx;
  tx.id = 1;
  tx.contract = "smallbank.send_payment";
  for (int i = 0; i < num_accounts; ++i) {
    tx.accounts.push_back("acct" + std::to_string(i * 37));
  }
  tx.params = {5};
  return tx;
}

void BM_ShardsOf(benchmark::State& state) {
  // The sorted-distinct-shards vector built for every transaction that
  // needs the actual shard ids (cross-shard planning).
  txn::ShardMapper mapper(16);
  txn::Transaction tx = ShardProbeTxn(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.ShardsOf(tx));
  }
}
BENCHMARK(BM_ShardsOf)->Arg(1)->Arg(2)->Arg(4);

void BM_ShardOfCached(benchmark::State& state) {
  // Steady-state account -> shard resolution through the per-mapper memo:
  // after the first pass every lookup is one hash-map probe instead of a
  // Sha256 digest (classification resolves each account twice per txn —
  // policy + workload buckets — so the memo halves the crypto work even
  // before reuse across batches).
  txn::ShardMapper mapper(16);
  std::vector<std::string> accounts;
  for (int i = 0; i < 512; ++i) {
    accounts.push_back("acct" + std::to_string(i));
  }
  for (const std::string& a : accounts) mapper.ShardOfAccount(a);  // Warm.
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.ShardOfAccount(accounts[next]));
    next = (next + 1) & 511;
  }
}
BENCHMARK(BM_ShardOfCached);

void BM_IsSingleShard(benchmark::State& state) {
  // The hot classification path (every pulled transaction): early-exits on
  // the first account mapping to a different shard, with no allocation.
  txn::ShardMapper mapper(16);
  txn::Transaction tx = ShardProbeTxn(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.IsSingleShard(tx));
  }
}
BENCHMARK(BM_IsSingleShard)->Arg(1)->Arg(2)->Arg(4);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(1);
  ZipfianGenerator zipf(1000000, 0.85);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_WorkloadGen(benchmark::State& state) {
  workload::WorkloadOptions wc;
  wc.num_records = 10000;
  workload::SmallBankWorkload w(wc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.Next());
  }
}
BENCHMARK(BM_WorkloadGen);

void BM_TraceDisabled(benchmark::State& state) {
  // The cost every instrumentation site pays when tracing is off: one
  // virtual `enabled()` call and a branch — the TraceEvent is never even
  // constructed (the obs ISSUE's "disabled overhead is one branch" bar).
  obs::Tracer* tracer = obs::NullTracerInstance();
  uint64_t ts = 0;
  for (auto _ : state) {
    if (tracer->enabled()) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kTxnCommit;
      e.ts_us = ++ts;
      tracer->Record(e);
    }
    benchmark::DoNotOptimize(tracer);
  }
}
BENCHMARK(BM_TraceDisabled);

void BM_TraceRecord(benchmark::State& state) {
  // The enabled path: construct the event and append it to the mutex-
  // guarded ring (steady-state, i.e. mostly overwriting old slots).
  obs::RingTracer tracer(1 << 12);
  uint64_t ts = 0;
  for (auto _ : state) {
    if (tracer.enabled()) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kTxnCommit;
      e.ts_us = ++ts;
      tracer.Record(e);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecord);

void BM_TraceEnabled(benchmark::State& state) {
  // The fully-instrumented path a span-recording site pays under a live
  // ring: construct a TraceEvent with causality ids and flow phase set
  // (the cross-shard hold-span shape) and append it. Compare against
  // BM_TraceRecord for the cost the causality fields add.
  obs::RingTracer tracer(1 << 12);
  uint64_t ts = 0;
  for (auto _ : state) {
    if (tracer.enabled()) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kCrossHoldSpan;
      e.ts_us = ++ts;
      e.dur_us = 5;
      e.txn = ts;
      e.trace_id = ts;
      e.span_id = 1;
      e.flow = obs::FlowPhase::kStart;
      tracer.Record(e);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEnabled);

void BM_TimeSeriesWindow(benchmark::State& state) {
  // Cost of closing one time-series window over a registry of
  // |state.range(0)| counters: one delta snapshot against the previous
  // window's values. This is what the cluster pays at every window
  // boundary on the sim clock.
  obs::MetricsRegistry metrics;
  const int64_t counters = state.range(0);
  std::vector<obs::Counter*> c;
  c.reserve(static_cast<size_t>(counters));
  for (int64_t i = 0; i < counters; ++i) {
    c.push_back(&metrics.GetCounter("bench.counter" + std::to_string(i)));
  }
  auto recorder =
      std::make_unique<obs::TimeSeriesRecorder>(&metrics, /*window_us=*/100);
  uint64_t now = 0;
  size_t next = 0;
  for (auto _ : state) {
    c[next]->Inc();
    next = (next + 1) % c.size();
    now += 100;
    recorder->Advance(now);
    // Windows accumulate by design; restart the recorder periodically so
    // a long benchmark run measures window closing, not vector growth.
    if (recorder->window_count() >= 4096) {
      recorder = std::make_unique<obs::TimeSeriesRecorder>(&metrics, 100);
      now = 0;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesWindow)->Arg(8)->Arg(64);

/// Times batches of `state.range(0)` transactions from `w` (whose store
/// `store` holds) through the CC with the simulated pool, and reports the
/// allocations per transaction of `first_batch`, the batch the timed loop
/// starts with, generated from a copy of the workload.
void TimeCcBatches(benchmark::State& state, workload::Workload& w,
                   storage::MemKVStore& store,
                   const std::vector<txn::Transaction>& first_batch) {
  const uint32_t batch_size = static_cast<uint32_t>(state.range(0));
  auto registry = contract::Registry::CreateDefault();
  ce::SimExecutorPool pool(16, ce::ExecutionCostModel{});
  const uint64_t allocs = CountAllocations([&] {
    ce::ConcurrencyController cc(&store, batch_size);
    benchmark::DoNotOptimize(pool.Run(cc, *registry, first_batch).ok());
  });
  state.counters["allocs_per_txn"] = static_cast<double>(allocs) / batch_size;
  for (auto _ : state) {
    auto batch = w.MakeBatch(batch_size);
    ce::ConcurrencyController cc(&store, batch_size);
    auto r = pool.Run(cc, *registry, batch);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch_size);
}

void BM_CcBatch(benchmark::State& state) {
  // Real-time cost of executing one SmallBank batch through the CC with
  // the simulated pool (the dominant cost of cluster simulations).
  workload::WorkloadOptions wc;
  wc.num_records = 1000;
  wc.theta = 0.85;
  wc.seed = 3;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore store;
  w.InitStore(&store);
  TimeCcBatches(state, w, store,
                workload::SmallBankWorkload(wc).MakeBatch(
                    static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_CcBatch)->Arg(100)->Arg(500)->Arg(2000);

void BM_CcBatchTpcc(benchmark::State& state) {
  // The same on TPC-C-lite, whose TBVM contracts make the most engine
  // operations per transaction (13 for a NewOrder of 3 items).
  workload::WorkloadOptions options;
  options.seed = 3;
  auto make = [&] {
    return workload::WorkloadRegistry::Global().Create("tpcc_lite", options);
  };
  auto w = make();
  storage::MemKVStore store;
  w->InitStore(&store);
  TimeCcBatches(state, *w, store,
                make()->MakeBatch(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_CcBatchTpcc)->Arg(500);

void BM_SerialBatch(benchmark::State& state) {
  uint32_t batch_size = static_cast<uint32_t>(state.range(0));
  workload::WorkloadOptions wc;
  wc.num_records = 1000;
  wc.seed = 4;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore store;
  w.InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  for (auto _ : state) {
    auto batch = w.MakeBatch(batch_size);
    benchmark::DoNotOptimize(
        baselines::ExecuteSerial(*registry, batch, &store, Micros(1)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch_size);
}
BENCHMARK(BM_SerialBatch)->Arg(500);

void BM_Validation(benchmark::State& state) {
  uint32_t batch_size = 500;
  workload::WorkloadOptions wc;
  wc.num_records = 1000;
  wc.theta = 0.85;
  wc.seed = 5;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore store;
  w.InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  auto batch = w.MakeBatch(batch_size);
  ce::ConcurrencyController cc(&store, batch_size);
  ce::SimExecutorPool pool(16, ce::ExecutionCostModel{});
  auto r = pool.Run(cc, *registry, batch);
  std::vector<core::PreplayedTxn> preplayed;
  for (ce::TxnSlot slot : r->order) {
    core::PreplayedTxn p;
    p.tx = batch[slot];
    p.rw_set = r->records[slot].rw_set;
    p.emitted = r->records[slot].emitted;
    preplayed.push_back(std::move(p));
  }
  const uint64_t allocs = CountAllocations([&] {
    benchmark::DoNotOptimize(
        core::ValidatePreplay(*registry, preplayed, store).valid);
  });
  state.counters["allocs_per_txn"] = static_cast<double>(allocs) / batch_size;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ValidatePreplay(*registry, preplayed, store).valid);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch_size);
}
BENCHMARK(BM_Validation);

void BM_CrossShardExecute(benchmark::State& state) {
  // Real-time cost of the OE path: one committed batch of cross-shard
  // SmallBank transactions through the CrossShardExecutor, with the home
  // shards and remote-access tracker the cluster's commit path passes.
  const uint32_t batch_size = static_cast<uint32_t>(state.range(0));
  workload::WorkloadOptions wc;
  wc.num_records = 1000;
  wc.theta = 0.85;
  wc.cross_shard_ratio = 1.0;
  wc.num_shards = 4;
  wc.seed = 6;
  workload::SmallBankWorkload w(wc);
  storage::MemKVStore store;
  w.InitStore(&store);
  auto registry = contract::Registry::CreateDefault();
  const core::CrossShardExecutor executor(registry.get(), Micros(1),
                                          /*num_workers=*/4, &w.mapper());
  std::vector<txn::Transaction> batch;
  std::vector<ShardId> homes;
  for (uint32_t i = 0; i < batch_size; ++i) {
    batch.push_back(w.NextForShard(i % wc.num_shards));
    homes.push_back(w.HomeShard(batch.back()));
  }
  placement::AccessTracker tracker;
  const uint64_t allocs = CountAllocations([&] {
    benchmark::DoNotOptimize(
        executor.Execute(batch, &store, &homes, &tracker).executed);
  });
  state.counters["allocs_per_txn"] = static_cast<double>(allocs) / batch_size;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.Execute(batch, &store, &homes, &tracker).executed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch_size);
}
BENCHMARK(BM_CrossShardExecute)->Arg(500);

void BM_PendingCrossIndex(benchmark::State& state) {
  // Real-time cost of the rule-P4 index on the OE path: 8 replicas'
  // indexes over one AccountIdTable, each receiving a run of 150-transaction
  // cross-shard SmallBank payloads and then committing them. The payloads'
  // account ids are interned before the count and the timed loop, as the
  // first replica to receive a block does for the rest. allocs_per_txn is
  // per transaction per replica, counted over one run after a first run
  // has grown the indexes.
  constexpr int kReplicas = 8;
  constexpr int kPayloads = 16;
  constexpr uint32_t kTxnsPerPayload = 150;
  workload::WorkloadOptions wc;
  wc.num_records = 1000;
  wc.theta = 0.85;
  wc.cross_shard_ratio = 1.0;
  wc.num_shards = 4;
  wc.seed = 7;
  workload::SmallBankWorkload w(wc);
  core::AccountIdTable accounts;
  std::vector<core::ThunderboltPayload> payloads(kPayloads);
  for (core::ThunderboltPayload& payload : payloads) {
    for (uint32_t i = 0; i < kTxnsPerPayload; ++i) {
      payload.cross_shard.push_back(w.NextForShard(i % wc.num_shards));
    }
    payload.CrossAccountIds(&accounts);
  }
  std::vector<core::PendingCrossIndex> replicas(
      kReplicas, core::PendingCrossIndex(&accounts));
  auto run = [&] {
    for (core::PendingCrossIndex& index : replicas) {
      for (const core::ThunderboltPayload& payload : payloads) {
        index.Add(payload);
      }
      for (const core::ThunderboltPayload& payload : payloads) {
        index.Release(payload);
      }
    }
  };
  run();
  const uint64_t txn_events =
      static_cast<uint64_t>(kReplicas) * kPayloads * kTxnsPerPayload;
  const uint64_t allocs = CountAllocations(run);
  state.counters["allocs_per_txn"] =
      static_cast<double>(allocs) / static_cast<double>(txn_events);
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(replicas.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(txn_events));
}
BENCHMARK(BM_PendingCrossIndex);

/// The fixed small payload every BM_DagRounds block carries.
struct FixedBlockContent final : public dag::BlockContent {
  Hash256 ContentDigest() const override { return Hash256{}; }
};

/// One BM_DagRounds run: `n` DagCores on a LAN SimNetwork, each proposing
/// whenever a round is ready and collecting its DAG below
/// core::kDagGcDepth rounds under each commit, as ThunderboltNode does.
/// Runs until replica 0 has committed `leaders` leaders; returns the blocks
/// committed on all replicas.
uint64_t RunDagRounds(uint32_t n, const crypto::KeyDirectory& keys,
                      uint32_t leaders) {
  sim::Simulator sim;
  net::SimNetwork network(&sim, n, net::LatencyModel::Lan(), /*seed=*/1);
  const dag::BlockContentPtr content = std::make_shared<FixedBlockContent>();
  std::vector<std::unique_ptr<dag::DagCore>> cores;
  uint64_t blocks = 0;
  uint32_t observer_leaders = 0;
  for (ReplicaId id = 0; id < n; ++id) {
    dag::DagConfig config;
    config.n = n;
    config.id = id;
    cores.push_back(std::make_unique<dag::DagCore>(config, &keys, &network));
    dag::DagCore* core = cores.back().get();
    core->SetRoundReadyCallback(
        [core, &content](Round round) { core->Propose(round, content); });
    core->SetCommitCallback([&blocks, &observer_leaders, id,
                             core](const dag::CommittedSubDag& sub) {
      blocks += sub.blocks.size();
      observer_leaders += id == 0;
      if (sub.leader_round > core::kDagGcDepth) {
        core->CollectGarbageBelow(sub.leader_round - core::kDagGcDepth);
      }
    });
    network.RegisterHandler(
        id, [core](ReplicaId from, const net::PayloadPtr& payload) {
          core->OnMessage(from, payload);
        });
  }
  for (auto& core : cores) core->Start();
  while (observer_leaders < leaders && sim.Step()) {
  }
  return blocks;
}

void BM_DagRounds(benchmark::State& state) {
  // Real-time cost of Tusk consensus alone: proposals, votes, certificate
  // validation, the commit rule's DAG walks and garbage collection, with
  // no preplay or validation. allocs_per_block is counted over one run
  // and divided by the blocks committed on all replicas; wall_per_block
  // is wall seconds per committed block over the timed runs.
  constexpr uint32_t kLeaders = 20;
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const crypto::KeyDirectory keys = crypto::KeyDirectory::Create(n, 1);
  uint64_t blocks = 0;
  const uint64_t allocs =
      CountAllocations([&] { blocks = RunDagRounds(n, keys, kLeaders); });
  state.counters["allocs_per_block"] =
      static_cast<double>(allocs) / static_cast<double>(blocks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunDagRounds(n, keys, kLeaders));
  }
  const double committed =
      static_cast<double>(blocks) * static_cast<double>(state.iterations());
  state.counters["wall_per_block"] = benchmark::Counter(
      committed, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<int64_t>(committed));
}
BENCHMARK(BM_DagRounds)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace thunderbolt

int main(int argc, char** argv) {
  // The SHA-256 body is picked from CPUID, so hashing-bound results are
  // comparable only between runs that report the same sha256_kernel.
  benchmark::AddCustomContext("sha256_kernel",
                              thunderbolt::sha256::ChosenBodyName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
