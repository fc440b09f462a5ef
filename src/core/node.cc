#include "core/node.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "baselines/serial_executor.h"
#include "ce/engine_registry.h"

namespace thunderbolt::core {

namespace {

/// Read view for preplay: the proposer's speculative overlay (its own
/// in-flight writes) on top of the canonical committed store.
class OverlayStore final : public storage::ReadView {
 public:
  OverlayStore(const std::unordered_map<storage::Key, storage::Value>* overlay,
               const storage::ReadView* base)
      : overlay_(overlay), base_(base) {}

  Result<storage::VersionedValue> Get(const storage::Key& key) const override {
    auto it = overlay_->find(key);
    if (it != overlay_->end()) {
      // Overlay values are uncommitted; synthesize a version above the
      // committed one so OCC-based preplay treats them as fresh.
      auto base = base_->Get(key);
      storage::Version v = base.ok() ? base->version + 1 : 1;
      return storage::VersionedValue{it->second, v};
    }
    return base_->Get(key);
  }

  storage::Value GetOrDefault(const storage::Key& key,
                              storage::Value default_value) const override {
    auto it = overlay_->find(key);
    if (it != overlay_->end()) return it->second;
    return base_->GetOrDefault(key, default_value);
  }

  size_t size() const override { return base_->size(); }

 private:
  const std::unordered_map<storage::Key, storage::Value>* overlay_;
  const storage::ReadView* base_;
};

const ThunderboltPayload* PayloadOf(const dag::BlockPtr& block) {
  return dynamic_cast<const ThunderboltPayload*>(block->content.get());
}

/// What one commit's pipeline run finishes, tallied in commit order and
/// recorded into the registry at the completion time.
struct Completion {
  uint64_t singles = 0;
  uint64_t crosses = 0;
  /// Per shard: (single-shard, cross-shard) transactions finished.
  std::map<ShardId, std::pair<uint64_t, uint64_t>> by_shard;
  Histogram latency_us;        // Completion - submit, per transaction.
  Histogram admit_latency_us;  // Completion - admit, per transaction.
};

}  // namespace

ThunderboltNode::ThunderboltNode(
    const ThunderboltConfig& config, ReplicaId id, sim::Simulator* simulator,
    net::SimNetwork* network, const crypto::KeyDirectory* keys,
    std::shared_ptr<const contract::Registry> registry,
    workload::Workload* workload,
    std::shared_ptr<placement::PlacementPolicy> placement,
    SharedClusterState* shared, obs::Observability* obs, bool is_observer)
    : config_(config),
      id_(id),
      simulator_(simulator),
      network_(network),
      keys_(keys),
      registry_(std::move(registry)),
      workload_(workload),
      placement_(std::move(placement)),
      shared_(shared),
      obs_(obs),
      is_observer_(is_observer),
      outcomes_(obs->metrics(), shared->service != nullptr),
      pool_(config.num_executors, config.exec_costs),
      cross_executor_(registry_.get(), config.exec_costs.op_cost,
                      /*num_workers=*/4, &workload->mapper()),
      owned_shard_(ShardOwnedBy(id, 0, config.n)),
      pending_cross_(&shared->account_ids) {
  // The preplay pool records its per-transaction/batch events and
  // pool.<name>.* metrics directly; pid scopes them to this replica.
  pool_.SetObs(
      ce::PoolObsContext{obs_->tracer(), &obs_->metrics(), id_});
  dag::DagConfig dag_config;
  dag_config.n = config_.n;
  dag_config.id = id_;
  dag_config.epoch = 0;
  dag_ = std::make_unique<dag::DagCore>(dag_config, keys_, network_);
  dag_->SetRoundReadyCallback([this](Round r) { OnRoundReady(r); });
  dag_->SetBlockReceivedCallback(
      [this](const dag::BlockPtr& b) { OnBlockReceived(b); });
  dag_->SetCommitCallback(
      [this](const dag::CommittedSubDag& s) { OnCommit(s); });
}

ThunderboltNode::Outcomes::Outcomes(obs::MetricsRegistry& m, bool open_loop)
    : invalid_blocks(m.GetCounter("cluster.invalid_blocks")),
      skip_blocks(m.GetCounter("cluster.skip_blocks")),
      shift_blocks(m.GetCounter("cluster.shift_blocks")),
      conversions(m.GetCounter("cluster.conversions")),
      reconfigurations(m.GetCounter("cluster.reconfigurations")),
      migrations(m.GetCounter("cluster.migrations")),
      commit_latency(m.GetHistogram("cluster.commit_latency_us")),
      admit_latency(open_loop ? &m.GetHistogram("cluster.admit_latency_us")
                              : nullptr) {}

void ThunderboltNode::Start() {
  network_->RegisterHandler(
      id_, [this](ReplicaId from, const net::PayloadPtr& payload) {
        if (stopped_) return;
        dag_->OnMessage(from, payload);
      });
  dag_->Start();
}

// --- Proposal pipeline --------------------------------------------------------

void ThunderboltNode::OnRoundReady(Round round) {
  (void)round;
  TryPropose();
}

void ThunderboltNode::TryPropose() {
  if (stopped_ || building_) return;
  Round next = dag_->highest_proposed_round() + 1;
  if (next > dag_->highest_ready_round()) return;
  building_ = true;
  building_round_ = next;
  leader_wait_armed_ = false;
  BuildProposal(next);
}

bool ThunderboltNode::ShouldShift(Round round) const {
  if (shift_sent_) return false;  // Condition (4): shift once per DAG.
  // Condition (2): proposed for at least K' rounds.
  if (config_.reconfig_period_k_prime > 0 &&
      rounds_proposed_in_epoch_ >= config_.reconfig_period_k_prime) {
    return true;
  }
  // Condition (3): f+1 Shift blocks seen from distinct replicas.
  if (shift_seen_.size() >= WeakQuorumSize(config_.n)) return true;
  // Condition (1): some shard proposer silent for K rounds.
  if (round > config_.silence_rounds_k) {
    for (ReplicaId p = 0; p < config_.n; ++p) {
      if (p == id_) continue;
      if (dag_->LatestBlockRoundFrom(p) + config_.silence_rounds_k < round) {
        return true;
      }
    }
  }
  return false;
}

void ThunderboltNode::PullBatch(std::vector<txn::Transaction>* singles,
                                std::vector<txn::Transaction>* crosses) {
  SimTime now = simulator_->Now();
  std::vector<txn::Transaction> batch;
  if (shared_->service != nullptr) {
    // Open loop: dequeue admitted transactions for this shard. They keep
    // their arrival submit_time (the end-to-end latency origin); Dequeue
    // stamps admit_time = now.
    batch = shared_->service->Dequeue(owned_shard_, now, config_.batch_size);
  } else {
    // Closed loop: generate a fresh batch on demand; submission and
    // admission coincide with the pull.
    batch = workload_->MakeShardBatch(owned_shard_, config_.batch_size);
    for (txn::Transaction& tx : batch) {
      tx.submit_time = now;
      tx.admit_time = now;
    }
  }
  // Route in two passes so each side is reserved to the count this batch
  // adds to it. A payload keeps `crosses` as its cross-shard section,
  // capacity included; BuildProposal's rule-P4 conversions may still grow it.
  std::vector<bool> is_cross(batch.size());
  size_t num_cross = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    is_cross[i] = config_.mode == ExecutionMode::kTusk ||
                  !workload_->mapper().IsSingleShard(batch[i]);
    num_cross += is_cross[i];
  }
  singles->reserve(singles->size() + batch.size() - num_cross);
  crosses->reserve(crosses->size() + num_cross);
  for (size_t i = 0; i < batch.size(); ++i) {
    (is_cross[i] ? crosses : singles)->push_back(std::move(batch[i]));
  }
}

void ThunderboltNode::BuildProposal(Round round) {
  if (stopped_) return;
  assert(building_ && building_round_ == round);

  // Shift decision first (section 6): a Shift block carries no payload.
  if (ShouldShift(round)) {
    auto payload = std::make_shared<ThunderboltPayload>();
    payload->kind = PayloadKind::kShift;
    payload->shard = owned_shard_;
    shift_sent_ = true;
    FinishProposal(round, std::move(payload), Millis(1));
    return;
  }

  if (config_.mode == ExecutionMode::kTusk) {
    // Plain Tusk: the block carries raw transactions; execution happens
    // serially after commit.
    std::vector<txn::Transaction> singles, crosses;
    PullBatch(&singles, &crosses);
    auto payload = std::make_shared<ThunderboltPayload>();
    payload->kind = PayloadKind::kNormal;
    payload->shard = owned_shard_;
    payload->cross_shard = std::move(crosses);
    FinishProposal(round, std::move(payload), config_.proposal_prep_cost);
    return;
  }

  // Rule P3: for odd rounds led by another replica, wait for the leader's
  // round-r proposal before preplaying, so conflicting uncommitted
  // cross-shard transactions in its history are visible.
  ReplicaId leader = dag_->LeaderOf(round);
  if (leader != dag::DagCore::kNoLeader && leader != id_ &&
      !dag_->GetBlock(round, leader) && !leader_wait_expired_.count(round)) {
    if (!leader_wait_armed_) {
      leader_wait_armed_ = true;
      EpochId epoch_at_arm = epoch_;
      simulator_->ScheduleAfter(
          config_.leader_timeout, [this, round, epoch_at_arm]() {
            if (stopped_ || epoch_ != epoch_at_arm) return;
            leader_wait_expired_.insert(round);
            if (building_ && building_round_ == round) BuildProposal(round);
          });
    }
    return;  // Re-entered from OnBlockReceived or the timeout.
  }
  const bool leader_timed_out = leader_wait_expired_.count(round) > 0;

  std::vector<txn::Transaction> singles, crosses;
  PullBatch(&singles, &crosses);

  // Re-admit deferred transactions whose conflicts cleared; convert the
  // ones that waited past the leader timeout (rule P4 -> cross-shard).
  SimTime now = simulator_->Now();
  std::deque<std::pair<txn::Transaction, SimTime>> still_deferred;
  while (!deferred_singles_.empty()) {
    auto [tx, since] = std::move(deferred_singles_.front());
    deferred_singles_.pop_front();
    if (!pending_cross_.Conflicts(tx)) {
      singles.push_back(std::move(tx));
    } else if (now - since > config_.leader_timeout) {
      outcomes_.conversions.Inc();
      crosses.push_back(std::move(tx));
    } else {
      still_deferred.emplace_back(std::move(tx), since);
    }
  }
  deferred_singles_ = std::move(still_deferred);

  if (leader_timed_out) {
    // Rule P6: the leader is silent; convert this round's single-shard
    // transactions to cross-shard and submit them directly.
    outcomes_.conversions.Inc(singles.size());
    crosses.reserve(crosses.size() + singles.size());
    for (txn::Transaction& tx : singles) crosses.push_back(std::move(tx));
    singles.clear();
  } else {
    // Rule P4: single-shard transactions that conflict with known
    // uncommitted cross-shard transactions cannot be preplayed. Default:
    // convert them to cross-shard immediately. With use_skip_blocks, hold
    // them back instead and emit Skip blocks until the conflicts finalize
    // (the section 5.4 preplay-recovery variant).
    std::vector<txn::Transaction> runnable;
    runnable.reserve(singles.size());
    for (txn::Transaction& tx : singles) {
      if (!pending_cross_.Conflicts(tx)) {
        runnable.push_back(std::move(tx));
      } else if (config_.use_skip_blocks) {
        deferred_singles_.emplace_back(std::move(tx), now);
      } else {
        outcomes_.conversions.Inc();
        crosses.push_back(std::move(tx));
      }
    }
    singles = std::move(runnable);
  }

  if (singles.empty() && !deferred_singles_.empty()) {
    // Nothing preplayable: emit a Skip block (section 5.4) so the DAG keeps
    // advancing while prior cross-shard leaders finalize.
    auto payload = std::make_shared<ThunderboltPayload>();
    payload->kind = PayloadKind::kSkip;
    payload->shard = owned_shard_;
    payload->cross_shard = std::move(crosses);
    FinishProposal(round, std::move(payload), config_.proposal_prep_cost);
    return;
  }

  StartPreplay(round, std::move(singles), std::move(crosses));
}

void ThunderboltNode::StartPreplay(Round round,
                                   std::vector<txn::Transaction> singles,
                                   std::vector<txn::Transaction> crosses) {
  OverlayStore view(&overlay_, shared_->canonical.get());

  const uint32_t batch = static_cast<uint32_t>(singles.size());
  std::unique_ptr<ce::BatchEngine> engine =
      ce::EngineRegistry::Global().Create(config_.engine, &view, batch);

  SimTime now = simulator_->Now();
  SimTime start = std::max(now, ce_free_);
  auto payload = std::make_shared<ThunderboltPayload>();
  payload->kind = PayloadKind::kNormal;
  payload->shard = owned_shard_;
  payload->cross_shard = std::move(crosses);

  SimTime duration = 0;
  if (batch > 0) {
    auto result = pool_.Run(*engine, *registry_, singles, start);
    if (!result.ok()) {
      // A failed preplay (e.g. an engine livelock tripping the pool's
      // restart bound) is a bug: stop loudly, never report a silent 0 tps.
      std::fprintf(stderr,
                   "ThunderboltNode: preplay failed on replica %u, shard %u "
                   "(engine \"%s\"): %s\n",
                   id_, owned_shard_, config_.engine.c_str(),
                   result.status().ToString().c_str());
      std::abort();
    }
    duration = result->duration;
    // Per-shard abort attribution: each shard is preplayed by exactly one
    // proposer per epoch, so every replica reporting its own shard
    // partitions the pool's restarts counter.
    if (result->total_aborts > 0) {
      obs_->metrics()
          .GetCounter("cluster.shard.preplay_aborts",
                      {{"shard", owned_shard_}})
          .Inc(result->total_aborts);
    }

    // Assemble the preplayed section in serialization order, moving each
    // transaction and its outcome out of the batch and the pool's result.
    payload->preplayed.reserve(batch);
    for (ce::TxnSlot slot : result->order) {
      ce::TxnRecord& record = result->records[slot];
      payload->preplayed.push_back(PreplayedTxn{std::move(singles[slot]),
                                                std::move(record.rw_set),
                                                std::move(record.emitted)});
    }
  }
  ce_free_ = start + duration;

  // The proposal goes out once preplay finishes (virtual time).
  SimTime wait = ce_free_ > now ? ce_free_ - now : 0;
  EpochId epoch_at_start = epoch_;
  simulator_->ScheduleAfter(
      wait, [this, round, payload, epoch_at_start]() {
        if (stopped_ || epoch_ != epoch_at_start) return;
        if (!building_ || building_round_ != round) return;
        // Track in-flight writes in the speculative overlay so the next
        // batch preplays against this block's results.
        if (OverlayWrites(*payload)) in_flight_.push_back(payload);
        FinishProposal(round, payload, config_.proposal_prep_cost);
      });
}

void ThunderboltNode::FinishProposal(Round round,
                                     std::shared_ptr<ThunderboltPayload> p,
                                     SimTime prep_cost) {
  EpochId epoch_at_start = epoch_;
  simulator_->ScheduleAfter(prep_cost, [this, round, p, epoch_at_start]() {
    if (stopped_ || epoch_ != epoch_at_start) return;
    if (!building_ || building_round_ != round) return;
    Status s = dag_->Propose(round, p);
    if (s.ok()) {
      ++proposals_made_;
      ++rounds_proposed_in_epoch_;
    }
    building_ = false;
    TryPropose();
  });
}

// --- DAG callbacks ----------------------------------------------------------

void ThunderboltNode::OnBlockReceived(const dag::BlockPtr& block) {
  const ThunderboltPayload* payload = PayloadOf(block);
  if (payload == nullptr) return;
  if (payload->kind == PayloadKind::kShift) {
    shift_seen_.insert(block->proposer);
  }
  // Track uncommitted cross-shard transactions for the P4 conflict check,
  // which only a Thunderbolt proposer makes.
  if (config_.mode == ExecutionMode::kThunderbolt) {
    pending_cross_.Add(*payload);
  }
  // Rule P3 continuation: a waiting proposer re-checks once the leader's
  // proposal arrives.
  if (building_ && leader_wait_armed_ &&
      block->round == building_round_ &&
      block->proposer == dag_->LeaderOf(building_round_)) {
    BuildProposal(building_round_);
  }
}

void ThunderboltNode::OnCommit(const dag::CommittedSubDag& sub_dag) {
  if (stopped_) return;
  SimTime now = simulator_->Now();
  SimTime start = std::max(now, commit_pipeline_free_);
  SimTime cost = 0;

  // Pass 1 (G1/P2): single-shard preplayed sections, in sub-DAG order.
  std::vector<const ThunderboltPayload*> payloads;
  payloads.reserve(sub_dag.blocks.size());
  for (const dag::BlockPtr& block : sub_dag.blocks) {
    const ThunderboltPayload* payload = PayloadOf(block);
    if (payload == nullptr) continue;
    payloads.push_back(payload);
    if (payload->kind == PayloadKind::kShift) {
      shift_committed_.insert(block->proposer);
      if (is_observer_) outcomes_.shift_blocks.Inc();
      continue;
    }
    if (payload->kind == PayloadKind::kSkip && is_observer_) {
      outcomes_.skip_blocks.Inc();
    }
    if (payload->preplayed.empty()) continue;

    if (!payload->validation) {
      // First replica to commit this block validates it for real against
      // the canonical committed store and applies the writes. Virtual
      // validation time: replay work divided across validators, bounded
      // below by the dependency graph's critical path.
      ValidationResult vr =
          ValidatePreplay(*registry_, payload->preplayed, *shared_->canonical);
      if (vr.valid) {
        shared_->canonical->Write(vr.writes);
      }
      const uint64_t per_txn_ops =
          std::max<uint64_t>(1, vr.ops / payload->preplayed.size());
      const uint64_t parallel_ops = std::max<uint64_t>(
          vr.ops / std::max(1u, config_.num_validators),
          static_cast<uint64_t>(ValidationCriticalPath(payload->preplayed)) *
              per_txn_ops);
      payload->validation = ThunderboltPayload::Validation{
          vr.valid, parallel_ops * kValidationOpCost};
    }
    const auto [valid, validate_cost] = *payload->validation;
    if (is_observer_) {
      obs::Tracer& tracer = *obs_->tracer();
      if (tracer.enabled()) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kValidateSpan;
        ev.pid = id_;
        ev.ts_us = start + cost;
        ev.dur_us = validate_cost;
        ev.a = validate_seq_;
        ev.b = payload->preplayed.size();
        tracer.Record(ev);
      }
      ++validate_seq_;
    }
    cost += validate_cost;

    if (!valid) {
      if (is_observer_) {
        outcomes_.invalid_blocks.Inc();
        obs_->metrics()
            .GetCounter("cluster.shard.invalid_blocks",
                        {{"shard", payload->shard}})
            .Inc();
      }
      continue;
    }
    if (is_observer_) {
      // Phase decomposition: every transaction in a valid block waits out
      // the whole block's validation replay before its commit applies.
      obs::HistogramMetric& validate =
          obs_->metrics().GetHistogram("phase.validate_us");
      for (size_t i = 0; i < payload->preplayed.size(); ++i) {
        validate.Observe(static_cast<double>(validate_cost));
      }
    }
    // Retire this block from our speculative overlay if it is ours.
    if (block->proposer == id_) {
      auto it = std::find_if(
          in_flight_.begin(), in_flight_.end(),
          [payload](const auto& own) { return own.get() == payload; });
      if (it != in_flight_.end()) {
        in_flight_.erase(it);
        RebuildOverlay();
      }
    }
  }

  // Pass 2: cross-shard transactions (and Tusk raw transactions), in
  // sub-DAG order, after all single-shard sections (rule P2).
  size_t num_crosses = 0;
  for (const ThunderboltPayload* payload : payloads) {
    num_crosses += payload->cross_shard.size();
    pending_cross_.Release(*payload);
  }

  if (num_crosses > 0) {
    const ThunderboltPayload* leader = PayloadOf(sub_dag.leader);
    assert(leader != nullptr);
    if (!leader->cross_execution) {
      // The first replica to commit this leader executes; both paths run
      // the committed blocks' own transactions, in place, and build no
      // records.
      std::vector<const txn::Transaction*> crosses;
      crosses.reserve(num_crosses);
      for (const ThunderboltPayload* payload : payloads) {
        for (const txn::Transaction& tx : payload->cross_shard) {
          crosses.push_back(&tx);
        }
      }
      if (config_.mode == ExecutionMode::kTusk) {
        // Serial post-consensus execution.
        uint64_t ops = 0;
        for (const txn::Transaction* tx : crosses) {
          ops += baselines::ExecuteSerialOne(*registry_, *tx,
                                             shared_->canonical.get());
        }
        leader->cross_execution = ThunderboltPayload::CrossExecution{
            ops * config_.exec_costs.op_cost, 0};
      } else {
        // The account queues key on the ids the payloads cached for the
        // P4 index. Home shards anchor the remote-access counters hot-key
        // migration ranks on: an account pulled in by a transaction homed
        // elsewhere is remote traffic its placement could have avoided.
        std::vector<uint32_t> account_ids;
        for (const ThunderboltPayload* payload : payloads) {
          const std::vector<uint32_t>& ids =
              payload->CrossAccountIds(&shared_->account_ids);
          account_ids.insert(account_ids.end(), ids.begin(), ids.end());
        }
        std::vector<ShardId> homes;
        homes.reserve(crosses.size());
        for (const txn::Transaction* tx : crosses) {
          homes.push_back(workload_->HomeShard(*tx));
        }
        CrossShardResult r = cross_executor_.ExecuteInPlace(
            crosses, account_ids, shared_->canonical.get(), &homes,
            placement_->ConsumesAccessTracker() ? &shared_->access_tracker
                                                : nullptr);
        leader->cross_execution =
            ThunderboltPayload::CrossExecution{r.duration, r.remote_accesses};
      }
    }
    const auto [duration, remote_accesses] = *leader->cross_execution;
    if (is_observer_) {
      obs::Tracer& tracer = *obs_->tracer();
      if (tracer.enabled()) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kCrossShardSpan;
        ev.pid = id_;
        ev.ts_us = start + cost;
        ev.dur_us = duration;
        ev.a = num_crosses;
        ev.b = remote_accesses;
        tracer.Record(ev);

        // Causality: one hold span per participant shard of each
        // cross-shard transaction, stitched into a single tree by trace_id
        // (= txn id) and a flow-event chain (start -> step... -> end), so
        // Perfetto draws the cross-shard commit as arrows between the
        // participant shards' tracks.
        for (const ThunderboltPayload* payload : payloads) {
          for (const txn::Transaction& tx : payload->cross_shard) {
            const std::vector<ShardId> participants =
                workload_->mapper().ShardsOf(tx);
            for (size_t i = 0; i < participants.size(); ++i) {
              obs::TraceEvent hold;
              hold.kind = obs::EventKind::kCrossHoldSpan;
              hold.pid = participants[i];
              hold.ts_us = start + cost;
              hold.dur_us = duration;
              hold.txn = tx.id;
              hold.a = i;
              hold.b = participants.size();
              hold.trace_id = tx.id;
              hold.span_id = i + 1;
              hold.parent_id = i == 0 ? 0 : 1;
              if (participants.size() > 1) {
                hold.flow = i == 0 ? obs::FlowPhase::kStart
                            : i + 1 == participants.size()
                                ? obs::FlowPhase::kEnd
                                : obs::FlowPhase::kStep;
              }
              tracer.Record(hold);
            }
          }
        }
      }
    }
    cost += duration;
  }

  commit_pipeline_free_ = start + cost;

  if (is_observer_) {
    // A transaction counts as committed once the pipeline finishes it, not
    // at consensus commit: under Tusk the serial executor backlog grows
    // without bound, and counting at commit would credit unexecuted work.
    // So the commit counters and latency samples are recorded at the
    // completion time — every time-series window then holds exactly the
    // work finished inside it, and Run windows read the same counts.
    Completion done;
    obs::MetricsRegistry& m = obs_->metrics();
    obs::HistogramMetric& commit_apply =
        m.GetHistogram("phase.commit_apply_us");
    obs::HistogramMetric& cross_hold =
        m.GetHistogram("phase.cross_shard_hold_us");
    auto finish = [&](ShardId shard, const txn::Transaction& tx, bool cross) {
      ++(cross ? done.crosses : done.singles);
      auto& per_shard = done.by_shard[shard];
      ++(cross ? per_shard.second : per_shard.first);
      done.latency_us.Add(
          static_cast<double>(commit_pipeline_free_ - tx.submit_time));
      if (outcomes_.admit_latency != nullptr) {
        done.admit_latency_us.Add(
            static_cast<double>(commit_pipeline_free_ - tx.admit_time));
      }
      commit_apply.Observe(static_cast<double>(commit_pipeline_free_ - start));
    };
    for (const ThunderboltPayload* payload : payloads) {
      if (!payload->validation || payload->validation->valid) {
        for (const PreplayedTxn& p : payload->preplayed) {
          finish(payload->shard, p.tx, /*cross=*/false);
        }
      }
      for (const txn::Transaction& tx : payload->cross_shard) {
        finish(payload->shard, tx, /*cross=*/true);
        cross_hold.Observe(
            static_cast<double>(commit_pipeline_free_ - tx.submit_time));
      }
    }
    if (done.singles + done.crosses > 0) {
      simulator_->ScheduleAt(
          commit_pipeline_free_, [this, done = std::move(done)]() {
            obs::MetricsRegistry& m = obs_->metrics();
            if (done.singles > 0) {
              m.GetCounter("cluster.commits_single").Inc(done.singles);
            }
            if (done.crosses > 0) {
              m.GetCounter("cluster.commits_cross").Inc(done.crosses);
            }
            for (const auto& [shard, n] : done.by_shard) {
              if (n.first > 0) {
                m.GetCounter("cluster.shard.commits", {{"shard", shard}})
                    .Inc(n.first);
              }
              if (n.second > 0) {
                m.GetCounter("cluster.shard.commits_cross",
                             {{"shard", shard}})
                    .Inc(n.second);
              }
            }
            outcomes_.commit_latency.Merge(done.latency_us);
            if (outcomes_.admit_latency != nullptr) {
              outcomes_.admit_latency->Merge(done.admit_latency_us);
            }
          });
    }
    commit_times_.emplace_back(static_cast<Round>(commit_times_.size() + 1),
                               commit_pipeline_free_);
  }

  // Reconfiguration trigger: first commit whose epoch-cumulative history
  // contains 2f+1 Shift blocks from distinct proposers ends this DAG.
  if (shift_committed_.size() >= QuorumSize(config_.n)) {
    Round ending_round = sub_dag.leader_round;
    EpochId epoch_now = epoch_;
    // Defer the switch out of the DagCore callback stack (the commit loop
    // must not have the DAG reset under it).
    simulator_->ScheduleAfter(0, [this, ending_round, epoch_now]() {
      if (stopped_ || epoch_ != epoch_now) return;
      Reconfigure(ending_round);
    });
  }

  // Release the DAG below the GC watermark; `sub_dag` still holds this
  // commit's blocks until the callback returns.
  if (sub_dag.leader_round > kDagGcDepth) {
    dag_->CollectGarbageBelow(sub_dag.leader_round - kDagGcDepth);
  }
}

bool ThunderboltNode::OverlayWrites(const ThunderboltPayload& payload) {
  bool wrote = false;
  for (const PreplayedTxn& p : payload.preplayed) {
    for (const txn::Operation& w : p.rw_set.writes) {
      overlay_[w.key] = w.value;
      wrote = true;
    }
  }
  return wrote;
}

void ThunderboltNode::RebuildOverlay() {
  overlay_.clear();
  for (const auto& payload : in_flight_) OverlayWrites(*payload);
}

void ThunderboltNode::Reconfigure(Round ending_round) {
  ++epoch_;
  owned_shard_ = ShardOwnedBy(id_, epoch_, config_.n);
  if (is_observer_) outcomes_.reconfigurations.Inc();
  obs::Tracer& tracer = *obs_->tracer();
  if (is_observer_ && tracer.enabled()) {
    // The fence marks the instant no in-flight preplay may straddle; the
    // reconfiguration instant below lands after the DAG reset.
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kEpochFence;
    ev.pid = id_;
    ev.ts_us = simulator_->Now();
    ev.a = epoch_;
    ev.b = ending_round;
    tracer.Record(ev);
  }

  // Hot-key migration (section 6 boundary): the epoch fence is the only
  // point where no in-flight preplay can straddle a placement change. The
  // first replica to cross into the new epoch applies the deterministic
  // rebalance — peers share the policy object in this simulation, exactly
  // as every real replica would compute the identical migration from the
  // identical committed access counters. Each replica enters epochs in
  // order, so the first one into this epoch finds the marker below it.
  if (shared_->rebalanced_epoch < epoch_) {
    shared_->rebalanced_epoch = epoch_;
    std::vector<placement::MigrationEvent> events =
        placement_->Rebalance(shared_->access_tracker);
    shared_->access_tracker.Clear();
    if (!events.empty()) {
      // Re-homed accounts change the workload's per-shard buckets.
      workload_->SetPlacementPolicy(placement_);
      if (tracer.enabled()) {
        // Recorded by whichever replica performed the rebalance, so the
        // migration appears exactly once.
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kMigration;
        ev.pid = id_;
        ev.ts_us = simulator_->Now();
        ev.a = epoch_;
        ev.b = events.size();
        tracer.Record(ev);
      }
      for (placement::MigrationEvent& e : events) {
        e.epoch = epoch_;
        obs_->metrics()
            .GetCounter("cluster.shard.migrations_in", {{"shard", e.to}})
            .Inc();
        obs_->metrics()
            .GetCounter("cluster.shard.migrations_out", {{"shard", e.from}})
            .Inc();
        shared_->migration_events.push_back(std::move(e));
      }
      outcomes_.migrations.Inc(events.size());
    }
  }

  // Uncommitted state of the old DAG is discarded; clients retransmit the
  // affected transactions (open-loop workload keeps generating).
  pending_cross_.Clear();
  deferred_singles_.clear();
  in_flight_.clear();
  overlay_.clear();
  shift_sent_ = false;
  shift_seen_.clear();
  shift_committed_.clear();
  rounds_proposed_in_epoch_ = 0;
  leader_wait_expired_.clear();
  leader_wait_armed_ = false;
  building_ = false;
  building_round_ = 0;

  dag_->ResetForNewEpoch(epoch_);
  if (is_observer_ && tracer.enabled()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kReconfiguration;
    ev.pid = id_;
    ev.ts_us = simulator_->Now();
    ev.a = epoch_;
    ev.b = ending_round;
    tracer.Record(ev);
  }
}

}  // namespace thunderbolt::core
