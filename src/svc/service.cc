#include "svc/service.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace thunderbolt::svc {

namespace {

/// Per-stream RNG seed: SplitMix64-style mixing so streams are
/// decorrelated while the whole schedule stays a pure function of the
/// config seed.
uint64_t StreamSeed(uint64_t seed, uint32_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ServiceFrontEnd::ServiceFrontEnd(const ServiceConfig& config,
                                 uint32_t num_shards, uint64_t seed,
                                 TxnSource source,
                                 obs::MetricsRegistry* metrics)
    : config_(config),
      source_(std::move(source)),
      limiter_(config.limiter_rate_tps, config.limiter_burst) {
  if (num_shards == 0 || config_.queue_depth == 0 || config_.rate_tps <= 0) {
    std::fprintf(stderr,
                 "svc: need num_shards > 0, queue_depth > 0, rate > 0\n");
    std::abort();
  }
  AdmissionOptions admission;
  admission.max_depth = config_.queue_depth;
  admission.codel_target = config_.codel_target;
  if (!ParseAdmissionPolicy(config_.admission, &admission.policy)) {
    std::fprintf(stderr, "svc: unknown admission policy \"%s\"\n",
                 config_.admission.c_str());
    std::abort();
  }
  if (metrics != nullptr) {
    // Resolve (and thereby materialize) the counters up front so every
    // time-series window sees them from t=0, not from the first arrival.
    offered_ = &metrics->GetCounter("svc.offered");
    admitted_ = &metrics->GetCounter("svc.admitted");
    rejected_ = &metrics->GetCounter("svc.rejected");
    shed_ = &metrics->GetCounter("svc.shed");
    dequeued_ = &metrics->GetCounter("svc.dequeued");
  }

  streams_.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ArrivalOptions arrival;
    arrival.rate_tps = config_.rate_tps / num_shards;
    arrival.params = config_.arrival_params;
    arrival.stream = s;
    arrival.num_streams = num_shards;
    Stream& stream = streams_[s];
    stream.process =
        ArrivalRegistry::Global().Create(config_.arrival, arrival);
    if (stream.process == nullptr) {
      std::fprintf(stderr, "svc: unknown arrival process \"%s\"\n",
                   config_.arrival.c_str());
      std::abort();
    }
    stream.queue = std::make_unique<AdmissionQueue>(admission);
    stream.rng.Seed(StreamSeed(seed, s));
    stream.next_arrival = stream.process->NextArrival(0, stream.rng);
    if (metrics != nullptr) {
      stream.depth_gauge =
          &metrics->GetGauge("svc.queue_depth", {{"shard", s}});
      stream.depth_gauge->Set(0);
    }
  }
}

SimTime ServiceFrontEnd::NextArrivalTime() const {
  SimTime next = kSimTimeNever;
  for (const Stream& stream : streams_) {
    if (stream.next_arrival < next) next = stream.next_arrival;
  }
  return next;
}

void ServiceFrontEnd::Admit(Stream& stream, ShardId shard, SimTime when) {
  txn::Transaction tx = source_(shard);
  tx.submit_time = when;  // Arrival time: the end-to-end latency origin.
  ++counters_.offered;
  if (offered_ != nullptr) offered_->Inc();
  if (!limiter_.TryAcquire(when)) {
    ++counters_.rejected;
    if (rejected_ != nullptr) rejected_->Inc();
    return;
  }
  AdmissionQueue::EnqueueResult r = stream.queue->Enqueue(std::move(tx));
  if (r.admitted) {
    ++counters_.admitted;
    if (admitted_ != nullptr) admitted_->Inc();
  } else {
    ++counters_.rejected;
    if (rejected_ != nullptr) rejected_->Inc();
  }
  if (r.shed > 0) {
    counters_.shed += r.shed;
    if (shed_ != nullptr) shed_->Inc(r.shed);
  }
  if (stream.depth_gauge != nullptr) {
    stream.depth_gauge->Set(static_cast<double>(stream.queue->depth()));
  }
}

void ServiceFrontEnd::AdvanceTo(SimTime now) {
  // Merge the per-stream schedules in (time, shard) order so the
  // transaction source's RNG draws happen in one deterministic sequence
  // no matter how callers slice time.
  for (;;) {
    SimTime best = kSimTimeNever;
    size_t best_stream = 0;
    for (size_t s = 0; s < streams_.size(); ++s) {
      if (streams_[s].next_arrival < best) {
        best = streams_[s].next_arrival;
        best_stream = s;
      }
    }
    if (best == kSimTimeNever || best > now) return;
    Stream& stream = streams_[best_stream];
    Admit(stream, static_cast<ShardId>(best_stream), best);
    stream.next_arrival = stream.process->NextArrival(best, stream.rng);
  }
}

std::vector<txn::Transaction> ServiceFrontEnd::Dequeue(ShardId shard,
                                                       SimTime now,
                                                       size_t max) {
  Stream& stream = streams_[shard];
  AdmissionQueue::DequeueResult r = stream.queue->Dequeue(now, max);
  if (r.shed > 0) {
    counters_.shed += r.shed;
    if (shed_ != nullptr) shed_->Inc(r.shed);
  }
  if (!r.batch.empty()) {
    counters_.dequeued += r.batch.size();
    if (dequeued_ != nullptr) dequeued_->Inc(r.batch.size());
    for (txn::Transaction& tx : r.batch) tx.admit_time = now;
  }
  if (stream.depth_gauge != nullptr) {
    stream.depth_gauge->Set(static_cast<double>(stream.queue->depth()));
  }
  return std::move(r.batch);
}

uint64_t ServiceFrontEnd::total_queue_depth() const {
  uint64_t depth = 0;
  for (const Stream& stream : streams_) depth += stream.queue->depth();
  return depth;
}

}  // namespace thunderbolt::svc
