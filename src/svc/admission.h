// Admission control: bounded per-shard queues with a pluggable overload
// policy, plus a token-bucket rate limiter.
//
// Terminology (fixed across the counters, ClusterResult and bench JSON):
//   offered   arrivals generated by the arrival process;
//   rejected  turned away at the door — token bucket empty, or the queue
//             full under drop-tail;
//   admitted  entered a queue (offered == admitted + rejected, always);
//   shed      removed from a queue *after* admission without being served
//             — shed-oldest evictions and codel deadline drops;
//   dequeued  handed to the execution pipeline.
//
// Policy semantics:
//   drop-tail    Reject newcomers when full. The queue holds the OLDEST
//                waiting work, so under sustained overload every served
//                transaction first drains a full standing queue — the
//                classic bufferbloat latency plateau.
//   shed-oldest  When full, evict the head to make room for the newcomer.
//                The queue holds the FRESHEST work; served latency stays
//                bounded by how fast the queue turns over.
//   codel        Admit like drop-tail, but at dequeue time drop (shed)
//                every head entry whose sojourn exceeds the target —
//                CoDel-style deadline shedding: no transaction older than
//                the target is ever handed to the pipeline.
#ifndef THUNDERBOLT_SVC_ADMISSION_H_
#define THUNDERBOLT_SVC_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"
#include "txn/transaction.h"

namespace thunderbolt::svc {

enum class AdmissionPolicy : uint8_t {
  kDropTail = 0,
  kShedOldest = 1,
  kCoDel = 2,
};

/// Parses a policy name; returns false (and leaves *out alone) on an
/// unknown name so callers can print the registered list and exit.
bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicy* out);

/// Valid policy names, in enum order.
std::vector<std::string> AdmissionPolicyNames();

/// Token-bucket rate limiter on the sim clock: `rate_tps` tokens/second
/// refill up to a capacity of `burst` tokens. rate_tps <= 0 disables the
/// limiter (TryAcquire always succeeds).
class TokenBucket {
 public:
  TokenBucket(double rate_tps, double burst)
      : rate_tps_(rate_tps),
        burst_(burst > 0 ? burst : rate_tps / 10 + 1),
        tokens_(burst_) {}

  /// Consumes one token if available at `now`. Deterministic: refill is a
  /// pure function of elapsed sim time.
  bool TryAcquire(SimTime now) {
    if (rate_tps_ <= 0) return true;
    if (now > last_refill_) {
      tokens_ += rate_tps_ * ToSeconds(now - last_refill_);
      if (tokens_ > burst_) tokens_ = burst_;
      last_refill_ = now;
    }
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  double rate_tps_;
  double burst_;
  double tokens_;
  SimTime last_refill_ = 0;
};

struct AdmissionOptions {
  AdmissionPolicy policy = AdmissionPolicy::kDropTail;
  /// Bound on waiting transactions (per queue).
  size_t max_depth = 1024;
  /// CoDel sojourn target: entries older than this at dequeue are shed.
  SimTime codel_target = Millis(50);
};

/// One shard's bounded FIFO of admitted transactions. Entries carry their
/// arrival time in Transaction::submit_time (stamped by the front end), so
/// sojourn is always `now - submit_time`. Not thread-safe: the front end
/// runs on the single-threaded sim clock.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options) : options_(options) {}

  struct EnqueueResult {
    bool admitted = false;
    uint64_t shed = 0;  // Head evictions performed (shed-oldest only).
  };

  /// Offers `tx` (submit_time already stamped with the arrival time).
  EnqueueResult Enqueue(txn::Transaction tx);

  struct DequeueResult {
    std::vector<txn::Transaction> batch;
    uint64_t shed = 0;  // Deadline drops performed (codel only).
  };

  /// Pops up to `max` transactions in FIFO order at sim time `now`,
  /// applying codel deadline shedding first.
  DequeueResult Dequeue(SimTime now, size_t max);

  size_t depth() const { return queue_.size(); }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::deque<txn::Transaction> queue_;
};

}  // namespace thunderbolt::svc

#endif  // THUNDERBOLT_SVC_ADMISSION_H_
