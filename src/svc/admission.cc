#include "svc/admission.h"

#include <algorithm>
#include <utility>

namespace thunderbolt::svc {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kDropTail: return "drop-tail";
    case AdmissionPolicy::kShedOldest: return "shed-oldest";
    case AdmissionPolicy::kCoDel: return "codel";
  }
  return "unknown";
}

bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicy* out) {
  if (name == "drop-tail") {
    *out = AdmissionPolicy::kDropTail;
  } else if (name == "shed-oldest") {
    *out = AdmissionPolicy::kShedOldest;
  } else if (name == "codel") {
    *out = AdmissionPolicy::kCoDel;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> AdmissionPolicyNames() {
  return {"drop-tail", "shed-oldest", "codel"};
}

AdmissionQueue::EnqueueResult AdmissionQueue::Enqueue(txn::Transaction tx) {
  EnqueueResult result;
  if (queue_.size() >= options_.max_depth) {
    if (options_.policy != AdmissionPolicy::kShedOldest) {
      return result;  // drop-tail / codel: reject the newcomer.
    }
    // shed-oldest: evict the head so the queue always holds fresh work.
    queue_.pop_front();
    result.shed = 1;
  }
  queue_.push_back(std::move(tx));
  result.admitted = true;
  return result;
}

AdmissionQueue::DequeueResult AdmissionQueue::Dequeue(SimTime now,
                                                      size_t max) {
  DequeueResult result;
  if (options_.policy == AdmissionPolicy::kCoDel) {
    // Deadline shedding: the FIFO head is always the oldest entry, so
    // dropping from the front until the head is young enough sheds
    // exactly the over-target population.
    while (!queue_.empty() &&
           now - queue_.front().submit_time > options_.codel_target) {
      queue_.pop_front();
      ++result.shed;
    }
  }
  result.batch.reserve(std::min(queue_.size(), max));
  while (!queue_.empty() && result.batch.size() < max) {
    result.batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return result;
}

}  // namespace thunderbolt::svc
