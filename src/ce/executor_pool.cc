#include "ce/executor_pool.h"

#include <memory>
#include <string>
#include <vector>

#include "ce/sim_executor_pool.h"
#include "ce/thread_executor_pool.h"

namespace thunderbolt::ce {

std::unique_ptr<ExecutorPool> CreateExecutorPool(const std::string& name,
                                                 uint32_t num_executors,
                                                 ExecutionCostModel costs) {
  if (name == "sim") {
    return std::make_unique<SimExecutorPool>(num_executors, costs);
  }
  if (name == "thread") {
    return std::make_unique<ThreadExecutorPool>(num_executors, costs);
  }
  return nullptr;
}

std::vector<std::string> ExecutorPoolNames() { return {"sim", "thread"}; }

void ExecutorPool::PublishBatchMetrics(const BatchExecutionResult& result,
                                       size_t max_queue_depth,
                                       uint64_t occupancy_sum,
                                       uint64_t occupancy_samples) const {
  if (obs_.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs_.metrics;
  const std::string prefix = "pool." + name() + ".";
  m.GetCounter(prefix + "batches").Inc();
  m.GetCounter(prefix + "txns").Inc(result.records.size());
  m.GetCounter(prefix + "restarts").Inc(result.total_aborts);
  for (size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    if (result.abort_reasons[r] == 0) continue;
    m.GetCounter(prefix + "restart_reason." +
                 obs::AbortReasonName(static_cast<obs::AbortReason>(r)))
        .Inc(result.abort_reasons[r]);
  }
  m.GetHistogram(prefix + "commit_latency_us").Merge(result.commit_latency_us);
  obs::MergeIntoRegistry(m, result.phases);
  m.GetGauge(prefix + "queue_depth").Set(static_cast<double>(max_queue_depth));
  m.GetGauge(prefix + "wave_occupancy")
      .Set(occupancy_samples > 0
               ? static_cast<double>(occupancy_sum) /
                     (static_cast<double>(occupancy_samples) *
                      num_executors())
               : 0.0);
}

}  // namespace thunderbolt::ce
