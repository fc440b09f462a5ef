// Streaming statistics for benchmark reporting (mean / percentiles).
#ifndef THUNDERBOLT_COMMON_HISTOGRAM_H_
#define THUNDERBOLT_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <vector>

namespace thunderbolt {

/// Collects double-valued samples and reports summary statistics. Keeps all
/// samples (bench populations are modest). A plain value type: queries
/// select on a local copy and write nothing, so any number of concurrent
/// readers may query a quiescent histogram (e.g. a metrics snapshot vs a
/// reporting thread). Mutating calls (Add/Merge/Clear, assignment) are not
/// synchronized: code that records from multiple threads keeps one
/// Histogram per thread and combines them afterwards with Merge() (see
/// ce/thread_executor_pool.cc).
class Histogram {
 public:
  void Add(double v) {
    samples_.push_back(v);
    sum_ += v;
  }

  /// Appends all of `other`'s samples.
  void Merge(const Histogram& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
  }

  void Clear() {
    samples_.clear();
    sum_ = 0;
  }

  size_t Count() const { return samples_.size(); }
  double Sum() const { return sum_; }
  double Mean() const {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(Count());
  }

  double Min() const;
  double Max() const;

  /// Raw samples, always in insertion order. Used to merge per-batch
  /// histograms into a sweep-level one.
  const std::vector<double>& samples() const { return samples_; }

  /// p in [0, 100]: linear interpolation between the two nearest ranks.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  std::vector<double> samples_;  // Insertion order, never reordered.
  double sum_ = 0;
};

}  // namespace thunderbolt

#endif  // THUNDERBOLT_COMMON_HISTOGRAM_H_
