// String-keyed factory registry for concurrency-control engines, mirroring
// workload::WorkloadRegistry / placement::PlacementRegistry /
// storage::StoreRegistry. It is the one way anything picks a preplay
// engine: core::ThunderboltConfig::engine names a cluster's, and the
// bench drivers create theirs by name (thunderbolt_bench and
// bench_overload take it from `--engine`).
//
// `Global()` is preloaded with "ce" (the Thunderbolt Concurrency
// Controller), "occ" (OccEngine) and "2pl" (TplNoWaitEngine). "serial" is
// not a BatchEngine: Tusk and the drivers route it through
// baselines::ExecuteSerial.
#ifndef THUNDERBOLT_CE_ENGINE_REGISTRY_H_
#define THUNDERBOLT_CE_ENGINE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ce/batch_engine.h"

namespace thunderbolt::ce {

class EngineRegistry {
 public:
  /// `base` is the committed read view the engine preplays against; it
  /// must outlive the engine. `batch_size` is the number of slots.
  using Factory = std::function<std::unique_ptr<BatchEngine>(
      const storage::ReadView* base, uint32_t batch_size)>;

  /// Registers `factory` under `name`. Overwrites any existing entry.
  void Register(std::string name, Factory factory);

  /// Instantiates the named engine, or nullptr for unknown names.
  std::unique_ptr<BatchEngine> Create(const std::string& name,
                                      const storage::ReadView* base,
                                      uint32_t batch_size) const;

  bool Contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// The process-wide registry, preloaded with "ce", "occ" and "2pl".
  static EngineRegistry& Global();

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_ENGINE_REGISTRY_H_
