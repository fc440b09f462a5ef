// String-keyed factory registry for concurrency-control engines
// (common/registry.h). It is the one way anything picks a preplay
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

#include <cstdint>

#include "ce/batch_engine.h"
#include "common/registry.h"

namespace thunderbolt::ce {

/// Factories take `base`, the committed read view the engine preplays
/// against (it must outlive the engine), and `batch_size`, the number of
/// slots.
class EngineRegistry
    : public FactoryRegistry<BatchEngine, const storage::ReadView*,
                             uint32_t> {
 public:
  /// The process-wide registry, preloaded with "ce", "occ" and "2pl".
  static EngineRegistry& Global();
};

}  // namespace thunderbolt::ce

#endif  // THUNDERBOLT_CE_ENGINE_REGISTRY_H_
