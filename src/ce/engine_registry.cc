#include "ce/engine_registry.h"

#include "ce/concurrency_controller.h"
#include "ce/occ_engine.h"
#include "ce/tpl_nowait_engine.h"

namespace thunderbolt::ce {

namespace {

template <typename Engine>
EngineRegistry::Factory FactoryOf() {
  return [](const storage::ReadView* base, uint32_t batch_size) {
    return std::unique_ptr<BatchEngine>(new Engine(base, batch_size));
  };
}

}  // namespace

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    r->Register("ce", FactoryOf<ConcurrencyController>());
    r->Register("occ", FactoryOf<OccEngine>());
    r->Register("2pl", FactoryOf<TplNoWaitEngine>());
    return r;
  }();
  return *registry;
}

}  // namespace thunderbolt::ce
