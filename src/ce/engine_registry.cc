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

void EngineRegistry::Register(std::string name, Factory factory) {
  factories_[std::move(name)] = std::move(factory);
}

std::unique_ptr<BatchEngine> EngineRegistry::Create(
    const std::string& name, const storage::ReadView* base,
    uint32_t batch_size) const {
  auto it = factories_.find(name);
  return it == factories_.end() ? nullptr : it->second(base, batch_size);
}

bool EngineRegistry::Contains(const std::string& name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

EngineRegistry& EngineRegistry::Global() {
  // Registered here rather than by static initializers, which static
  // libraries would dead-strip.
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
