// String-keyed factory registry: the one Register/Create/Contains/Names
// behind every pluggable subsystem. ce::EngineRegistry,
// workload::WorkloadRegistry, placement::PlacementRegistry,
// storage::StoreRegistry and svc::ArrivalRegistry each derive from it and
// add only a static Global() preloaded with the module's built-ins (there
// rather than in static initializers, which static libraries would
// dead-strip). StoreRegistry also resolves "name:params" specs.
#ifndef THUNDERBOLT_COMMON_REGISTRY_H_
#define THUNDERBOLT_COMMON_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace thunderbolt {

/// Name -> factory map; each factory builds a `T` from `Args...`.
template <typename T, typename... Args>
class FactoryRegistry {
 public:
  using Factory = std::function<std::unique_ptr<T>(Args...)>;

  /// Registers `factory` under `name`. Overwrites any existing entry.
  void Register(std::string name, Factory factory) {
    factories_[std::move(name)] = std::move(factory);
  }

  /// Instantiates the named entry, or nullptr for unknown names.
  std::unique_ptr<T> Create(const std::string& name, Args... args) const {
    auto it = factories_.find(name);
    if (it == factories_.end()) return nullptr;
    return it->second(std::forward<Args>(args)...);
  }

  bool Contains(const std::string& name) const {
    return factories_.find(name) != factories_.end();
  }

  /// Registered names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) names.push_back(name);
    return names;
  }

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace thunderbolt

#endif  // THUNDERBOLT_COMMON_REGISTRY_H_
