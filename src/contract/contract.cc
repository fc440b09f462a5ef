#include "contract/contract.h"

#include "contract/kv.h"
#include "contract/smallbank.h"
#include "contract/tbvm.h"
#include "contract/tpcc_lite.h"

namespace thunderbolt::contract {

namespace {

/// A run that ends with `status` without touching state.
ContractTask Fail(Status status) { co_return status; }

}  // namespace

Status RequireArgs(const txn::Transaction& tx, size_t accounts,
                   size_t params) {
  if (tx.accounts.size() < accounts) {
    return Status::InvalidArgument(tx.contract + ": missing account args");
  }
  if (tx.params.size() < params) {
    return Status::InvalidArgument(tx.contract + ": missing params");
  }
  return Status::OK();
}

void Registry::Register(std::string name, std::unique_ptr<Contract> contract) {
  contracts_[std::move(name)] = std::move(contract);
}

const Contract* Registry::Lookup(const std::string& name) const {
  auto it = contracts_.find(name);
  return it == contracts_.end() ? nullptr : it->second.get();
}

ContractTask Registry::Start(const txn::Transaction& tx,
                             ContractContext& ctx) const {
  const Contract* c = Lookup(tx.contract);
  if (c == nullptr) {
    return Fail(Status::NotFound("unknown contract: " + tx.contract));
  }
  return c->Execute(tx, ctx);
}

std::shared_ptr<Registry> Registry::CreateDefault() {
  auto registry = std::make_shared<Registry>();
  RegisterSmallBank(*registry);
  RegisterTbvmSmallBank(*registry);
  RegisterKv(*registry);
  RegisterTpccLite(*registry);
  return registry;
}

}  // namespace thunderbolt::contract
