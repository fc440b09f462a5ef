#include "contract/smallbank.h"

#include <memory>

#include "txn/transaction.h"

namespace thunderbolt::contract {

namespace {

using txn::CheckingKey;
using txn::SavingsKey;
using txn::Transaction;

/// GetBalance: returns checking + savings. Read-only.
class GetBalanceContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 1, 0); !s.ok()) co_return s;
    const Key checking_key = CheckingKey(tx.accounts[0]);
    const Key savings_key = SavingsKey(tx.accounts[0]);
    const Value checking = co_await ctx.Read(checking_key);
    const Value savings = co_await ctx.Read(savings_key);
    ctx.EmitResult(checking + savings);
    co_return Status::OK();
  }
};

/// DepositChecking: checking += amount.
class DepositCheckingContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 1, 1); !s.ok()) co_return s;
    const Key key = CheckingKey(tx.accounts[0]);
    const Value checking = co_await ctx.Read(key);
    co_await ctx.Write(key, checking + tx.params[0]);
    ctx.EmitResult(checking + tx.params[0]);
    co_return Status::OK();
  }
};

/// TransactSavings: savings += amount, but only when the result stays
/// non-negative (dynamic write set: no write on the failure path).
class TransactSavingsContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 1, 1); !s.ok()) co_return s;
    const Key key = SavingsKey(tx.accounts[0]);
    const Value savings = co_await ctx.Read(key);
    const Value updated = savings + tx.params[0];
    if (updated < 0) {
      ctx.EmitResult(0);  // Declined; balance untouched.
      co_return Status::OK();
    }
    co_await ctx.Write(key, updated);
    ctx.EmitResult(1);
    co_return Status::OK();
  }
};

/// WriteCheck: debit `amount` from checking; overdrafts incur a $1 penalty.
class WriteCheckContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 1, 1); !s.ok()) co_return s;
    const Key checking_key = CheckingKey(tx.accounts[0]);
    const Key savings_key = SavingsKey(tx.accounts[0]);
    const Value checking = co_await ctx.Read(checking_key);
    const Value savings = co_await ctx.Read(savings_key);
    const Value amount = tx.params[0];
    const Value debit = (checking + savings < amount) ? amount + 1 : amount;
    co_await ctx.Write(checking_key, checking - debit);
    ctx.EmitResult(checking - debit);
    co_return Status::OK();
  }
};

/// SendPayment: move `amount` from a's checking to b's checking when funds
/// suffice; otherwise decline without writing (dynamic write set).
class SendPaymentContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 2, 1); !s.ok()) co_return s;
    const Key src = CheckingKey(tx.accounts[0]);
    const Key dst = CheckingKey(tx.accounts[1]);
    const Value amount = tx.params[0];
    const Value src_balance = co_await ctx.Read(src);
    if (src_balance < amount) {
      ctx.EmitResult(0);  // Declined.
      co_return Status::OK();
    }
    const Value dst_balance = co_await ctx.Read(dst);
    co_await ctx.Write(src, src_balance - amount);
    co_await ctx.Write(dst, dst_balance + amount);
    ctx.EmitResult(1);
    co_return Status::OK();
  }
};

/// Amalgamate: move all of a's funds into b's checking.
class AmalgamateContract final : public Contract {
 public:
  ContractTask Execute(const Transaction& tx,
                       ContractContext& ctx) const override {
    if (Status s = RequireArgs(tx, 2, 0); !s.ok()) co_return s;
    const Key a_checking = CheckingKey(tx.accounts[0]);
    const Key a_savings = SavingsKey(tx.accounts[0]);
    const Key b_checking = CheckingKey(tx.accounts[1]);
    const Value ac = co_await ctx.Read(a_checking);
    const Value as = co_await ctx.Read(a_savings);
    const Value bc = co_await ctx.Read(b_checking);
    co_await ctx.Write(a_checking, 0);
    co_await ctx.Write(a_savings, 0);
    co_await ctx.Write(b_checking, bc + ac + as);
    ctx.EmitResult(bc + ac + as);
    co_return Status::OK();
  }
};

}  // namespace

void RegisterSmallBank(Registry& registry) {
  registry.Register(kGetBalance, std::make_unique<GetBalanceContract>());
  registry.Register(kDepositChecking,
                    std::make_unique<DepositCheckingContract>());
  registry.Register(kTransactSavings,
                    std::make_unique<TransactSavingsContract>());
  registry.Register(kWriteCheck, std::make_unique<WriteCheckContract>());
  registry.Register(kSendPayment, std::make_unique<SendPaymentContract>());
  registry.Register(kAmalgamate, std::make_unique<AmalgamateContract>());
}

}  // namespace thunderbolt::contract
