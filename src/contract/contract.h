// Smart-contract runtime interfaces.
//
// Contracts interact with state exclusively through a ContractContext that
// serves <Read, K> and <Write, K, V> operations (paper section 3.1). The
// same contract code runs unchanged under every execution engine in this
// repository — the CE's concurrency controller, the OCC and 2PL baselines,
// serial post-consensus execution, and validation re-execution — each of
// which supplies its own ContractContext implementation. This is precisely
// why read/write sets cannot be known before execution: contract control
// flow may branch on values read at runtime.
//
// A contract is a C++20 coroutine returning ContractTask, and it performs
// each operation with co_await:
//
//   const Key key = txn::CheckingKey(tx.accounts[0]);
//   Value balance = co_await ctx.Read(key);
//   co_await ctx.Write(key, balance + 1);
//   co_return Status::OK();
//
// The operation happens inside the co_await, and the contract suspends
// right after it. Then:
//   - If it failed (the engine aborted the attempt, or validation found a
//     read that does not match the declared one), the contract is never
//     resumed; the attempt ends with the operation's status. Contracts
//     therefore never check an operation's status.
//   - If it succeeded, the run's owner resumes the contract: the sim
//     executor pool at the slot's next step, so it interleaves transactions
//     one engine operation at a time while running each contract body once
//     per attempt; every other caller at once (ContractTask::Run), so the
//     body runs straight through.
// A contract ends with co_return: Status::OK(), or its own error (missing
// arguments, a TBVM fault), which no operation caused.
#ifndef THUNDERBOLT_CONTRACT_CONTRACT_H_
#define THUNDERBOLT_CONTRACT_CONTRACT_H_

#include <coroutine>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "txn/transaction.h"

namespace thunderbolt::contract {

using storage::Key;
using storage::Value;

/// One run of a contract: the coroutine Contract::Execute returns, not yet
/// started. Its owner drives it with Resume (one step at a time) or Run (to
/// the end); destroying the task destroys the frame, which is allowed only
/// while the body is suspended, never from inside it.
class [[nodiscard]] ContractTask {
 public:
  struct promise_type {
    /// The body's co_return, or the status of the operation that failed.
    Status status;

    ContractTask get_return_object() noexcept {
      return ContractTask(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(Status s) noexcept { status = std::move(s); }
    void unhandled_exception() { throw; }
  };

  ContractTask() = default;
  ContractTask(ContractTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  /// Swaps, so the frame this task held dies with `other`.
  ContractTask& operator=(ContractTask&& other) noexcept {
    std::swap(handle_, other.handle_);
    return *this;
  }
  ~ContractTask() {
    if (handle_) handle_.destroy();
  }

  /// Runs the body to its next suspension: just after an operation, or at
  /// its end. Returns true once the run has ended: the body returned, or
  /// an operation failed.
  bool Resume() {
    handle_.resume();
    return handle_.done() || !handle_.promise().status.ok();
  }

  /// Whether the body has returned. After a Resume that did not, the body
  /// made exactly one operation (which may have failed).
  bool done() const { return handle_.done(); }

  /// The outcome once Resume returned true.
  const Status& status() const { return handle_.promise().status; }

  /// Resumes until the run ends and moves its outcome out.
  Status Run() {
    while (!Resume()) {
    }
    return std::move(handle_.promise().status);
  }

 private:
  using Handle = std::coroutine_handle<promise_type>;
  explicit ContractTask(Handle handle) : handle_(handle) {}

  Handle handle_;
};

/// The interface contract code uses to access state. Implementations
/// supply the operations themselves (DoRead, DoWrite); contracts reach them
/// only through `co_await Read(...)` and `co_await Write(...)`.
class ContractContext {
 public:
  virtual ~ContractContext() = default;
  // A run holds its context by reference, so a context never moves.
  ContractContext(const ContractContext&) = delete;
  ContractContext& operator=(const ContractContext&) = delete;

  /// What `co_await ctx.Read(key)` and `co_await ctx.Write(key, value)`
  /// wait on. The run suspends, then the operation happens; a failed one
  /// stores its status in the run, which ends it.
  class [[nodiscard]] Op {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<ContractTask::promise_type> h) {
      if (!is_write_) {
        result_ = ctx_->DoRead(*key_);
      } else if (Status s = ctx_->DoWrite(*key_, *result_); !s.ok()) {
        result_ = std::move(s);
      }
      if (!result_.ok()) h.promise().status = result_.status();
    }
    /// The value read (0 for absent keys, matching fresh SmallBank
    /// accounts), or the value written.
    Value await_resume() const { return *result_; }

   private:
    friend class ContractContext;
    Op(ContractContext* ctx, const Key* key, bool is_write, Value value)
        : ctx_(ctx), key_(key), is_write_(is_write), result_(value) {}

    ContractContext* ctx_;
    const Key* key_;
    bool is_write_;
    Result<Value> result_;  // The value to write, until the operation.
  };

  Op Read(const Key& key) { return Op(this, &key, false, 0); }
  Op Write(const Key& key, Value value) {
    return Op(this, &key, true, value);
  }

  /// Records a return value for the client (e.g. GetBalance's result).
  virtual void EmitResult(Value value) { (void)value; }

 protected:
  ContractContext() = default;

  virtual Result<Value> DoRead(const Key& key) = 0;
  virtual Status DoWrite(const Key& key, Value value) = 0;
};

/// A deterministic, idempotent contract function.
class Contract {
 public:
  virtual ~Contract() = default;

  /// Returns the run of the function for `tx` against `ctx`, not yet
  /// started (a coroutine; see the file comment). Must be deterministic
  /// given the values the reads return. The contract, `tx` and `ctx` must
  /// outlive the task.
  virtual ContractTask Execute(const txn::Transaction& tx,
                               ContractContext& ctx) const = 0;
};

/// InvalidArgument unless `tx` carries at least `accounts` accounts and
/// `params` params (the argument check every native contract starts with).
Status RequireArgs(const txn::Transaction& tx, size_t accounts,
                   size_t params);

/// Name -> contract lookup shared by all replicas. Registration happens at
/// startup; lookup is read-only afterwards.
class Registry {
 public:
  /// Registers `contract` under `name`. Overwrites any existing entry.
  void Register(std::string name, std::unique_ptr<Contract> contract);

  /// Returns the contract or nullptr.
  const Contract* Lookup(const std::string& name) const;

  /// Starts the transaction's contract against `ctx`: the body runs at the
  /// task's first Resume. An unknown contract name gives a task that ends
  /// with NotFound.
  ContractTask Start(const txn::Transaction& tx, ContractContext& ctx) const;

  /// Runs the transaction's contract against `ctx` to its end. Returns
  /// NotFound for unknown contract names.
  Status Execute(const txn::Transaction& tx, ContractContext& ctx) const {
    return Start(tx, ctx).Run();
  }

  /// A registry preloaded with the SmallBank suite and TBVM runner.
  static std::shared_ptr<Registry> CreateDefault();

 private:
  std::map<std::string, std::unique_ptr<Contract>> contracts_;
};

}  // namespace thunderbolt::contract

#endif  // THUNDERBOLT_CONTRACT_CONTRACT_H_
