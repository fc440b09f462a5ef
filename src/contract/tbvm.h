// TBVM: the Thunderbolt bytecode virtual machine.
//
// A small register-based VM standing in for the EVM. Programs are
// Turing-complete over the <Read, K> / <Write, K, V> data model:
// arithmetic, comparisons, conditional and unconditional jumps, and key
// construction from transaction account arguments. Crucially, which
// keys a program touches can depend on values it reads — read/write sets
// are only discoverable by executing, exactly the property Thunderbolt's
// CE is designed around.
//
// Machine model:
//   - 16 value registers r0..r15 (int64)
//   - 8 key registers k0..k7 (strings built by MakeKey)
//   - a string table of key suffixes baked into the program
//   - step budget to bound runaway programs (gas).
#ifndef THUNDERBOLT_CONTRACT_TBVM_H_
#define THUNDERBOLT_CONTRACT_TBVM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "contract/contract.h"

namespace thunderbolt::contract {

enum class TbOp : uint8_t {
  kLoadImm,    // r[a] = imm
  kLoadParam,  // r[a] = tx.params[imm]
  kMov,        // r[a] = r[b]
  kAdd,        // r[a] = r[b] + r[c]
  kSub,        // r[a] = r[b] - r[c]
  kMul,        // r[a] = r[b] * r[c]
  kDiv,        // r[a] = r[b] / r[c]  (division by zero -> abort)
  kMakeKey,    // k[a] = tx.accounts[b] + "/" + suffixes[c]
  kMakeKeyReg, // k[a] = tx.accounts[r[b] % accounts] + "/" + suffixes[c]
  kRead,       // r[a] = Read(k[b])
  kWrite,      // Write(k[a], r[b])
  kJmp,        // pc = imm
  kJz,         // if (r[a] == 0) pc = imm
  kJlt,        // if (r[a] < r[b]) pc = imm
  kEmit,       // EmitResult(r[a])
  kHalt,       // stop, success
  kFail,       // stop, InvalidArgument (contract-declared failure)
};

struct TbInstr {
  TbOp op;
  uint8_t a = 0;
  uint8_t b = 0;
  uint8_t c = 0;
  int64_t imm = 0;
};

/// A compiled TBVM program.
struct TbProgram {
  std::vector<TbInstr> code;
  std::vector<std::string> suffixes;  // Key suffix string table.
  uint64_t step_budget = 100000;      // Gas limit.
};

/// Executes `program` for `tx` against `ctx`. Returns the propagated
/// context status on aborts, InvalidArgument on kFail or malformed
/// programs, and OutOfRange when the step budget is exhausted.
Status RunTbProgram(const TbProgram& program, const txn::Transaction& tx,
                    ContractContext& ctx);

/// A Contract that runs a fixed TBVM program.
class TbvmContract final : public Contract {
 public:
  explicit TbvmContract(TbProgram program) : program_(std::move(program)) {}

  Status Execute(const txn::Transaction& tx,
                 ContractContext& ctx) const override {
    return RunTbProgram(program_, tx, ctx);
  }

  const TbProgram& program() const { return program_; }

 private:
  TbProgram program_;
};

/// SmallBank compiled to TBVM bytecode. Registered under
/// "tbvm.send_payment" / "tbvm.get_balance" etc. — behaviourally identical
/// to the native contracts in smallbank.h, used by tests to prove engine
/// equivalence and by the quickstart example.
void RegisterTbvmSmallBank(Registry& registry);

/// Human-readable disassembly of one instruction / a whole program
/// (debugging aid; stable format covered by tests).
std::string Disassemble(const TbInstr& instr,
                        const std::vector<std::string>& suffixes);
std::string Disassemble(const TbProgram& program);

}  // namespace thunderbolt::contract

#endif  // THUNDERBOLT_CONTRACT_TBVM_H_
