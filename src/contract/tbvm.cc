#include "contract/tbvm.h"

#include <memory>

namespace thunderbolt::contract {

namespace {
constexpr int kNumValueRegs = 16;
constexpr int kNumKeyRegs = 8;
}  // namespace

ContractTask RunTbProgram(const TbProgram& program,
                          const txn::Transaction& tx, ContractContext& ctx) {
  int64_t r[kNumValueRegs] = {0};
  std::string k[kNumKeyRegs];

  const auto& code = program.code;
  uint64_t steps = 0;
  size_t pc = 0;

  auto bad = [](const char* what) {
    return Status::InvalidArgument(std::string("tbvm: ") + what);
  };

  while (pc < code.size()) {
    if (++steps > program.step_budget) {
      co_return Status::OutOfRange("tbvm: step budget exhausted");
    }
    const TbInstr& in = code[pc];
    if (in.a >= kNumValueRegs && in.op != TbOp::kMakeKey &&
        in.op != TbOp::kMakeKeyReg && in.op != TbOp::kWrite) {
      co_return bad("register index out of range");
    }
    switch (in.op) {
      case TbOp::kLoadImm:
        r[in.a] = in.imm;
        ++pc;
        break;
      case TbOp::kLoadParam: {
        size_t idx = static_cast<size_t>(in.imm);
        if (idx >= tx.params.size()) co_return bad("param index out of range");
        r[in.a] = tx.params[idx];
        ++pc;
        break;
      }
      case TbOp::kMov:
        r[in.a] = r[in.b];
        ++pc;
        break;
      case TbOp::kAdd:
        r[in.a] = r[in.b] + r[in.c];
        ++pc;
        break;
      case TbOp::kSub:
        r[in.a] = r[in.b] - r[in.c];
        ++pc;
        break;
      case TbOp::kMul:
        r[in.a] = r[in.b] * r[in.c];
        ++pc;
        break;
      case TbOp::kDiv:
        if (r[in.c] == 0) co_return bad("division by zero");
        r[in.a] = r[in.b] / r[in.c];
        ++pc;
        break;
      case TbOp::kMakeKey: {
        if (in.a >= kNumKeyRegs) co_return bad("key register out of range");
        if (in.b >= tx.accounts.size()) co_return bad("account index");
        if (in.c >= program.suffixes.size()) co_return bad("suffix index");
        k[in.a] = tx.accounts[in.b] + "/" + program.suffixes[in.c];
        ++pc;
        break;
      }
      case TbOp::kMakeKeyReg: {
        if (in.a >= kNumKeyRegs) co_return bad("key register out of range");
        if (in.b >= kNumValueRegs) co_return bad("register index");
        if (tx.accounts.empty()) co_return bad("no accounts");
        if (in.c >= program.suffixes.size()) co_return bad("suffix index");
        size_t acct = static_cast<size_t>(
            static_cast<uint64_t>(r[in.b]) % tx.accounts.size());
        k[in.a] = tx.accounts[acct] + "/" + program.suffixes[in.c];
        ++pc;
        break;
      }
      case TbOp::kRead: {
        if (in.b >= kNumKeyRegs || k[in.b].empty()) {
          co_return bad("read from unset key register");
        }
        r[in.a] = co_await ctx.Read(k[in.b]);
        ++pc;
        break;
      }
      case TbOp::kWrite: {
        if (in.a >= kNumKeyRegs || k[in.a].empty()) {
          co_return bad("write to unset key register");
        }
        if (in.b >= kNumValueRegs) co_return bad("register index");
        co_await ctx.Write(k[in.a], r[in.b]);
        ++pc;
        break;
      }
      case TbOp::kJmp: {
        size_t target = static_cast<size_t>(in.imm);
        if (target > code.size()) co_return bad("jump target out of range");
        pc = target;
        break;
      }
      case TbOp::kJz: {
        size_t target = static_cast<size_t>(in.imm);
        if (target > code.size()) co_return bad("jump target out of range");
        pc = (r[in.a] == 0) ? target : pc + 1;
        break;
      }
      case TbOp::kJlt: {
        size_t target = static_cast<size_t>(in.imm);
        if (target > code.size()) co_return bad("jump target out of range");
        pc = (r[in.a] < r[in.b]) ? target : pc + 1;
        break;
      }
      case TbOp::kEmit:
        ctx.EmitResult(r[in.a]);
        ++pc;
        break;
      case TbOp::kHalt:
        co_return Status::OK();
      case TbOp::kFail:
        co_return Status::InvalidArgument("tbvm: contract declared failure");
    }
  }
  co_return Status::OK();  // Fell off the end: treated as halt.
}

namespace {

// --- SmallBank compiled to TBVM -------------------------------------------
// Register conventions used by the assembler below:
//   r0..r5 scratch, k0..k2 keys. Suffix table: 0="checking", 1="savings".

TbProgram AssembleGetBalance() {
  TbProgram p;
  p.suffixes = {"checking", "savings"};
  p.code = {
      {TbOp::kMakeKey, 0, 0, 0},   // k0 = a/checking
      {TbOp::kMakeKey, 1, 0, 1},   // k1 = a/savings
      {TbOp::kRead, 0, 0, 0},      // r0 = [k0]
      {TbOp::kRead, 1, 1, 0},      // r1 = [k1]
      {TbOp::kAdd, 2, 0, 1},       // r2 = r0 + r1
      {TbOp::kEmit, 2, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  return p;
}

TbProgram AssembleDepositChecking() {
  TbProgram p;
  p.suffixes = {"checking"};
  p.code = {
      {TbOp::kMakeKey, 0, 0, 0},         // k0 = a/checking
      {TbOp::kLoadParam, 0, 0, 0, 0},    // r0 = amount
      {TbOp::kRead, 1, 0, 0},            // r1 = [k0]
      {TbOp::kAdd, 2, 1, 0},             // r2 = r1 + r0
      {TbOp::kWrite, 0, 2, 0},           // [k0] = r2
      {TbOp::kEmit, 2, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  return p;
}

TbProgram AssembleTransactSavings() {
  TbProgram p;
  p.suffixes = {"savings"};
  // if (savings + amount < 0) { emit 0; halt } else write; emit 1
  p.code = {
      {TbOp::kMakeKey, 0, 0, 0},        // k0 = a/savings
      {TbOp::kLoadParam, 0, 0, 0, 0},   // r0 = amount
      {TbOp::kRead, 1, 0, 0},           // r1 = [k0]
      {TbOp::kAdd, 2, 1, 0},            // r2 = r1 + r0
      {TbOp::kLoadImm, 3, 0, 0, 0},     // r3 = 0
      {TbOp::kJlt, 2, 3, 0, 9},         // if r2 < 0 goto 9
      {TbOp::kWrite, 0, 2, 0},          // [k0] = r2
      {TbOp::kLoadImm, 4, 0, 0, 1},     // r4 = 1
      {TbOp::kJmp, 0, 0, 0, 10},
      {TbOp::kLoadImm, 4, 0, 0, 0},     // r4 = 0 (declined)
      {TbOp::kEmit, 4, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  return p;
}

TbProgram AssembleWriteCheck() {
  TbProgram p;
  p.suffixes = {"checking", "savings"};
  // total = checking + savings; debit = total < amount ? amount+1 : amount;
  // checking -= debit
  p.code = {
      {TbOp::kMakeKey, 0, 0, 0},        // k0 = a/checking
      {TbOp::kMakeKey, 1, 0, 1},        // k1 = a/savings
      {TbOp::kLoadParam, 0, 0, 0, 0},   // r0 = amount
      {TbOp::kRead, 1, 0, 0},           // r1 = checking
      {TbOp::kRead, 2, 1, 0},           // r2 = savings
      {TbOp::kAdd, 3, 1, 2},            // r3 = total
      {TbOp::kMov, 4, 0, 0},            // r4 = debit = amount
      {TbOp::kJlt, 3, 0, 0, 9},         // if total < amount goto 9
      {TbOp::kJmp, 0, 0, 0, 11},
      {TbOp::kLoadImm, 5, 0, 0, 1},     // r5 = 1
      {TbOp::kAdd, 4, 0, 5},            // r4 = amount + 1
      {TbOp::kSub, 6, 1, 4},            // r6 = checking - debit
      {TbOp::kWrite, 0, 6, 0},          // [k0] = r6
      {TbOp::kEmit, 6, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  return p;
}

TbProgram AssembleSendPayment() {
  TbProgram p;
  p.suffixes = {"checking"};
  // if (src < amount) { emit 0; halt } else transfer; emit 1
  p.code = {
      {TbOp::kMakeKey, 0, 0, 0},        // k0 = a/checking
      {TbOp::kMakeKey, 1, 1, 0},        // k1 = b/checking
      {TbOp::kLoadParam, 0, 0, 0, 0},   // r0 = amount
      {TbOp::kRead, 1, 0, 0},           // r1 = src balance
      {TbOp::kJlt, 1, 0, 0, 12},        // if src < amount goto 12
      {TbOp::kRead, 2, 1, 0},           // r2 = dst balance
      {TbOp::kSub, 3, 1, 0},            // r3 = src - amount
      {TbOp::kAdd, 4, 2, 0},            // r4 = dst + amount
      {TbOp::kWrite, 0, 3, 0},          // [k0] = r3
      {TbOp::kWrite, 1, 4, 0},          // [k1] = r4
      {TbOp::kLoadImm, 5, 0, 0, 1},     // r5 = 1
      {TbOp::kJmp, 0, 0, 0, 13},
      {TbOp::kLoadImm, 5, 0, 0, 0},     // r5 = 0 (declined)
      {TbOp::kEmit, 5, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  return p;
}

TbProgram AssembleAmalgamate() {
  TbProgram p;
  p.suffixes = {"checking", "savings"};
  p.code = {
      {TbOp::kMakeKey, 0, 0, 0},   // k0 = a/checking
      {TbOp::kMakeKey, 1, 0, 1},   // k1 = a/savings
      {TbOp::kMakeKey, 2, 1, 0},   // k2 = b/checking
      {TbOp::kRead, 0, 0, 0},      // r0 = a checking
      {TbOp::kRead, 1, 1, 0},      // r1 = a savings
      {TbOp::kRead, 2, 2, 0},      // r2 = b checking
      {TbOp::kLoadImm, 3, 0, 0, 0},
      {TbOp::kWrite, 0, 3, 0},     // a/checking = 0
      {TbOp::kWrite, 1, 3, 0},     // a/savings = 0
      {TbOp::kAdd, 4, 0, 1},       // r4 = a total
      {TbOp::kAdd, 5, 2, 4},       // r5 = b + a total
      {TbOp::kWrite, 2, 5, 0},     // b/checking = r5
      {TbOp::kEmit, 5, 0, 0},
      {TbOp::kHalt, 0, 0, 0},
  };
  return p;
}

}  // namespace

std::string Disassemble(const TbInstr& in,
                        const std::vector<std::string>& suffixes) {
  auto reg = [](uint8_t r) { return "r" + std::to_string(r); };
  auto key = [](uint8_t k) { return "k" + std::to_string(k); };
  auto suffix = [&](uint8_t s) {
    return s < suffixes.size() ? "\"" + suffixes[s] + "\""
                               : "<suffix " + std::to_string(s) + ">";
  };
  switch (in.op) {
    case TbOp::kLoadImm:
      return "loadimm " + reg(in.a) + ", " + std::to_string(in.imm);
    case TbOp::kLoadParam:
      return "loadparam " + reg(in.a) + ", param[" + std::to_string(in.imm) +
             "]";
    case TbOp::kMov:
      return "mov " + reg(in.a) + ", " + reg(in.b);
    case TbOp::kAdd:
      return "add " + reg(in.a) + ", " + reg(in.b) + ", " + reg(in.c);
    case TbOp::kSub:
      return "sub " + reg(in.a) + ", " + reg(in.b) + ", " + reg(in.c);
    case TbOp::kMul:
      return "mul " + reg(in.a) + ", " + reg(in.b) + ", " + reg(in.c);
    case TbOp::kDiv:
      return "div " + reg(in.a) + ", " + reg(in.b) + ", " + reg(in.c);
    case TbOp::kMakeKey:
      return "makekey " + key(in.a) + ", account[" + std::to_string(in.b) +
             "], " + suffix(in.c);
    case TbOp::kMakeKeyReg:
      return "makekeyr " + key(in.a) + ", account[" + reg(in.b) + "], " +
             suffix(in.c);
    case TbOp::kRead:
      return "read " + reg(in.a) + ", [" + key(in.b) + "]";
    case TbOp::kWrite:
      return "write [" + key(in.a) + "], " + reg(in.b);
    case TbOp::kJmp:
      return "jmp " + std::to_string(in.imm);
    case TbOp::kJz:
      return "jz " + reg(in.a) + ", " + std::to_string(in.imm);
    case TbOp::kJlt:
      return "jlt " + reg(in.a) + ", " + reg(in.b) + ", " +
             std::to_string(in.imm);
    case TbOp::kEmit:
      return "emit " + reg(in.a);
    case TbOp::kHalt:
      return "halt";
    case TbOp::kFail:
      return "fail";
  }
  return "<bad op>";
}

std::string Disassemble(const TbProgram& program) {
  std::string out;
  for (size_t pc = 0; pc < program.code.size(); ++pc) {
    out += std::to_string(pc) + ": " +
           Disassemble(program.code[pc], program.suffixes) + "\n";
  }
  return out;
}

void RegisterTbvmSmallBank(Registry& registry) {
  registry.Register("tbvm.get_balance",
                    std::make_unique<TbvmContract>(AssembleGetBalance()));
  registry.Register("tbvm.deposit_checking",
                    std::make_unique<TbvmContract>(AssembleDepositChecking()));
  registry.Register("tbvm.transact_savings",
                    std::make_unique<TbvmContract>(AssembleTransactSavings()));
  registry.Register("tbvm.write_check",
                    std::make_unique<TbvmContract>(AssembleWriteCheck()));
  registry.Register("tbvm.send_payment",
                    std::make_unique<TbvmContract>(AssembleSendPayment()));
  registry.Register("tbvm.amalgamate",
                    std::make_unique<TbvmContract>(AssembleAmalgamate()));
}

}  // namespace thunderbolt::contract
