//===- ir/Verifier.cpp -----------------------------------------------------==//

#include "ir/Verifier.h"

#include "ir/IR.h"
#include "support/Format.h"

using namespace ucc;

namespace {

/// Expected value-operand count per opcode; -1 means variadic (Call) and -2
/// means "0 or 1" (Ret) / "1 or 2" (indexed memory ops handled specially).
struct OperandSpec {
  int MinSrcs;
  int MaxSrcs;
  bool NeedsDst;
};

OperandSpec specFor(const Instr &I) {
  switch (I.Op) {
  case Opcode::Const:
    return {0, 0, true};
  case Opcode::Mov:
    return {1, 1, true};
  case Opcode::Bin:
    return {2, 2, true};
  case Opcode::Un:
    return {1, 1, true};
  case Opcode::LoadG:
  case Opcode::LoadF:
    return {0, 1, true};
  case Opcode::StoreG:
  case Opcode::StoreF:
    return {1, 2, false};
  case Opcode::Call:
    return {0, 4, false}; // dst optional; at most 4 register args
  case Opcode::Br:
    return {0, 0, false};
  case Opcode::CondBr:
    return {2, 2, false};
  case Opcode::Ret:
    return {0, 1, false};
  case Opcode::In:
    return {0, 0, true};
  case Opcode::Out:
    return {1, 1, false};
  case Opcode::Halt:
    return {0, 0, false};
  }
  return {0, 0, false};
}

class VerifierImpl {
public:
  explicit VerifierImpl(const Module &M) : M(M) {}

  std::vector<std::string> run() {
    if (M.EntryFunc < -1 ||
        M.EntryFunc >= static_cast<int>(M.Functions.size()))
      problem("entry function index %d out of range", M.EntryFunc);
    for (size_t I = 0; I < M.Functions.size(); ++I)
      checkFunction(static_cast<int>(I));
    return std::move(Problems);
  }

  std::vector<std::string> runOn(size_t FnIdx) {
    checkFunction(static_cast<int>(FnIdx));
    return std::move(Problems);
  }

private:
  void problem(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args;
    va_start(Args, Fmt);
    std::string Msg = Context + formatv(Fmt, Args);
    va_end(Args);
    Problems.push_back(std::move(Msg));
  }

  void checkFunction(int FnIdx) {
    const Function &F = M.Functions[static_cast<size_t>(FnIdx)];
    Context = format("@%s: ", F.Name.c_str());
    if (F.Blocks.empty()) {
      problem("function has no blocks");
      return;
    }
    if (F.Params.size() > 4)
      problem("more than 4 parameters (%zu)", F.Params.size());
    for (VReg P : F.Params)
      checkVReg(F, P, "parameter");

    for (size_t B = 0; B < F.Blocks.size(); ++B) {
      const BasicBlock &BB = F.Blocks[B];
      Context = format("@%s/.%s: ", F.Name.c_str(), BB.Name.c_str());
      if (BB.Instrs.empty() || !BB.Instrs.back().isTerminator()) {
        problem("block does not end in a terminator");
        continue;
      }
      for (size_t K = 0; K < BB.Instrs.size(); ++K) {
        const Instr &I = BB.Instrs[K];
        if (I.isTerminator() && K + 1 != BB.Instrs.size())
          problem("terminator '%s' in the middle of a block", opcodeName(I.Op));
        checkInstr(F, I);
      }
    }
  }

  void checkVReg(const Function &F, VReg R, const char *What) {
    if (R < 0 || R >= F.NumVRegs)
      problem("%s vreg %d out of range [0, %d)", What, R, F.NumVRegs);
  }

  void checkBlockRef(const Function &F, int BB) {
    if (BB < 0 || BB >= static_cast<int>(F.Blocks.size()))
      problem("block reference %d out of range", BB);
  }

  void checkInstr(const Function &F, const Instr &I) {
    OperandSpec Spec = specFor(I);
    int NSrcs = static_cast<int>(I.Srcs.size());
    if (NSrcs < Spec.MinSrcs || NSrcs > Spec.MaxSrcs)
      problem("'%s' has %d operands, expected %d..%d", opcodeName(I.Op),
              NSrcs, Spec.MinSrcs, Spec.MaxSrcs);
    if (Spec.NeedsDst && !I.hasDst())
      problem("'%s' requires a destination", opcodeName(I.Op));
    if (I.hasDst())
      checkVReg(F, I.Dst, "destination");
    for (VReg S : I.Srcs)
      checkVReg(F, S, "source");

    switch (I.Op) {
    case Opcode::LoadG:
    case Opcode::StoreG:
      if (I.Global < 0 || I.Global >= static_cast<int>(M.Globals.size()))
        problem("global index %d out of range", I.Global);
      break;
    case Opcode::LoadF:
    case Opcode::StoreF:
      if (I.Slot < 0 || I.Slot >= static_cast<int>(F.FrameObjects.size()))
        problem("frame slot %d out of range", I.Slot);
      break;
    case Opcode::Call: {
      if (I.Callee < 0 || I.Callee >= static_cast<int>(M.Functions.size())) {
        problem("callee index %d out of range", I.Callee);
        break;
      }
      const Function &Callee = M.Functions[static_cast<size_t>(I.Callee)];
      if (I.Srcs.size() != Callee.Params.size())
        problem("call to @%s passes %zu args, expected %zu",
                Callee.Name.c_str(), I.Srcs.size(), Callee.Params.size());
      break;
    }
    case Opcode::Br:
      checkBlockRef(F, I.TrueBB);
      break;
    case Opcode::CondBr:
      checkBlockRef(F, I.TrueBB);
      checkBlockRef(F, I.FalseBB);
      break;
    default:
      break;
    }
  }

  const Module &M;
  std::string Context;
  std::vector<std::string> Problems;
};

} // namespace

std::vector<std::string> ucc::verifyModule(const Module &M) {
  return VerifierImpl(M).run();
}

std::vector<std::string> ucc::verifyFunction(const Module &M, size_t FnIdx) {
  return VerifierImpl(M).runOn(FnIdx);
}

bool ucc::moduleIsValid(const Module &M) { return verifyModule(M).empty(); }
