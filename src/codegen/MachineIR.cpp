//===- codegen/MachineIR.cpp --------------------------------------------------==//

#include "codegen/MachineIR.h"

#include "support/Format.h"

using namespace ucc;

namespace {

/// Operand roles per opcode: which of A/B/C are written and read.
struct Roles {
  bool DefA = false;
  bool UseA = false;
  bool UseB = false;
  bool UseC = false;
};

Roles rolesFor(MOp Op) {
  switch (Op) {
  case MOp::LDI:
  case MOp::IN:
  case MOp::LDG:
  case MOp::LDF:
    return {/*DefA=*/true, false, false, false};
  case MOp::MOV:
  case MOp::NEG:
  case MOp::NOTR:
  case MOp::LDGX:
  case MOp::LDFX:
    return {/*DefA=*/true, false, /*UseB=*/true, false};
  case MOp::ADD:
  case MOp::SUB:
  case MOp::MUL:
  case MOp::DIV:
  case MOp::REM:
  case MOp::AND:
  case MOp::OR:
  case MOp::XOR:
  case MOp::SHL:
  case MOp::SHR:
    return {/*DefA=*/true, false, /*UseB=*/true, /*UseC=*/true};
  case MOp::CMP:
  case MOp::STGX:
  case MOp::STFX:
    return {false, /*UseA=*/true, /*UseB=*/true, false};
  case MOp::STG:
  case MOp::STF:
  case MOp::OUT:
    return {false, /*UseA=*/true, false, false};
  default:
    return {};
  }
}

} // namespace

void ucc::minstrDefs(const MInstr &I, RegList &Out) {
  Out.clear();
  if (rolesFor(I.Op).DefA && I.A >= 0)
    Out.push_back(I.A);
  if (mopIsCall(I.Op))
    for (int R = 0; R < NumPhysRegs; ++R)
      Out.push_back(R);
}

void ucc::minstrUses(const MInstr &I, RegList &Out) {
  Out.clear();
  Roles R = rolesFor(I.Op);
  if (R.UseA && I.A >= 0)
    Out.push_back(I.A);
  if (R.UseB && I.B >= 0)
    Out.push_back(I.B);
  if (R.UseC && I.C >= 0)
    Out.push_back(I.C);
  if (I.Op == MOp::RET)
    Out.push_back(RetReg);
  if (mopIsCall(I.Op))
    for (int K = 0; K < NumArgRegs; ++K)
      Out.push_back(K);
}

std::vector<int> ucc::minstrDefs(const MInstr &I) {
  RegList L;
  minstrDefs(I, L);
  return std::vector<int>(L.begin(), L.end());
}

std::vector<int> ucc::minstrUses(const MInstr &I) {
  RegList L;
  minstrUses(I, L);
  return std::vector<int>(L.begin(), L.end());
}

int MachineFunction::makeFrameObject(const std::string &Name, int SizeWords,
                                     bool IsSpill) {
  std::string Unique = Name;
  int Suffix = 2;
  auto taken = [&](const std::string &Candidate) {
    for (const MFrameObject &FO : FrameObjects)
      if (FO.Name == Candidate)
        return true;
    return false;
  };
  while (taken(Unique))
    Unique = Name + "." + std::to_string(Suffix++);
  FrameObjects.push_back(MFrameObject{Unique, SizeWords, IsSpill});
  return static_cast<int>(FrameObjects.size()) - 1;
}

int MachineFunction::instrCount() const {
  int N = 0;
  for (const MBlock &BB : Blocks)
    N += static_cast<int>(BB.Instrs.size());
  return N;
}

void MachineFunction::finish() {
  Name.shrink_to_fit();
  for (MBlock &BB : Blocks) {
    BB.Name.shrink_to_fit();
    BB.Instrs.shrink_to_fit();
    BB.Succs.shrink_to_fit();
  }
  Blocks.shrink_to_fit();
  for (MFrameObject &FO : FrameObjects)
    FO.Name.shrink_to_fit();
  FrameObjects.shrink_to_fit();
  std::vector<std::string>().swap(VRegNames);
}

FlowGraph ucc::buildMachineFlowGraph(const MachineFunction &F) {
  FlowGraph G;
  G.NumValues = F.NextVReg;
  G.Blocks.reserve(F.Blocks.size());
  for (const MBlock &BB : F.Blocks) {
    FlowBlock FB;
    FB.Succs = BB.Succs;
    FB.Instrs.reserve(BB.Instrs.size());
    for (const MInstr &I : BB.Instrs)
      FB.Instrs.push_back(DefUse{minstrDefs(I), minstrUses(I)});
    G.Blocks.push_back(std::move(FB));
  }
  return G;
}

std::vector<LinearInstrRef> ucc::linearize(const MachineFunction &F) {
  std::vector<LinearInstrRef> Order;
  Order.reserve(static_cast<size_t>(F.instrCount()));
  for (size_t B = 0; B < F.Blocks.size(); ++B)
    for (size_t K = 0; K < F.Blocks[B].Instrs.size(); ++K)
      Order.push_back(LinearInstrRef{static_cast<int>(B),
                                     static_cast<int>(K)});
  return Order;
}

namespace {

std::string regStr(int Reg) {
  if (Reg < 0)
    return "-";
  if (isPhysReg(Reg))
    return format("r%d", Reg);
  return format("v%d", Reg - FirstVReg);
}

} // namespace

std::string MachineFunction::print() const {
  std::string Out = format("mfunc @%s {\n", Name.c_str());
  for (const MFrameObject &FO : FrameObjects)
    Out += format("  frame %s[%d]%s\n", FO.Name.c_str(), FO.SizeWords,
                  FO.IsSpill ? " (spill)" : "");
  for (size_t B = 0; B < Blocks.size(); ++B) {
    const MBlock &BB = Blocks[B];
    Out += format(".%s:\n", BB.Name.c_str());
    for (const MInstr &I : BB.Instrs) {
      std::string Line = format("  %-6s", mopName(I.Op));
      auto addReg = [&](int R) {
        if (R >= 0) {
          Line += ' ';
          Line += regStr(R);
        }
      };
      addReg(I.A);
      addReg(I.B);
      addReg(I.C);
      if (I.Op == MOp::LDI || I.Op == MOp::IN || I.Op == MOp::OUT ||
          I.Op == MOp::ENTER)
        Line += format(" #%d", I.Imm);
      if (I.Target >= 0)
        Line += format(" ->bb%d", I.Target);
      if (I.Callee >= 0)
        Line += format(" fn%d", I.Callee);
      if (I.GlobalIdx >= 0)
        Line += format(" @g%d", I.GlobalIdx);
      if (I.FrameIdx >= 0)
        Line += format(" $f%d", I.FrameIdx);
      Out += Line + "\n";
    }
  }
  Out += "}\n";
  return Out;
}
