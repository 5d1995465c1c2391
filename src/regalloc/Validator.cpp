//===- regalloc/Validator.cpp -------------------------------------------------==//

#include "regalloc/Validator.h"

#include "support/Format.h"

#include <cassert>

using namespace ucc;

namespace {

/// Lattice values for "which vreg does this physical register hold".
constexpr int Empty = -1;    ///< nothing known to be here
constexpr int Conflict = -2; ///< different values on different paths
constexpr int Opaque = -3;   ///< written by untracked (physical-only) code

using RegState = std::vector<int>; // size NumPhysRegs

int meet(int A, int B) {
  // Correct code defines a value on every path before using it, so even
  // Empty-vs-held disagreements collapse to Conflict: if the register is
  // later read expecting the held value, some path never wrote it.
  return A == B ? A : Conflict;
}

std::string describeHolding(int Holding) {
  if (Holding >= 0)
    return format("v%d", Holding - FirstVReg);
  if (Holding == Conflict)
    return "conflicting values";
  if (Holding == Opaque)
    return "untracked data";
  return "nothing";
}

/// Walks one block from \p State. When \p Problems is non-null, mis-held
/// uses are reported; the state is updated in place either way.
void walkBlock(const MachineFunction &MF, const MBlock &BB, RegState &State,
               std::vector<std::string> *Problems) {
  RegList Uses, Defs;
  for (const MInstr &I : BB.Instrs) {
    minstrUses(I, Uses);
    auto slotUsed = [&](int Reg) { return Uses.contains(Reg); };
    auto checkUse = [&](int Reg, int Vreg) {
      if (!Problems || Reg < 0)
        return;
      if (!isPhysReg(Reg)) {
        Problems->push_back(format("@%s: v%d was never given a register",
                                   MF.Name.c_str(), Reg - FirstVReg));
        return;
      }
      if (Vreg < 0)
        return;
      int Holding = State[static_cast<size_t>(Reg)];
      if (Holding != Vreg)
        Problems->push_back(format(
            "@%s: use of r%d expects v%d but it holds %s", MF.Name.c_str(),
            Reg, Vreg - FirstVReg, describeHolding(Holding).c_str()));
    };
    if (I.A >= 0 && slotUsed(I.A))
      checkUse(I.A, I.VA);
    if (I.B >= 0 && slotUsed(I.B))
      checkUse(I.B, I.VB);
    if (I.C >= 0 && slotUsed(I.C))
      checkUse(I.C, I.VC);

    // Apply defs.
    if (mopIsCall(I.Op)) {
      for (int R = 0; R < NumPhysRegs; ++R)
        State[static_cast<size_t>(R)] = Opaque;
      continue;
    }
    minstrDefs(I, Defs);
    for (int D : Defs)
      if (isPhysReg(D)) // slot A is the only register-def slot
        State[static_cast<size_t>(D)] = I.VA >= 0 ? I.VA : Opaque;
      else if (Problems)
        Problems->push_back(format("@%s: v%d was never given a register",
                                   MF.Name.c_str(), D - FirstVReg));
  }
}

} // namespace

std::vector<std::string> ucc::validateAllocation(const MachineFunction &MF) {
  std::vector<std::string> Problems;
  size_t NumBlocks = MF.Blocks.size();
  if (NumBlocks == 0)
    return Problems;

  std::vector<RegState> BlockIn(NumBlocks, RegState(NumPhysRegs, Empty));
  std::vector<bool> Reached(NumBlocks, false);
  Reached[0] = true;

  // Fixpoint over the CFG; states only move down the (finite) lattice.
  bool Changed = true;
  int Guard = 0;
  while (Changed && ++Guard < 10000) {
    Changed = false;
    for (size_t B = 0; B < NumBlocks; ++B) {
      if (!Reached[B])
        continue;
      RegState State = BlockIn[B];
      walkBlock(MF, MF.Blocks[B], State, /*Problems=*/nullptr);

      for (int S : MF.Blocks[B].Succs) {
        size_t SI = static_cast<size_t>(S);
        if (!Reached[SI]) {
          Reached[SI] = true;
          BlockIn[SI] = State;
          Changed = true;
          continue;
        }
        for (int R = 0; R < NumPhysRegs; ++R) {
          int M = meet(BlockIn[SI][static_cast<size_t>(R)],
                       State[static_cast<size_t>(R)]);
          if (M != BlockIn[SI][static_cast<size_t>(R)]) {
            BlockIn[SI][static_cast<size_t>(R)] = M;
            Changed = true;
          }
        }
      }
    }
  }
  assert(Guard < 10000 && "validator fixpoint failed to converge");

  // Report uses against the final fixpoint states.
  for (size_t B = 0; B < NumBlocks; ++B) {
    if (!Reached[B])
      continue;
    RegState State = BlockIn[B];
    walkBlock(MF, MF.Blocks[B], State, &Problems);
  }
  return Problems;
}
