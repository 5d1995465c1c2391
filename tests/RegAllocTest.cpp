//===- tests/RegAllocTest.cpp - allocator-layer unit tests ----------------===//

#include "codegen/ISel.h"
#include "frontend/IRGen.h"
#include "opt/Passes.h"
#include "regalloc/LinearScan.h"
#include "regalloc/LiveIntervals.h"
#include "regalloc/UccAlloc.h"
#include "regalloc/Validator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

MachineModule machineFor(const std::string &Source) {
  DiagnosticEngine Diag;
  Module M = compileToIR(Source, Diag);
  EXPECT_FALSE(Diag.hasErrors()) << Diag.str();
  optimizeModule(M);
  return selectModule(M);
}

TEST(LiveIntervalsTest, SimpleStraightLine) {
  // Use port reads so the optimizer cannot fold the chain away.
  MachineModule MM = machineFor(R"(
    void main() {
      int a = __in(4);
      int b = a + 2;
      __out(15, a);
      __out(15, b);
      __halt();
    }
  )");
  IntervalAnalysis IA = analyzeIntervals(MM.Functions[0]);
  EXPECT_EQ(IA.NumPositions, MM.Functions[0].instrCount());
  int Valid = 0;
  for (const LiveInterval &IV : IA.VRegIntervals)
    if (IV.valid()) {
      ++Valid;
      EXPECT_LE(IV.Start, IV.End);
      EXPECT_LT(IV.End, IA.NumPositions);
    }
  EXPECT_GE(Valid, 2); // at least a and b
}

TEST(LiveIntervalsTest, PhysRegsBusyAroundCalls) {
  MachineModule MM = machineFor(R"(
    int id(int x) { return x; }
    void main() { __out(15, id(4)); __halt(); }
  )");
  const MachineFunction &Main =
      MM.Functions[MM.Functions.size() - 1].Name == "main"
          ? MM.Functions.back()
          : MM.Functions.front();
  IntervalAnalysis IA = analyzeIntervals(Main);
  // r0 is busy somewhere (argument staging / return value).
  EXPECT_TRUE(IA.physBusyInRange(0, 0, IA.NumPositions - 1));
}

TEST(MemoryHoming, NoVirtualRegisterLiveAcrossCallsAfterPass) {
  MachineModule MM = machineFor(R"(
    int id(int x) { return x; }
    void main() {
      int keep = 5;
      int r = id(3);
      __out(15, keep + r);
      __halt();
    }
  )");
  for (MachineFunction &MF : MM.Functions) {
    memoryHomeAcrossCalls(MF);
    IntervalAnalysis IA = analyzeIntervals(MF);
    int Pos = 0;
    for (const MBlock &BB : MF.Blocks) {
      for (const MInstr &I : BB.Instrs) {
        if (mopIsCall(I.Op)) {
          IA.LiveAfter[static_cast<size_t>(Pos)].forEach([&](size_t V) {
            EXPECT_FALSE(isVirtReg(static_cast<int>(V)))
                << "v" << (V - FirstVReg) << " live across call in @"
                << MF.Name;
          });
        }
        ++Pos;
      }
    }
  }
}

TEST(LinearScanTest, AllOperandsPhysicalAfterAllocation) {
  MachineModule MM = machineFor(workloadSource("CntToLedsAndRfm"));
  for (MachineFunction &MF : MM.Functions) {
    allocateLinearScan(MF);
    for (const MBlock &BB : MF.Blocks)
      for (const MInstr &I : BB.Instrs) {
        if (I.A >= 0) {
          EXPECT_TRUE(isPhysReg(I.A));
        }
        if (I.B >= 0) {
          EXPECT_TRUE(isPhysReg(I.B));
        }
        if (I.C >= 0) {
          EXPECT_TRUE(isPhysReg(I.C));
        }
      }
    auto Problems = validateAllocation(MF);
    EXPECT_TRUE(Problems.empty())
        << MF.Name << ": " << (Problems.empty() ? "" : Problems[0]);
  }
}

TEST(LinearScanTest, DeterministicAcrossRuns) {
  MachineModule A = machineFor(workloadSource("Blink"));
  MachineModule B = machineFor(workloadSource("Blink"));
  for (size_t F = 0; F < A.Functions.size(); ++F) {
    allocateLinearScan(A.Functions[F]);
    allocateLinearScan(B.Functions[F]);
    EXPECT_EQ(A.Functions[F].print(), B.Functions[F].print());
  }
}

TEST(ValidatorTest, CatchesWrongRegisterUse) {
  MachineFunction MF;
  MF.Name = "broken";
  MF.Blocks.resize(1);
  MF.Blocks[0].Name = "entry";
  int V0 = MF.makeVReg();
  int V1 = MF.makeVReg();

  MInstr Def0; // r0 <- ... (holds v0)
  Def0.Op = MOp::LDI;
  Def0.A = 0;
  Def0.VA = V0;
  Def0.Imm = 1;
  MInstr Def1; // r1 <- ... (holds v1)
  Def1.Op = MOp::LDI;
  Def1.A = 1;
  Def1.VA = V1;
  Def1.Imm = 2;
  MInstr Use; // claims to read v0 from r1 — wrong
  Use.Op = MOp::OUT;
  Use.A = 1;
  Use.VA = V0;
  Use.Imm = PortDebug;
  MInstr Halt;
  Halt.Op = MOp::HALT;
  MF.Blocks[0].Instrs = {Def0, Def1, Use, Halt};

  auto Problems = validateAllocation(MF);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("expects v0"), std::string::npos);
}

TEST(ValidatorTest, AcceptsCorrectCode) {
  MachineFunction MF;
  MF.Name = "fine";
  MF.Blocks.resize(1);
  MF.Blocks[0].Name = "entry";
  int V0 = MF.makeVReg();

  MInstr Def;
  Def.Op = MOp::LDI;
  Def.A = 2;
  Def.VA = V0;
  Def.Imm = 9;
  MInstr Use;
  Use.Op = MOp::OUT;
  Use.A = 2;
  Use.VA = V0;
  Use.Imm = PortDebug;
  MInstr Halt;
  Halt.Op = MOp::HALT;
  MF.Blocks[0].Instrs = {Def, Use, Halt};
  EXPECT_TRUE(validateAllocation(MF).empty());
}

TEST(ValidatorTest, CatchesCallClobberViolations) {
  MachineFunction MF;
  MF.Name = "clobbered";
  MF.Blocks.resize(1);
  MF.Blocks[0].Name = "entry";
  int V0 = MF.makeVReg();

  MInstr Def;
  Def.Op = MOp::LDI;
  Def.A = 5;
  Def.VA = V0;
  Def.Imm = 1;
  MInstr Call;
  Call.Op = MOp::CALL;
  Call.Callee = 0;
  MInstr Use; // v0 cannot still be in r5: the call clobbered it
  Use.Op = MOp::OUT;
  Use.A = 5;
  Use.VA = V0;
  Use.Imm = PortDebug;
  MInstr Halt;
  Halt.Op = MOp::HALT;
  MF.Blocks[0].Instrs = {Def, Call, Use, Halt};

  EXPECT_FALSE(validateAllocation(MF).empty());
}

TEST(Validator, RejectsAVirtualRegisterLeftInTheCode) {
  // The shape a non-converging allocator leaves behind: operands that are
  // still virtual registers.
  MachineFunction MF;
  MF.Name = "unallocated";
  MF.Blocks.resize(1);
  int V0 = MF.makeVReg();
  MInstr Def;
  Def.Op = MOp::LDI;
  Def.A = V0;
  Def.Imm = 1;
  MInstr Use;
  Use.Op = MOp::OUT;
  Use.A = V0;
  Use.Imm = PortDebug;
  MInstr Halt;
  Halt.Op = MOp::HALT;
  MF.Blocks[0].Instrs = {Def, Use, Halt};

  std::vector<std::string> Problems = validateAllocation(MF);
  ASSERT_EQ(Problems.size(), 2u);
  EXPECT_EQ(Problems[0], "@unallocated: v0 was never given a register");
}

TEST(Dominators, DiamondShape) {
  MachineFunction MF;
  MF.Blocks.resize(4);
  for (int B = 0; B < 4; ++B)
    MF.Blocks[static_cast<size_t>(B)].Name = "b";
  MF.Blocks[0].Succs = {1, 2};
  MF.Blocks[1].Succs = {3};
  MF.Blocks[2].Succs = {3};

  auto Dom = computeDominators(MF);
  EXPECT_TRUE(Dom[3][0]);  // entry dominates the join
  EXPECT_FALSE(Dom[3][1]); // neither arm dominates it
  EXPECT_FALSE(Dom[3][2]);
  EXPECT_TRUE(Dom[1][0]);
  EXPECT_TRUE(Dom[2][2]);
}

TEST(UccAllocTest, FallsBackToLinearScanWithoutOldCode) {
  MachineModule MM = machineFor(workloadSource("Blink"));
  UccContext EmptyCtx; // no old function
  UccAllocOptions Opts;
  std::vector<double> Freq;
  for (MachineFunction &MF : MM.Functions) {
    allocateUcc(MF, EmptyCtx, Opts, Freq);
    EXPECT_TRUE(validateAllocation(MF).empty());
  }
}

} // namespace
