//===- tests/AnalysisTest.cpp - dataflow and IR analyses ------------------===//

#include "analysis/Dataflow.h"
#include "analysis/IRAnalysis.h"
#include "frontend/IRGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace ucc;

namespace {

TEST(Liveness, StraightLineChain) {
  // v0 defined at 0, used at 2; v1 defined at 1, used at 1? Build:
  //   i0: def v0
  //   i1: def v1 (uses v0)
  //   i2: use v1
  FlowGraph G;
  G.NumValues = 2;
  FlowBlock B;
  B.Instrs = {DefUse{{0}, {}}, DefUse{{1}, {0}}, DefUse{{}, {1}}};
  G.Blocks.push_back(B);

  Liveness L = computeLiveness(G);
  EXPECT_FALSE(L.LiveIn[0].test(0)) << "v0 is defined, not live-in";
  EXPECT_FALSE(L.LiveOut[0].any());

  auto After = L.liveAfterPerInstr(G, 0);
  EXPECT_TRUE(After[0].test(0));  // v0 live until i1
  EXPECT_FALSE(After[1].test(0)); // dead after last use
  EXPECT_TRUE(After[1].test(1));
  EXPECT_FALSE(After[2].test(1));
}

TEST(Liveness, LoopCarriesValuesAround) {
  // Block 0: def v0 -> block 1. Block 1: use v0, branch to 1 or 2.
  // v0 must be live throughout block 1 (used on the next iteration too).
  FlowGraph G;
  G.NumValues = 1;
  FlowBlock B0;
  B0.Instrs = {DefUse{{0}, {}}};
  B0.Succs = {1};
  FlowBlock B1;
  B1.Instrs = {DefUse{{}, {0}}};
  B1.Succs = {1, 2};
  FlowBlock B2;
  B2.Instrs = {DefUse{{}, {}}};
  G.Blocks = {B0, B1, B2};

  Liveness L = computeLiveness(G);
  EXPECT_TRUE(L.LiveIn[1].test(0));
  EXPECT_TRUE(L.LiveOut[1].test(0)) << "live around the back edge";
  EXPECT_FALSE(L.LiveIn[2].test(0));
}

TEST(Liveness, BranchMergeUnionsUses) {
  // v0 used only on one arm: still live-out of the entry block.
  FlowGraph G;
  G.NumValues = 1;
  FlowBlock Entry;
  Entry.Instrs = {DefUse{{0}, {}}};
  Entry.Succs = {1, 2};
  FlowBlock Left;
  Left.Instrs = {DefUse{{}, {0}}};
  Left.Succs = {3};
  FlowBlock Right;
  Right.Instrs = {DefUse{{}, {}}};
  Right.Succs = {3};
  FlowBlock Join;
  Join.Instrs = {DefUse{{}, {}}};
  G.Blocks = {Entry, Left, Right, Join};

  Liveness L = computeLiveness(G);
  EXPECT_TRUE(L.LiveOut[0].test(0));
  EXPECT_TRUE(L.LiveIn[1].test(0));
  EXPECT_FALSE(L.LiveIn[2].test(0));
}

Module irFor(const char *Source) {
  DiagnosticEngine Diag;
  Module M = compileToIR(Source, Diag);
  EXPECT_FALSE(Diag.hasErrors()) << Diag.str();
  return M;
}

TEST(LoopDepth, NestedLoopsStack) {
  Module M = irFor(R"(
    void main() {
      int i;
      int j;
      for (i = 0; i < 3; i = i + 1) {
        for (j = 0; j < 3; j = j + 1) {
          __out(15, i + j);
        }
      }
      __halt();
    }
  )");
  std::vector<int> Depth = loopDepths(M.Functions[0]);
  int MaxDepth = 0;
  for (int D : Depth)
    MaxDepth = std::max(MaxDepth, D);
  EXPECT_EQ(MaxDepth, 2);
  EXPECT_EQ(Depth[0], 0) << "entry block is outside every loop";
}

TEST(LoopDepth, FrequenciesFollowDepth) {
  Module M = irFor(R"(
    void main() {
      int i;
      for (i = 0; i < 5; i = i + 1) {
        __out(15, i);
      }
      __halt();
    }
  )");
  const Function &F = M.Functions[0];
  std::vector<double> BlockFreq = blockFrequencies(F);
  std::vector<int> Depth = loopDepths(F);
  for (size_t B = 0; B < Depth.size(); ++B)
    EXPECT_DOUBLE_EQ(BlockFreq[B], std::pow(10.0, Depth[B]));

  std::vector<double> StmtFreq = statementFrequencies(F);
  EXPECT_EQ(static_cast<int>(StmtFreq.size()), F.instrCount());
}

TEST(LoopDepth, FrequencyCapApplies) {
  Module M = irFor(R"(
    void main() {
      int a; int b; int c; int d; int e; int f; int g;
      for (a = 0; a < 2; a = a + 1) {
       for (b = 0; b < 2; b = b + 1) {
        for (c = 0; c < 2; c = c + 1) {
         for (d = 0; d < 2; d = d + 1) {
          for (e = 0; e < 2; e = e + 1) {
           for (f = 0; f < 2; f = f + 1) {
            for (g = 0; g < 2; g = g + 1) {
              __out(15, 1);
            }
           }
          }
         }
        }
       }
      }
      __halt();
    }
  )");
  std::vector<double> Freq = blockFrequencies(M.Functions[0], 1e6);
  for (double W : Freq)
    EXPECT_LE(W, 1e6);
}

TEST(Liveness, IRLivenessReadsSrcsAsUsesAndDstAsDef) {
  // Block 0: %0 = const 1; %1 = add %0, %2; storeg @g, %1; br 1
  // Block 1: out 15, %0; halt
  // %2 is read before any definition, so it is live into the entry; %0
  // is defined there and read in block 1; %1 dies at the store.
  Function F;
  for (int R = 0; R < 3; ++R)
    F.makeVReg();
  F.makeBlock("entry");
  F.makeBlock("exit");
  Instr Const;
  Const.Op = Opcode::Const;
  Const.Dst = 0;
  Instr Add;
  Add.Op = Opcode::Bin;
  Add.Dst = 1;
  Add.Srcs = {0, 2};
  Instr Store;
  Store.Op = Opcode::StoreG;
  Store.Global = 0;
  Store.Srcs = {1};
  Instr Br;
  Br.Op = Opcode::Br;
  Br.TrueBB = 1;
  Instr Out;
  Out.Op = Opcode::Out;
  Out.Srcs = {0};
  Instr Halt;
  F.Blocks[0].Instrs = {Const, Add, Store, Br};
  F.Blocks[1].Instrs = {Out, Halt};

  Liveness L = computeIRLiveness(F);
  EXPECT_FALSE(L.LiveIn[0].test(0));
  EXPECT_FALSE(L.LiveIn[0].test(1));
  EXPECT_TRUE(L.LiveIn[0].test(2));
  EXPECT_TRUE(L.LiveOut[0].test(0));
  EXPECT_FALSE(L.LiveOut[0].test(1));
  EXPECT_FALSE(L.LiveOut[0].test(2));
  EXPECT_TRUE(L.LiveIn[1].test(0));
  EXPECT_FALSE(L.LiveOut[1].any());
}

} // namespace
