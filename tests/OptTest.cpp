//===- tests/OptTest.cpp - optimizer pass tests ---------------------------===//

#include "ProgramGen.h"
#include "WorkloadPrograms.h"

#include "frontend/IRGen.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "workloads/Workloads.h"

// Behavioral-equivalence checks drive the whole backend.
#include "codegen/BinaryImage.h"
#include "codegen/ISel.h"
#include "dataalloc/DataAlloc.h"
#include "regalloc/LinearScan.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <utility>

using namespace ucc;

namespace {

Module irFor(const std::string &Source) {
  DiagnosticEngine Diag;
  Module M = compileToIR(Source, Diag);
  EXPECT_FALSE(Diag.hasErrors()) << Diag.str();
  EXPECT_TRUE(moduleIsValid(M));
  return M;
}

int totalInstrs(const Module &M) {
  int N = 0;
  for (const Function &F : M.Functions)
    N += F.instrCount();
  return N;
}

BinaryImage imageFor(Module M) {
  MachineModule MM = selectModule(M);
  for (MachineFunction &MF : MM.Functions)
    allocateLinearScan(MF);
  DataLayoutMap DL = layoutGlobalsBaseline(M);
  std::vector<FrameLayout> Frames;
  for (const MachineFunction &MF : MM.Functions)
    Frames.push_back(layoutFrame(MF));
  return encodeModule(MM, M, DL, Frames);
}

TEST(Optimizer, FoldsConstantExpressions) {
  Module M = irFor("void main() { __out(15, 2 + 3 * 4); __halt(); }");
  optimizeModule(M);
  // After folding + DCE only [const, out, halt] remain in main.
  const Function &F = M.Functions[0];
  EXPECT_EQ(F.instrCount(), 3) << M.print();
  EXPECT_EQ(F.Blocks[0].Instrs[0].Op, Opcode::Const);
  EXPECT_EQ(F.Blocks[0].Instrs[0].Imm, 14);
}

TEST(Optimizer, FoldsConstantBranches) {
  Module M = irFor(R"(
    void main() {
      if (1 < 2) { __out(15, 1); } else { __out(15, 2); }
      __halt();
    }
  )");
  int Before = totalInstrs(M);
  optimizeModule(M);
  EXPECT_LT(totalInstrs(M), Before);
  // The dead branch is unreachable and must be gone entirely.
  std::string Text = M.print();
  EXPECT_EQ(Text.find("const 2"), std::string::npos) << Text;
}

TEST(Optimizer, RemovesDeadCode) {
  Module M = irFor(R"(
    void main() {
      int unused = 3 * 7;
      int used = 5;
      __out(15, used);
      __halt();
    }
  )");
  optimizeModule(M);
  std::string Text = M.print();
  EXPECT_EQ(Text.find("mul"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("21"), std::string::npos) << Text;
}

TEST(Optimizer, EliminatesCommonSubexpressions) {
  Module M = irFor(R"(
    void main() {
      int a = __in(4);
      int x = a * 13 + 1;
      int y = a * 13 + 2;
      __out(15, x + y);
      __halt();
    }
  )");
  optimizeModule(M);
  // `a * 13` must be computed once.
  int Muls = 0;
  for (const BasicBlock &BB : M.Functions[0].Blocks)
    for (const Instr &I : BB.Instrs)
      Muls += I.Op == Opcode::Bin && I.BinK == BinKind::Mul;
  EXPECT_EQ(Muls, 1) << M.print();
}

TEST(Optimizer, DoesNotCseAcrossStores) {
  // Loads from a global are not CSE'd (a store may intervene).
  Module M = irFor(R"(
    int g;
    void main() {
      int x = g;
      g = x + 1;
      int y = g;
      __out(15, y);
      __halt();
    }
  )");
  optimizeModule(M);
  RunResult R = runImage(imageFor(M));
  ASSERT_FALSE(R.Trapped);
  EXPECT_EQ(R.DebugTrace[0], 1);
}

TEST(Optimizer, SimplifyCfgRemovesUnreachableBlocks) {
  Module M = irFor(R"(
    void main() {
      if (0) { __out(15, 111); }
      __out(15, 7);
      __halt();
    }
  )");
  size_t Before = M.Functions[0].Blocks.size();
  optimizeModule(M);
  EXPECT_LT(M.Functions[0].Blocks.size(), Before);
  EXPECT_TRUE(moduleIsValid(M));
}

// Hand-built IR for the single-pass tests below.

Instr makeInstr(Opcode Op, VReg Dst, OperandList Srcs = {}) {
  Instr I;
  I.Op = Op;
  I.Dst = Dst;
  I.Srcs = Srcs;
  return I;
}

Instr constInstr(VReg Dst, int64_t Value) {
  Instr I = makeInstr(Opcode::Const, Dst);
  I.Imm = Value;
  return I;
}

Instr addInstr(VReg Dst, VReg A, VReg B) {
  return makeInstr(Opcode::Bin, Dst, {A, B});
}

Instr brInstr(int Target) {
  Instr I = makeInstr(Opcode::Br, NoVReg);
  I.TrueBB = Target;
  return I;
}

Instr outInstr(VReg Src) {
  Instr I = makeInstr(Opcode::Out, NoVReg, {Src});
  I.Imm = 15;
  return I;
}

Function functionWith(int NumVRegs,
                      std::vector<std::vector<Instr>> BlockInstrs) {
  Function F;
  F.Name = "f";
  for (int R = 0; R < NumVRegs; ++R)
    F.makeVReg();
  for (std::vector<Instr> &Instrs : BlockInstrs)
    F.Blocks[static_cast<size_t>(F.makeBlock("b"))].Instrs =
        std::move(Instrs);
  return F;
}

std::vector<Opcode> opcodes(const BasicBlock &BB) {
  std::vector<Opcode> Ops;
  for (const Instr &I : BB.Instrs)
    Ops.push_back(I.Op);
  return Ops;
}

TEST(Optimizer, DceRemovesADeadChainAcrossBlocksInOneCall) {
  // The chain %0 -> %1 -> %2 -> %3 spans three blocks. Only %3 is dead at
  // first; each earlier link dies once its reader is gone.
  Function F = functionWith(
      5, {{constInstr(0, 1), addInstr(1, 0, 0), brInstr(1)},
          {addInstr(2, 1, 1), brInstr(2)},
          {addInstr(3, 2, 2), constInstr(4, 7), outInstr(4),
           makeInstr(Opcode::Halt, NoVReg)}});
  EXPECT_TRUE(eliminateDeadCode(F));
  EXPECT_EQ(opcodes(F.Blocks[0]), (std::vector<Opcode>{Opcode::Br}));
  EXPECT_EQ(opcodes(F.Blocks[1]), (std::vector<Opcode>{Opcode::Br}));
  EXPECT_EQ(opcodes(F.Blocks[2]),
            (std::vector<Opcode>{Opcode::Const, Opcode::Out, Opcode::Halt}));
  EXPECT_FALSE(eliminateDeadCode(F)) << "one call reaches the fixpoint";
}

TEST(Optimizer, DceKeepsALoopCarriedIncrement) {
  // x = x + 1 around a back edge: x is live into the next iteration, so
  // liveness keeps the increment even though nothing else reads x.
  Instr Loop = makeInstr(Opcode::CondBr, NoVReg, {2, 1});
  Loop.TrueBB = 1;
  Loop.FalseBB = 2;
  Function F = functionWith(
      3, {{constInstr(0, 0), constInstr(1, 1), brInstr(1)},
          {addInstr(0, 0, 1), makeInstr(Opcode::In, 2), Loop},
          {makeInstr(Opcode::Halt, NoVReg)}});
  EXPECT_FALSE(eliminateDeadCode(F));
  EXPECT_EQ(opcodes(F.Blocks[1]),
            (std::vector<Opcode>{Opcode::Bin, Opcode::In, Opcode::CondBr}));

  // The same through the whole pipeline, from source.
  Module M = irFor(R"(
    void main() {
      int x = 0;
      int i;
      for (i = 0; i < 5; i = i + 1) { x = x + 3; }
      __out(15, 7);
      __halt();
    }
  )");
  optimizeModule(M);
  std::string Text = M.print();
  // The 3 is read by the increment alone.
  EXPECT_NE(Text.find("const 3"), std::string::npos) << Text;
}

TEST(Optimizer, DceDropsDeadLoadsButNeverSideEffects) {
  Instr LoadG = makeInstr(Opcode::LoadG, 1);
  LoadG.Global = 0;
  Instr LoadF = makeInstr(Opcode::LoadF, 2);
  LoadF.Slot = 0;
  Instr StoreG = makeInstr(Opcode::StoreG, NoVReg, {0});
  StoreG.Global = 0;
  Instr StoreF = makeInstr(Opcode::StoreF, NoVReg, {0});
  StoreF.Slot = 0;
  Instr Call = makeInstr(Opcode::Call, 3, {0}); // result never read
  Call.Callee = 0;
  Function F =
      functionWith(4, {{constInstr(0, 5), LoadG, LoadF, StoreG, StoreF, Call,
                        outInstr(0), makeInstr(Opcode::Halt, NoVReg)}});
  F.makeFrameObject("a", 1);
  EXPECT_TRUE(eliminateDeadCode(F));
  EXPECT_EQ(opcodes(F.Blocks[0]),
            (std::vector<Opcode>{Opcode::Const, Opcode::StoreG,
                                 Opcode::StoreF, Opcode::Call, Opcode::Out,
                                 Opcode::Halt}));
}

TEST(Optimizer, CseForgetsRedefinedOperandsAndHolders) {
  auto cseOps = [](std::vector<Instr> Instrs) {
    Function F = functionWith(6, {std::move(Instrs)});
    F.Blocks[0].Instrs.push_back(makeInstr(Opcode::Halt, NoVReg));
    eliminateCommonSubexprs(F);
    return opcodes(F.Blocks[0]);
  };
  const Opcode Const = Opcode::Const, Bin = Opcode::Bin, Mov = Opcode::Mov,
               Halt = Opcode::Halt;
  // Reused while nothing changes.
  EXPECT_EQ(cseOps({addInstr(2, 0, 1), addInstr(3, 0, 1)}),
            (std::vector<Opcode>{Bin, Mov, Halt}));
  // An operand is redefined in between.
  EXPECT_EQ(cseOps({addInstr(2, 0, 1), constInstr(0, 9), addInstr(3, 0, 1)}),
            (std::vector<Opcode>{Bin, Const, Bin, Halt}));
  // The vreg holding the value is redefined in between.
  EXPECT_EQ(cseOps({addInstr(2, 0, 1), constInstr(2, 9), addInstr(3, 0, 1)}),
            (std::vector<Opcode>{Bin, Const, Bin, Halt}));
  // The computation redefines its own operand: %0 + %1 afterwards reads
  // the new %0, so it is a different value from the one %0 now holds.
  EXPECT_EQ(cseOps({addInstr(0, 0, 1), addInstr(3, 0, 1)}),
            (std::vector<Opcode>{Bin, Bin, Halt}));
}

/// Continues FNV-1a hash \p H over the optimized text of \p Source and
/// over optimizeModule's return value.
uint64_t optimizedDigest(const std::string &Source, uint64_t H = Fnv1aBasis) {
  Module M = irFor(Source);
  unsigned char Changed = optimizeModule(M) ? 1 : 0;
  std::string Text = M.print();
  H = fnv1a(Text.data(), Text.size(), H);
  return fnv1a(&Changed, 1, H);
}

/// The optimizer's output, pinned: a pass rewrite must leave every
/// optimized module bit-identical (its printed text and whether
/// optimizeModule reported a change). On a mismatch the failure message
/// carries the full table of current digests.
TEST(Optimizer, PipelineOutputIsPinned) {
  static const std::pair<const char *, uint64_t> PinnedPrograms[] = {
      {"Blink", 0x04c7cbed04b4e16aULL},
      {"CntToLeds", 0x8718976dc18bef4fULL},
      {"CntToRfm", 0x1d58ba68333dc88eULL},
      {"CntToLedsAndRfm", 0x948ff8d7685e92ccULL},
      {"AES", 0x670d32c6ba60b39bULL},
      {"case1.new", 0xb9d7767641b6fc6bULL},
      {"case2.new", 0x9d3baf5ed8d294d7ULL},
      {"case3.new", 0xa6b42f527e3ffcbaULL},
      {"case4.new", 0x1526e763390e2335ULL},
      {"case5.new", 0x3d6244a3db7e3d48ULL},
      {"case6.new", 0xb3814dd753311dbaULL},
      {"case7.new", 0x7844cb448afdb76dULL},
      {"case8.new", 0x07ff624e5a1c2ac4ULL},
      {"case9.new", 0xadaebee78f920fccULL},
      {"case10.new", 0xb8b29c984e630c08ULL},
      {"case11.new", 0xd76961344af727eeULL},
      {"case101.new", 0xd5959fe8ec286997ULL},
      {"case102.new", 0xa008206cd534b881ULL},
      {"liverange.old", 0xc431bb102768b31cULL},
      {"liverange.new", 0x78e724b72b59793aULL},
  };
  // One digest per generator seed over its program and one mutation of it.
  static const uint64_t PinnedCorpus[] = {
      0x085670b1fb6eb7eeULL, 0xf01b969a4732a667ULL, 0x017a140af83bcd03ULL,
      0xc6d4965f30d12130ULL, 0xb2ca450d59382715ULL, 0xb2f8310afb3a6322ULL,
      0x90f5f27cfefd56b1ULL, 0xc7a13099bb75ed57ULL, 0x763e62a55d29253cULL,
      0x5864e09629b91dbdULL, 0x5b095e29d19cda72ULL, 0xac4ce3d66f4cd95bULL,
      0x4734d789efd1cabeULL, 0xc29ee9925b3f9d18ULL, 0xe8556b6c924a2ce3ULL,
      0x66efe505d2dd8585ULL, 0xaac4e44672a32fddULL, 0x360fdf878e5d2ee9ULL,
      0xde303371740f9b8dULL, 0x099bc4d330e32483ULL, 0x6beef54d3b381c7cULL,
      0xad19497be1b4d42bULL, 0x8b8fe0ead6003a68ULL, 0x2a4d2736eefaceeeULL,
      0xcc36a9d86a799084ULL, 0xd7564c27c268a5bfULL, 0xb2141486d2f2be81ULL,
      0x835430d49826d439ULL, 0x85cfb20932ba386bULL, 0x4b7c3aa9a79c7228ULL,
      0x2eacce043a9dff91ULL, 0x95de9452dae9e77cULL, 0xd85820c81964cf4aULL,
      0x0d80b2d5fa0540b7ULL, 0xe34909f321f2cfc0ULL, 0xbea7dfe385950e44ULL,
      0x3417b4406d3ed5d9ULL, 0x3fa8beb99c0a5956ULL, 0xa118ef51d508c672ULL,
      0x289450bc03b8ce7dULL, 0x2004ecf698d60a8aULL, 0x15502f3f510fead4ULL,
      0x5c416eab686033b1ULL, 0xb74fffdc7422e58cULL, 0xf2dd56d164fb40a0ULL,
      0x8f172eb48a039a76ULL, 0x3332b89d2fbcf817ULL, 0x1d55da63567dd58fULL,
      0x21346dbc444a66b6ULL, 0x1288fce949dc22d4ULL, 0x54380d10adee9e6eULL,
      0x7eac189a9b4114e5ULL, 0xaa7eafa09bbe9165ULL, 0x0ba075e089d831bfULL,
      0xd3af083604d2c857ULL, 0x9ec60cb77dc5a84eULL, 0x7ea12281a3335d9dULL,
      0x4218917e65150abdULL, 0x9f473ae884393e80ULL, 0x4b7ba2d1025e0134ULL,
      0x3cf6e889bad2f2c6ULL, 0x5393e34d0df26990ULL, 0x81102e38a976a7e8ULL,
      0xeca1a6777060fe15ULL, 0x9b42bc534a7d4334ULL, 0x44f9f3a63c829375ULL,
      0xfdcb5acf777ae2f8ULL, 0x7d12b5ad726b7e6dULL, 0x3c0ce9a7ff450571ULL,
      0x2c27ba71999f988eULL, 0x3379895217588d2aULL, 0xe8416bf92bf0a428ULL,
      0xa59b6cc50a1d0a28ULL, 0xe0631020cdfa20e0ULL, 0x3f73ead0f9f80e08ULL,
      0x6df74ba18a15969dULL, 0x25cdb13ea5490a0bULL, 0x59b46c418f9a8603ULL,
      0x99fb172185183827ULL, 0xc154812c3ecd89e1ULL, 0xbc0b9ac8f1b3ddd3ULL,
      0xa1eaceda7995846eULL, 0x74f12f20ea6b19a3ULL, 0x1ec60b761c7d146dULL,
      0xb6c96bff5dd93ffdULL, 0x5a682057103dbfe6ULL, 0xfa56e16add2abfdcULL,
      0xe4dd7e1d276f6e8aULL, 0x7ba6ac90ff9de8adULL, 0x313cd0215a27cc38ULL,
      0x16f197e6ab17c9afULL, 0x0829a26f9c65ff17ULL, 0x06621b3f3a279b38ULL,
      0xfaa0c20dce8a7a9cULL, 0x6e01b7ee33214ee2ULL, 0xd13d42fbcfc37c0dULL,
      0xd6be2fd3bfad0700ULL, 0x422cc4bb8d0cc7ccULL, 0x2d0eb97eb58841f2ULL,
      0x711c640b4782c07eULL, 0x151c13dbc2e74e58ULL, 0x20808962290d9dc8ULL,
      0xd7aeceb7e9f0928fULL, 0x791e6e976fa5256dULL, 0x2ffeb43fcad7be15ULL,
      0x77912b4b175cd017ULL, 0x3ea986d5e84bd270ULL, 0x91d5f90c310e6130ULL,
      0x390e5839e81dcc94ULL, 0x987d3a2bc88598acULL, 0x8418f9857adb1693ULL,
      0x95937c617eb76956ULL, 0x8a3622240b0a4ac7ULL, 0x95d70c58d72217bfULL,
      0x850a7dc726a33be6ULL, 0xfdc69c3b3fa2e5eeULL, 0x2caaa79a3d7c1ca4ULL,
      0x7c2c265513553b26ULL, 0xb9bae9a26722329bULL, 0xa618aa7ac5107113ULL,
      0x6d133d88a505d851ULL, 0xfbdb185a6c7fd83dULL, 0x5ed9c31bc7077237ULL,
      0xb4b09cdf2c9ac342ULL, 0x20b3158ac5fc87b4ULL, 0xe66b9575bedad4f0ULL,
      0xa44e22bc51a4ccdfULL, 0xc0b9ed64aa4f89faULL,
  };
  constexpr int CorpusSeeds = 128;

  std::string Table;
  bool Mismatch = false;
  std::vector<std::pair<std::string, std::string>> Programs =
      workloadPrograms();
  for (size_t K = 0; K < Programs.size(); ++K) {
    uint64_t D = optimizedDigest(Programs[K].second);
    Table += format("      {\"%s\", 0x%016" PRIx64 "ULL},\n",
                    Programs[K].first.c_str(), D);
    bool Same = K < std::size(PinnedPrograms) &&
                Programs[K].first == PinnedPrograms[K].first &&
                D == PinnedPrograms[K].second;
    EXPECT_TRUE(Same) << Programs[K].first;
    Mismatch |= !Same;
  }
  EXPECT_EQ(Programs.size(), std::size(PinnedPrograms));
  for (int Seed = 0; Seed < CorpusSeeds; ++Seed) {
    ProgramGen Gen(static_cast<uint64_t>(Seed));
    uint64_t D = optimizedDigest(Gen.render());
    Gen.mutate();
    D = optimizedDigest(Gen.render(), D);
    Table += format("%s0x%016" PRIx64 "ULL,%s", Seed % 3 ? "" : "      ", D,
                    Seed % 3 == 2 ? "\n" : " ");
    bool Same = static_cast<size_t>(Seed) < std::size(PinnedCorpus) &&
                D == PinnedCorpus[Seed];
    EXPECT_TRUE(Same) << "generator seed " << Seed;
    Mismatch |= !Same;
  }
  EXPECT_EQ(static_cast<size_t>(CorpusSeeds), std::size(PinnedCorpus));
  EXPECT_FALSE(Mismatch) << "current digests:\n" << Table;
}

/// The decisive property: optimization must never change behavior.
class OptEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptEquivalence, WorkloadBehaviorUnchanged) {
  const Workload &W = workloads()[static_cast<size_t>(GetParam())];
  Module M0 = irFor(W.Source);
  Module M1 = irFor(W.Source);
  optimizeModule(M1);
  EXPECT_TRUE(moduleIsValid(M1));
  EXPECT_LE(totalInstrs(M1), totalInstrs(M0))
      << "optimization must not grow " << W.Name;

  SimOptions Sim;
  Sim.MaxSteps = 50'000'000;
  RunResult R0 = runImage(imageFor(std::move(M0)), Sim);
  RunResult R1 = runImage(imageFor(std::move(M1)), Sim);
  ASSERT_FALSE(R0.Trapped) << R0.TrapReason;
  ASSERT_FALSE(R1.Trapped) << R1.TrapReason;
  EXPECT_TRUE(R0.sameObservableBehavior(R1)) << W.Name;
  EXPECT_LE(R1.Cycles, R0.Cycles) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OptEquivalence,
                         ::testing::Range(0, 5));

} // namespace
