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
/// over optimizeModule's return value. With \p IndexedBlocks the text is
/// printWithIndexedBlocks'.
uint64_t optimizedDigest(const std::string &Source, uint64_t H = Fnv1aBasis,
                         bool IndexedBlocks = false) {
  Module M = irFor(Source);
  unsigned char Changed = optimizeModule(M) ? 1 : 0;
  std::string Text = IndexedBlocks ? printWithIndexedBlocks(std::move(M))
                                   : M.print();
  H = fnv1a(Text.data(), Text.size(), H);
  return fnv1a(&Changed, 1, H);
}

/// The optimizer's output, pinned: a pass rewrite must leave every
/// optimized module bit-identical (its printed text and whether
/// optimizeModule reported a change). On a mismatch the failure message
/// carries the full table of current digests.
TEST(Optimizer, PipelineOutputIsPinned) {
  static const std::pair<const char *, uint64_t> PinnedPrograms[] = {
      {"Blink", 0x84ed2dad851f3296ULL},
      {"CntToLeds", 0x11928e7d8db03b56ULL},
      {"CntToRfm", 0x028e100fe2407122ULL},
      {"CntToLedsAndRfm", 0xd2e6ad7a75a74979ULL},
      {"AES", 0x1470adb7c4eb59f4ULL},
      {"case1.new", 0x836cc38b13bccc2aULL},
      {"case2.new", 0xf1c02b1bdf29eaa2ULL},
      {"case3.new", 0xd34fa87b6331134aULL},
      {"case4.new", 0x6afafa1faedb9d31ULL},
      {"case5.new", 0x6a29ee4139c4d563ULL},
      {"case6.new", 0x674c5c08ed61992aULL},
      {"case7.new", 0x69a32e9d9c44b7ffULL},
      {"case8.new", 0x6abaa45b2337bed2ULL},
      {"case9.new", 0x703bedf0111bc1f4ULL},
      {"case10.new", 0xcb1375a6c36af3b8ULL},
      {"case11.new", 0x41bc737c36807ef3ULL},
      {"case101.new", 0xb8905e4e6b49dbe7ULL},
      {"case102.new", 0xd637d142cd7433d0ULL},
      {"liverange.old", 0xc431bb102768b31cULL},
      {"liverange.new", 0x78e724b72b59793aULL},
  };
  // One digest per generator seed over its program and one mutation of it.
  static const uint64_t PinnedCorpus[] = {
      0x64e99db1f46f7946ULL, 0xdf4223f2049b1490ULL, 0xf4df2dac8b3584f5ULL,
      0x81f667e08ae0d1a0ULL, 0x3cf14bfe5a9b12daULL, 0x3c702f71f13a128bULL,
      0x8842ccc6be6921a9ULL, 0xe4e2ca69b31dc60fULL, 0x8172b87bbb10f1b7ULL,
      0x29c6de37307aa1b7ULL, 0x7350128ff53cf1baULL, 0xb3138d1a466dc3b6ULL,
      0x48de879a5213d16cULL, 0xc68c76f495eb0a18ULL, 0x5f68657ecd8ec95fULL,
      0x13c37818e0c6ec87ULL, 0x32e1c3a639dc9951ULL, 0x804fda64224c6a7dULL,
      0x39f2257903b12a33ULL, 0xe2b7395a2b2cc7ffULL, 0xccc9ff33c5e1af3dULL,
      0x3a1f72382e10da29ULL, 0xcccd01861fac3fb2ULL, 0xf1e8190bdbbcb03aULL,
      0x6a391d301ae09acfULL, 0xad4a7f8dea0db8c3ULL, 0xd1ca4c86ceef89e8ULL,
      0xa415909883daf4b5ULL, 0xa771fc20ccf39679ULL, 0xbe1c49f44e598812ULL,
      0x6bc8ff0e2bb18914ULL, 0xa647c8a5c48b89adULL, 0xa2f99379473d8ef2ULL,
      0x92708de5a22bb49aULL, 0xfaed7cd4d3290fbeULL, 0x53979e5974724ffeULL,
      0xbba5d889eba06730ULL, 0xf852fd2cc3c17656ULL, 0x98bfa25701f8e7d6ULL,
      0x4534fbfccea8fe80ULL, 0x661ce1256f86f0aaULL, 0x78368511343e5a0aULL,
      0x8c135e10741d72fbULL, 0xdab0f1b664b22e20ULL, 0x2794942e1be0c5cdULL,
      0x60c2f35d05c1150cULL, 0xe2d1f24e8ee33bb6ULL, 0x010fccbf7efad503ULL,
      0xe9f30a05ad830719ULL, 0xd5c2ac3265434992ULL, 0x7f6f40435518391aULL,
      0x0f1cd3f797441733ULL, 0xc5d657ddb7d9c357ULL, 0x08670b26be45f60bULL,
      0xfabf334b5742eb8fULL, 0xe5a12c9ab8e945c1ULL, 0xe027e6bbb7f92205ULL,
      0xb65980b70fc56db5ULL, 0xf65e39ea961721afULL, 0x48acc957ba2bf207ULL,
      0xa11f169347511961ULL, 0xb916232ac6625e8cULL, 0xd63acf5d2faf8312ULL,
      0xd36a05987bcb824dULL, 0xadc910270b404767ULL, 0x63266e758f8ccf68ULL,
      0xd89cb49c1a75e454ULL, 0xf287d2806171acf7ULL, 0xa82589bad34c4936ULL,
      0x98b3cb911b2b126eULL, 0x4d9ff3f84749962aULL, 0x1b15a87e1aec6173ULL,
      0xe212fe4f2cb62a1aULL, 0xc124491d3f0c4885ULL, 0x2f8a2c2d54a1d17bULL,
      0x121ac4f7a288a636ULL, 0x9561bf64079d2bbbULL, 0xe7d62051532594b8ULL,
      0x1e06cb1314919834ULL, 0x089f63c700a774a3ULL, 0xae35c556918c8bbcULL,
      0x95adc59ff1b29f5eULL, 0xcb3b8a77c5378b05ULL, 0x235db4033993eafbULL,
      0xeeefb657d0252e0cULL, 0x85a162c8be9e057aULL, 0x93ef471fbe797c32ULL,
      0xfade9b87487d6da9ULL, 0x33725536db348099ULL, 0x17a3557afd5d85d9ULL,
      0x6320cb2eeebc4215ULL, 0xff28aa3bb3b31103ULL, 0x17a13b10f924ee68ULL,
      0xa86a4d3b0a33d611ULL, 0x40c00d8c2657ccdeULL, 0xd9b715b08a1fd336ULL,
      0x89d28d33e80db922ULL, 0xc59a865ffa3697caULL, 0xc1ad7168fb450dbeULL,
      0xc70eb16b329ab4f7ULL, 0x1fc5b8731bd6b258ULL, 0x0ce081a2876f3d97ULL,
      0x51caa3cb2fc53725ULL, 0x6bf809bbff31e419ULL, 0xe6cedc429d1d9f6bULL,
      0x5199dfa218b9970bULL, 0xe5fd83397ea6339aULL, 0x1821886640bb2474ULL,
      0x7c88dedc8995d8e2ULL, 0xaa91ce2532f6f41cULL, 0x350a50bfe37b2271ULL,
      0x18b339e2b2af1338ULL, 0xe8df67675a1dcf1eULL, 0x290cfe96c7571de1ULL,
      0x9ff7af113635bd82ULL, 0x11d3a844a884f19aULL, 0xf5cb58c3bce74b74ULL,
      0x6622c8b166681020ULL, 0x428172c371da7ee7ULL, 0x1002a8b1cdf9529fULL,
      0x6e135da8f5024c12ULL, 0xfbdb185a6c7fd83dULL, 0xbb2d54774853a043ULL,
      0x9094a97b8f945e59ULL, 0x9f9e003d03d0f862ULL, 0x97633a0ff4b7a62eULL,
      0x0c5406b9dda55f17ULL, 0x570ed4d610b34e80ULL,
  };
  // The same inputs in the same order (programs, then corpus), hashed
  // over printWithIndexedBlocks: a change to how blocks are named leaves
  // these as they are.
  static const uint64_t PinnedIndexedBlocks[] = {
      0x38cd3f888efe9702ULL, 0x2287dfbf165347efULL, 0xa03a1a721d531c0eULL,
      0x1ca85f917904bfdaULL, 0xc1a587049a176e13ULL, 0xd029ef05983b52d3ULL,
      0x191c848bde2226efULL, 0x32c66fa985d94e72ULL, 0x34ebfd64727f0f67ULL,
      0xcdb8ee1c39f6def0ULL, 0x1b287a630a8d9122ULL, 0x809ccfc5b4bfe0c6ULL,
      0x96a00a1cee83a292ULL, 0x8bd3a59fb1922b6cULL, 0x863a3b637f8d5cc2ULL,
      0x93bfad9aaed186cfULL, 0x76e9e6808ad4b5f1ULL, 0xd07caf8ba589dac3ULL,
      0xb42ff1ea8bcb287cULL, 0x341d3893f2a833ceULL, 0x9ae0b882d49c9b3cULL,
      0x37a00f61ea31e211ULL, 0xd24065c366c78c07ULL, 0x5776120d0ddf0316ULL,
      0x5431478e59dcc69cULL, 0xe82445ff6d4710e9ULL, 0x7c7ec557cb10e462ULL,
      0x2c8b162e374f0813ULL, 0x40529b30dd07d4d3ULL, 0x6ab6037b59f47808ULL,
      0x535f15caf552b7c0ULL, 0xcac57c7627c42e3aULL, 0x14b462a2fa1d902aULL,
      0xfa606aab4d6b3066ULL, 0x4764ed1ed62ee839ULL, 0x68a37d03ee8c930bULL,
      0x2df86ea036140d6dULL, 0xacfef08c0962e199ULL, 0xf7a18c83f3c95b33ULL,
      0xfdbcf264b50b2946ULL, 0x47e1968fbf567017ULL, 0xcdde1ca31ef8104eULL,
      0xc31018a45103b3f2ULL, 0x24ec8220bd4c11f7ULL, 0xea5525074cbee61eULL,
      0xa9767e86d78aef57ULL, 0x596764ab0d034f4aULL, 0x15628480c0fd1421ULL,
      0x80145fbe9a8a64dbULL, 0xf5c2b12f15851dc4ULL, 0xc0bb1b79161b7a73ULL,
      0x96e03678a5b51691ULL, 0x8f728d4cf0d331e1ULL, 0x69475f9a923f0632ULL,
      0xfa6d32fc7064726cULL, 0x60d34933342ac94fULL, 0xef36a02d934e5175ULL,
      0x381b90cdb108d513ULL, 0x88da98a38a3aecbbULL, 0x41a6bdd853443e2dULL,
      0xb6c92bdf15cb240eULL, 0x7bcf881b19c05d37ULL, 0x7180b71c8e05cde4ULL,
      0xa6267822de827d41ULL, 0xc3be4808cf24039dULL, 0x4f49566fabd723aeULL,
      0x457b074187f36a14ULL, 0x15bacb0ca165ef3bULL, 0xd4ce87d238a1f02aULL,
      0xd8da3ac548cb90faULL, 0x57e0933b50b4a9e9ULL, 0xa113a6b37fee55a6ULL,
      0x890fe306ff01686bULL, 0xe35fdd7d293b4b71ULL, 0x2de2c73f7bf434f1ULL,
      0xa885196a5cf9a4b6ULL, 0x298056ffd655c840ULL, 0x044a146b38d9f133ULL,
      0xd687e380b51739f7ULL, 0xc9d6eb67f9e69028ULL, 0xe2c0a274bba12946ULL,
      0xaf99a2a416b7e1b4ULL, 0x5f3c6b8b459222b5ULL, 0xdfc73b87c51431a4ULL,
      0xe11ee7411835c4caULL, 0x3381547a300ec1d0ULL, 0x367e8ed6ed0651b6ULL,
      0xbd9102c4f2b198ebULL, 0x2d2f999b96a3b2f0ULL, 0xef2665b6faba9b53ULL,
      0x94de8bff4b908680ULL, 0x3fe09125690db2a5ULL, 0xb883ea28427a37bfULL,
      0x47a097bc379b1d41ULL, 0xe09d8581170913cfULL, 0xbd0ba4e26d42b267ULL,
      0xac5de630599c05dbULL, 0x6f6cb2c5b113e38aULL, 0x2d260a90f5232a09ULL,
      0xfb14acbb1698423aULL, 0x9a3ee33aee59b61bULL, 0xf238f08e50207bf1ULL,
      0x94d727d54c50975dULL, 0xcd55261f13188f20ULL, 0x0f16b69f93a950afULL,
      0xedd437432271765dULL, 0x292204923c24067eULL, 0xf5ca1b8c914ed49aULL,
      0x36f0b7fe5434b308ULL, 0xc30360b297ef7e1bULL, 0xa054dfb1a2a1a738ULL,
      0x7a81ae8c67b13a8fULL, 0x2360883564d5f6beULL, 0xcd49a98a5349f674ULL,
      0xf2115019a2eaddc4ULL, 0xad2ecbe29ea94affULL, 0x4cde840a2932caeaULL,
      0x8f3cc2ba65d12125ULL, 0x81db59d809d60512ULL, 0xa5c5e685adf64405ULL,
      0x59b69954a389f828ULL, 0x66841e3d1808ad99ULL, 0xdc79f03aaa356546ULL,
      0x74c13ec3cccc8871ULL, 0x86340f02de1658e9ULL, 0x325b89b610122e46ULL,
      0x52c1a39a9ad62934ULL, 0xac5ae04dd6b1ca48ULL, 0xd266e9eae4c4da54ULL,
      0x93a5208ed3802a7aULL, 0x7e433c042109c1caULL, 0x8f886479c9be38c4ULL,
      0x4ec69f46c69c41dcULL, 0x1764ba0a53125644ULL, 0xa97f73342dcc375cULL,
      0xce5712cf900a6ec9ULL, 0x3f0a721bdd904cfdULL, 0xaab6c958424ba734ULL,
      0x5bea6db1a3807389ULL, 0xd413f9003c264175ULL, 0x5395f414062f8fbeULL,
      0x70699f8fc56b1eb5ULL, 0x3b33b6f3bee6e508ULL, 0x6100d5526220399cULL,
      0x994d80631b4c3948ULL, 0x64020ac234c61b34ULL, 0xf978cc8f13b39075ULL,
      0x66c46244524b7bfaULL,
  };
  constexpr int CorpusSeeds = 128;

  std::string Table;
  bool Mismatch = false;
  std::vector<uint64_t> Indexed;
  std::vector<std::pair<std::string, std::string>> Programs =
      workloadPrograms();
  for (size_t K = 0; K < Programs.size(); ++K) {
    Indexed.push_back(optimizedDigest(Programs[K].second, Fnv1aBasis, true));
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
    uint64_t DI = optimizedDigest(Gen.render(), Fnv1aBasis, true);
    Gen.mutate();
    D = optimizedDigest(Gen.render(), D);
    Indexed.push_back(optimizedDigest(Gen.render(), DI, true));
    Table += format("%s0x%016" PRIx64 "ULL,%s", Seed % 3 ? "" : "      ", D,
                    Seed % 3 == 2 ? "\n" : " ");
    bool Same = static_cast<size_t>(Seed) < std::size(PinnedCorpus) &&
                D == PinnedCorpus[Seed];
    EXPECT_TRUE(Same) << "generator seed " << Seed;
    Mismatch |= !Same;
  }
  EXPECT_EQ(static_cast<size_t>(CorpusSeeds), std::size(PinnedCorpus));
  EXPECT_FALSE(Mismatch) << "current digests:\n" << Table;
  std::vector<uint64_t> Pinned(std::begin(PinnedIndexedBlocks),
                               std::end(PinnedIndexedBlocks));
  EXPECT_EQ(Indexed, Pinned) << "indexed:\n" << digestTable(Indexed);
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
