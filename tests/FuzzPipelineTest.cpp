//===- tests/FuzzPipelineTest.cpp - randomized end-to-end updates ---------===//
//
// Generates random (always-terminating) MiniC programs, applies random
// structured edits, and drives the complete update-conscious flow:
//
//   compile v1 -> record -> edit -> recompile (baseline and UCC) ->
//   edit script -> sensor-side patch -> simulate.
//
// Invariants checked per seed:
//   * the patched image is bit-identical to the freshly compiled one;
//   * update-conscious code behaves exactly like update-oblivious code;
//   * recompiling *unchanged* source reproduces the old binary;
// and across all seeds, UCC's total Diff_inst must not exceed the
// baseline's (it is allowed to tie on any individual case).
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "core/Compiler.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

CompileOutput fuzzCompile(const std::string &Source,
                          const CompileOptions &Opts) {
  DiagnosticEngine Diag;
  auto Out = Compiler::compile(Source, Opts, Diag);
  EXPECT_TRUE(Out.has_value()) << Diag.str() << "\nsource:\n" << Source;
  return std::move(*Out);
}

class FuzzPipeline : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPipeline, UpdateFlowInvariants) {
  ProgramGen Gen(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  std::string SourceV1 = Gen.render();
  Gen.mutate();
  std::string SourceV2 = Gen.render();

  CompileOutput V1 = fuzzCompile(SourceV1, CompileOptions());

  // Invariant 0: both versions run to completion when freshly compiled.
  RunResult RunV1 = runImage(V1.Image);
  ASSERT_FALSE(RunV1.Trapped) << RunV1.TrapReason << "\n" << SourceV1;
  ASSERT_TRUE(RunV1.Halted);

  // Invariant 1: recompiling unchanged source reproduces the old binary.
  CompileOptions Ucc;
  Ucc.RA = RegAllocKind::UpdateConscious;
  Ucc.DA = DataAllocKind::UpdateConscious;
  DiagnosticEngine Diag;
  auto Same = Compiler::recompile(SourceV1, V1.Record, Ucc, Diag);
  ASSERT_TRUE(Same.has_value()) << Diag.str();
  EXPECT_EQ(diffImages(V1.Image, Same->Image).totalDiffInst(), 0)
      << SourceV1;

  // The update.
  auto V2Ucc = Compiler::recompile(SourceV2, V1.Record, Ucc, Diag);
  ASSERT_TRUE(V2Ucc.has_value()) << Diag.str() << "\n" << SourceV2;
  CompileOutput V2Fresh = fuzzCompile(SourceV2, CompileOptions());

  // Invariant 2: update-conscious code behaves like oblivious code.
  RunResult RunUcc = runImage(V2Ucc->Image);
  RunResult RunFresh = runImage(V2Fresh.Image);
  ASSERT_FALSE(RunUcc.Trapped) << RunUcc.TrapReason << "\n" << SourceV2;
  EXPECT_TRUE(RunFresh.sameObservableBehavior(RunUcc)) << SourceV2;

  // Invariant 3: the sensor-side patch reproduces the new image exactly.
  UpdatePackage Pkg = makeUpdate(V1, *V2Ucc);
  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(V1.Image, Pkg.Update, Patched));
  EXPECT_EQ(Patched.Code, V2Ucc->Image.Code);
  EXPECT_EQ(Patched.DataInit, V2Ucc->Image.DataInit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline, ::testing::Range(0, 30));

/// Same invariants with the ILP-backed Hybrid strategy in the loop.
class FuzzHybrid : public ::testing::TestWithParam<int> {};

TEST_P(FuzzHybrid, HybridStrategyKeepsBehavior) {
  ProgramGen Gen(static_cast<uint64_t>(GetParam()) * 1099511 + 3);
  std::string SourceV1 = Gen.render();
  Gen.mutate();
  std::string SourceV2 = Gen.render();

  CompileOutput V1 = fuzzCompile(SourceV1, CompileOptions());

  CompileOptions Hybrid;
  Hybrid.RA = RegAllocKind::UpdateConscious;
  Hybrid.DA = DataAllocKind::UpdateConscious;
  Hybrid.Ucc.Strategy = UccStrategy::Hybrid;
  Hybrid.Ucc.IlpMaxBinaries = 1200;
  Hybrid.Ucc.IlpTimeLimitSec = 5.0;

  DiagnosticEngine Diag;
  auto V2 = Compiler::recompile(SourceV2, V1.Record, Hybrid, Diag);
  ASSERT_TRUE(V2.has_value()) << Diag.str() << "\n" << SourceV2;

  CompileOutput Fresh = fuzzCompile(SourceV2, CompileOptions());
  RunResult A = runImage(Fresh.Image);
  RunResult B = runImage(V2->Image);
  ASSERT_FALSE(B.Trapped) << B.TrapReason << "\n" << SourceV2;
  EXPECT_TRUE(A.sameObservableBehavior(B)) << SourceV2;

  UpdatePackage Pkg = makeUpdate(V1, *V2);
  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(V1.Image, Pkg.Update, Patched));
  EXPECT_EQ(Patched.Code, V2->Image.Code);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzHybrid, ::testing::Range(0, 10));

/// A deterministic corpus of sources built to break a lexer: long runs of
/// stray characters (once one stack frame each), 20-40 digit literals
/// (once accumulated into int64_t until it overflowed) and a block
/// comment still open at end of input. The sanitizer jobs run it with
/// every UBSan check fatal. Each must fail to compile with a diagnostic.
TEST(FuzzPipeline, LexerHostileCorpusIsDiagnosed) {
  std::vector<std::string> Corpus;
  for (char Stray : {'@', '$', '#', '`', '\\'})
    Corpus.push_back("int main() { return " + std::string(150000, Stray) +
                     " 0; }");
  std::string Mixed;
  for (int I = 0; I < 50000; ++I)
    Mixed += I % 3 ? "@ " : "$\n";
  Corpus.push_back("void main() { " + Mixed + "__halt(); }");
  const char Digits[] = "0123456789abcdefABCDEF";
  RNG Rng(7);
  for (int Length = 20; Length <= 40; Length += 5) {
    std::string Dec = "9", Hex = "0xF";
    for (int D = 1; D < Length; ++D) {
      Dec += Digits[Rng.below(10)];
      Hex += Digits[Rng.below(22)];
    }
    Corpus.push_back("int g = " + Dec + "; void main() { __halt(); }");
    Corpus.push_back("void main() { __out(0, " + Hex + "); __halt(); }");
    Corpus.push_back("int t[" + Dec + "]; void main() { __halt(); }");
  }
  Corpus.push_back("void main() { __halt(); } /* never closed");
  Corpus.push_back("void main() { __halt(); /* never closed }");

  for (const std::string &Source : Corpus) {
    DiagnosticEngine Diag;
    EXPECT_FALSE(Compiler::compile(Source, CompileOptions(), Diag))
        << Source.substr(0, 80);
    EXPECT_TRUE(Diag.hasErrors()) << Source.substr(0, 80);
  }
}

TEST(FuzzPipeline, UccNeverLosesToBaselineInAggregate) {
  long TotalBase = 0, TotalUcc = 0;
  for (int Seed = 100; Seed < 120; ++Seed) {
    ProgramGen Gen(static_cast<uint64_t>(Seed) * 48271 + 1);
    std::string SourceV1 = Gen.render();
    Gen.mutate();
    std::string SourceV2 = Gen.render();

    CompileOutput V1 = fuzzCompile(SourceV1, CompileOptions());
    DiagnosticEngine Diag;
    CompileOptions Ucc;
    Ucc.RA = RegAllocKind::UpdateConscious;
    Ucc.DA = DataAllocKind::UpdateConscious;
    auto VUcc = Compiler::recompile(SourceV2, V1.Record, Ucc, Diag);
    auto VBase = Compiler::recompile(SourceV2, V1.Record,
                                     CompileOptions(), Diag);
    ASSERT_TRUE(VUcc.has_value() && VBase.has_value()) << Diag.str();
    TotalBase += diffImages(V1.Image, VBase->Image).totalDiffInst();
    TotalUcc += diffImages(V1.Image, VUcc->Image).totalDiffInst();
  }
  EXPECT_LE(TotalUcc, TotalBase)
      << "update-conscious compilation lost ground on random updates";
}

} // namespace
