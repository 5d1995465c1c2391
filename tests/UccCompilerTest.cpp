//===- tests/UccCompilerTest.cpp - update-conscious compilation ----------===//

#include "core/Compiler.h"
#include "regalloc/Validator.h"
#include "sim/Simulator.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

CompileOutput mustCompile(const std::string &Source,
                          CompileOptions Opts = CompileOptions()) {
  DiagnosticEngine Diag;
  auto Out = Compiler::compile(Source, Opts, Diag);
  EXPECT_TRUE(Out.has_value()) << Diag.str();
  return std::move(*Out);
}

CompileOutput mustRecompile(const std::string &Source,
                            const CompilationRecord &Old,
                            CompileOptions Opts) {
  DiagnosticEngine Diag;
  auto Out = Compiler::recompile(Source, Old, Opts, Diag);
  EXPECT_TRUE(Out.has_value()) << Diag.str();
  return std::move(*Out);
}

CompileOptions uccOptions() {
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  return Opts;
}

const char *CounterV1 = R"(
  int count;
  int step = 1;
  void main() {
    int i;
    for (i = 0; i < 20; i = i + 1) {
      count = count + step;
      __out(0, count & 7);
    }
    __out(15, count);
    __halt();
  }
)";

// A small, local change: different LED mask (the paper's test case 1
// changes the blink color).
const char *CounterV2Small = R"(
  int count;
  int step = 1;
  void main() {
    int i;
    for (i = 0; i < 20; i = i + 1) {
      count = count + step;
      __out(0, count & 3);
    }
    __out(15, count);
    __halt();
  }
)";

// A medium change: new global used in a new branch.
const char *CounterV3Medium = R"(
  int count;
  int step = 1;
  int threshold = 12;
  void main() {
    int i;
    for (i = 0; i < 20; i = i + 1) {
      count = count + step;
      if (count > threshold) {
        __out(0, 7);
      }
      __out(0, count & 7);
    }
    __out(15, count);
    __halt();
  }
)";

TEST(UccCompiler, InitialCompileRunsCorrectly) {
  CompileOutput Out = mustCompile(CounterV1);
  RunResult R = runImage(Out.Image);
  ASSERT_FALSE(R.Trapped) << R.TrapReason;
  EXPECT_EQ(R.DebugTrace.back(), 20);
  EXPECT_EQ(R.LedTrace.size(), 20u);
}

TEST(UccCompiler, RecordRoundTripsThroughSerialization) {
  CompileOutput Out = mustCompile(CounterV1);
  std::vector<uint8_t> Bytes = Out.Record.serialize();
  CompilationRecord Back;
  ASSERT_TRUE(CompilationRecord::deserialize(Bytes, Back));
  EXPECT_EQ(Back.FunctionNames, Out.Record.FunctionNames);
  EXPECT_EQ(Back.GlobalNames, Out.Record.GlobalNames);
  ASSERT_EQ(Back.FinalCode.size(), Out.Record.FinalCode.size());
  EXPECT_EQ(Back.FinalCode[0]->print(), Out.Record.FinalCode[0]->print());
  EXPECT_EQ(Back.GlobalLayout.Words, Out.Record.GlobalLayout.Words);
}

TEST(UccCompiler, UccRecompileBehavesIdentically) {
  CompileOutput V1 = mustCompile(CounterV1);
  CompileOutput V2 = mustRecompile(CounterV3Medium, V1.Record, uccOptions());

  RunResult RBase = runImage(
      mustCompile(CounterV3Medium).Image);
  RunResult RUcc = runImage(V2.Image);
  ASSERT_FALSE(RUcc.Trapped) << RUcc.TrapReason;
  EXPECT_TRUE(RBase.sameObservableBehavior(RUcc))
      << "update-conscious code must behave like baseline code";
}

TEST(UccCompiler, UccBeatsBaselineOnSmallChange) {
  CompileOutput V1 = mustCompile(CounterV1);

  CompileOptions Baseline; // update-oblivious
  CompileOutput V2Base = mustRecompile(CounterV2Small, V1.Record, Baseline);
  CompileOutput V2Ucc = mustRecompile(CounterV2Small, V1.Record,
                                      uccOptions());

  int DiffBase = diffImages(V1.Image, V2Base.Image).totalDiffInst();
  int DiffUcc = diffImages(V1.Image, V2Ucc.Image).totalDiffInst();
  EXPECT_LE(DiffUcc, DiffBase);
  // The change touches one constant; UCC should keep the diff tiny.
  EXPECT_LE(DiffUcc, 4);
}

TEST(UccCompiler, UccBeatsBaselineOnMediumChange) {
  CompileOutput V1 = mustCompile(CounterV1);

  CompileOptions Baseline;
  CompileOutput V2Base = mustRecompile(CounterV3Medium, V1.Record, Baseline);
  CompileOutput V2Ucc =
      mustRecompile(CounterV3Medium, V1.Record, uccOptions());

  int DiffBase = diffImages(V1.Image, V2Base.Image).totalDiffInst();
  int DiffUcc = diffImages(V1.Image, V2Ucc.Image).totalDiffInst();
  EXPECT_LE(DiffUcc, DiffBase);
}

TEST(UccCompiler, PatchedImageMatchesFreshImage) {
  CompileOutput V1 = mustCompile(CounterV1);
  CompileOutput V2 = mustRecompile(CounterV3Medium, V1.Record, uccOptions());

  UpdatePackage Pkg = makeUpdate(V1, V2);
  EXPECT_GT(Pkg.ScriptBytes, 0u);

  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(V1.Image, Pkg.Update, Patched));
  EXPECT_EQ(Patched.Code, V2.Image.Code);
  EXPECT_EQ(Patched.DataInit, V2.Image.DataInit);

  RunResult A = runImage(V2.Image);
  RunResult B = runImage(Patched);
  EXPECT_TRUE(A.sameObservableBehavior(B));
}

TEST(UccCompiler, ScriptSmallerThanFullImageForSmallChange) {
  CompileOutput V1 = mustCompile(CounterV1);
  CompileOutput V2 = mustRecompile(CounterV2Small, V1.Record, uccOptions());
  UpdatePackage Pkg = makeUpdate(V1, V2);
  EXPECT_LT(Pkg.ScriptBytes, V2.Image.transmitBytes() / 4)
      << "a one-constant change must not retransmit the image";
}

TEST(UccCompiler, IdenticalSourceProducesEmptyDiff) {
  CompileOutput V1 = mustCompile(CounterV1);
  CompileOutput V2 = mustRecompile(CounterV1, V1.Record, uccOptions());
  EXPECT_EQ(diffImages(V1.Image, V2.Image).totalDiffInst(), 0)
      << "recompiling unchanged source must reproduce the old binary";
}

TEST(UccCompiler, NewFunctionIsTransmittedWhole) {
  CompileOutput V1 = mustCompile(CounterV1);
  const char *WithHelper = R"(
    int count;
    int step = 1;
    int scale(int x) { return x * 3; }
    void main() {
      int i;
      for (i = 0; i < 20; i = i + 1) {
        count = count + step;
        __out(0, count & 7);
      }
      __out(15, scale(count));
      __halt();
    }
  )";
  CompileOutput V2 = mustRecompile(WithHelper, V1.Record, uccOptions());
  UpdatePackage Pkg = makeUpdate(V1, V2);
  const FunctionDiff *FD = Pkg.Diff.find("scale");
  ASSERT_NE(FD, nullptr);
  EXPECT_EQ(FD->OldCount, 0);
  EXPECT_GT(FD->NewCount, 0);

  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(V1.Image, Pkg.Update, Patched));
  EXPECT_EQ(Patched.Code, V2.Image.Code);
}

TEST(UccCompiler, DeletedFunctionCostsNothing) {
  const char *WithTwo = R"(
    int helper(int x) { return x + 1; }
    void main() { __out(15, helper(4)); __halt(); }
  )";
  const char *WithOne = R"(
    void main() { __out(15, 5); __halt(); }
  )";
  CompileOutput V1 = mustCompile(WithTwo);
  CompileOutput V2 = mustRecompile(WithOne, V1.Record, uccOptions());
  UpdatePackage Pkg = makeUpdate(V1, V2);
  const FunctionDiff *FD = Pkg.Diff.find("helper");
  ASSERT_NE(FD, nullptr);
  EXPECT_EQ(FD->NewCount, 0);
  EXPECT_EQ(FD->diffInst(), 0);

  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(V1.Image, Pkg.Update, Patched));
  RunResult A = runImage(V2.Image);
  RunResult B = runImage(Patched);
  EXPECT_TRUE(A.sameObservableBehavior(B));
}

TEST(UccCompiler, HighCntDisablesMovInsertion) {
  // With an astronomically high execution count, UCC-RA must refuse to
  // insert runtime movs (the paper: it falls back to baseline quality).
  CompileOutput V1 = mustCompile(CounterV1);
  CompileOptions Opts = uccOptions();
  Opts.Ucc.Cnt = 1e12;
  CompileOutput V2 = mustRecompile(CounterV3Medium, V1.Record, Opts);
  for (const UccAllocStats &S : V2.RegAllocStats)
    EXPECT_EQ(S.InsertedMovs, 0);
}

TEST(UccCompiler, AllAllocationsValidate) {
  CompileOutput V1 = mustCompile(CounterV1);
  CompileOutput V2 = mustRecompile(CounterV3Medium, V1.Record, uccOptions());
  for (const auto &MF : V2.Record.FinalCode) {
    auto Problems = validateAllocation(*MF);
    EXPECT_TRUE(Problems.empty())
        << (Problems.empty() ? "" : Problems[0]);
  }
}

// A function whose register file is full at one position: seven values
// live across the whole loop plus five temporaries leave no register for
// the two-position temporary defined there. UCC-RA's spill rounds never
// converge on it; the allocator must hand the function to linear scan
// instead of shipping an image with unassigned virtual registers.
const char *FullRegisterFile = R"(
int g0 = 8;
int stage_0(int x) {
  int a0 = 14;
  int a1 = 97;
  int a2 = 61;
  int a3 = 41;
  int a4 = 23;
  int i = 0;
  while (i < 5) {
    a2 = ((a2 + 270) / 6);
    a3 = ((747 >> 2) | (a4 >> 1));
    a4 = ((a1 | a3) * 5);
    if (((a2 >> 2) > 6)) {
      a4 = ((a0 & x) & (x >> 4));
    }
    i = i + 1;
  }
  g0 = (g0 + a2);
  return (((i | 706) | (i | a3)) & 32767);
}
void main() {
  int t = 0;
  t = stage_0(5);
  __out(15, g0);
  __halt();
}
)";

TEST(UccCompiler, NonConvergingFunctionFallsBackToLinearScan) {
  CompileOutput V1 = mustCompile(FullRegisterFile);
  RunResult Fresh = runImage(V1.Image);
  ASSERT_TRUE(Fresh.Halted) << Fresh.TrapReason;
  EXPECT_EQ(Fresh.DebugTrace, std::vector<int16_t>{62});

  Telemetry T;
  CompileOutput V2 = [&] {
    TelemetryScope Scope(T);
    return mustRecompile(FullRegisterFile, V1.Record, uccOptions());
  }();
  EXPECT_EQ(T.counter("ra.ucc_fallbacks"), 1) << "stage_0 only";
  for (const auto &MF : V2.Record.FinalCode)
    EXPECT_TRUE(validateAllocation(*MF).empty()) << MF->Name;
  RunResult Updated = runImage(V2.Image);
  ASSERT_TRUE(Updated.Halted) << Updated.TrapReason;
  EXPECT_EQ(Updated.DebugTrace, std::vector<int16_t>{62});
}

} // namespace
