//===- tests/UccHybridTest.cpp - ILP strategy through the real pipeline ---===//

#include "core/Compiler.h"
#include "regalloc/Validator.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

CompileOutput mustCompile(const std::string &Source) {
  DiagnosticEngine Diag;
  auto Out = Compiler::compile(Source, CompileOptions(), Diag);
  EXPECT_TRUE(Out.has_value()) << Diag.str();
  return std::move(*Out);
}

TEST(UccHybrid, IlpStrategySolvesStraightLineFunctions) {
  const UpdateCase &Case = updateCases()[2]; // case 3: CntToRfm am_type
  CompileOutput V1 = mustCompile(Case.OldSource);

  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  Opts.Ucc.Strategy = UccStrategy::Hybrid;
  Opts.Ucc.IlpMaxBinaries = 2000;

  DiagnosticEngine Diag;
  auto V2 = Compiler::recompile(Case.NewSource, V1.Record, Opts, Diag);
  ASSERT_TRUE(V2.has_value()) << Diag.str();

  // At least one straight-line function must have gone through the ILP.
  bool AnyIlp = false;
  for (const UccAllocStats &S : V2->RegAllocStats)
    AnyIlp |= S.UsedIlp;
  EXPECT_TRUE(AnyIlp);

  // Allocations validate and behavior matches a fresh baseline build.
  for (const auto &MF : V2->Record.FinalCode) {
    auto Problems = validateAllocation(*MF);
    EXPECT_TRUE(Problems.empty()) << (Problems.empty() ? "" : Problems[0]);
  }
  RunResult Fresh = runImage(mustCompile(Case.NewSource).Image);
  RunResult Ucc = runImage(V2->Image);
  ASSERT_FALSE(Ucc.Trapped) << Ucc.TrapReason;
  EXPECT_TRUE(Fresh.sameObservableBehavior(Ucc));
}

TEST(UccHybrid, IlpNeverWorseThanGreedyOnUpdateCases) {
  // Compare Diff_inst of the two engines on the small cases.
  for (int CaseIdx : {0, 2, 4}) {
    const UpdateCase &Case = updateCases()[static_cast<size_t>(CaseIdx)];
    CompileOutput V1 = mustCompile(Case.OldSource);

    CompileOptions Greedy;
    Greedy.RA = RegAllocKind::UpdateConscious;
    Greedy.Ucc.Strategy = UccStrategy::Greedy;

    CompileOptions Hybrid = Greedy;
    Hybrid.Ucc.Strategy = UccStrategy::Hybrid;
    Hybrid.Ucc.IlpMaxBinaries = 2000;

    DiagnosticEngine Diag;
    auto VGreedy = Compiler::recompile(Case.NewSource, V1.Record, Greedy,
                                       Diag);
    auto VHybrid = Compiler::recompile(Case.NewSource, V1.Record, Hybrid,
                                       Diag);
    ASSERT_TRUE(VGreedy.has_value() && VHybrid.has_value()) << Diag.str();

    int DiffGreedy =
        diffImages(V1.Image, VGreedy->Image).totalDiffInst();
    int DiffHybrid =
        diffImages(V1.Image, VHybrid->Image).totalDiffInst();
    // Both engines optimize the same objective; the ILP is optimal per
    // straight-line function, so it must not lose by more than noise from
    // multi-block functions (where both fall back to greedy).
    EXPECT_LE(DiffHybrid, DiffGreedy + 2) << "case " << Case.Id;
  }
}

} // namespace
