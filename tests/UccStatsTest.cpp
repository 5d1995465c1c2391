//===- tests/UccStatsTest.cpp - UCC-RA bookkeeping and chunking -----------===//
//
// The allocator's statistics feed both the evaluation harness and the
// compiler's own decisions; this suite pins down their meaning on real
// recompilations.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
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

CompileOutput recompileUcc(const std::string &Source,
                           const CompilationRecord &Old, int ChunkK = 3) {
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  Opts.Ucc.ChunkK = ChunkK;
  DiagnosticEngine Diag;
  auto Out = Compiler::recompile(Source, Old, Opts, Diag);
  EXPECT_TRUE(Out.has_value()) << Diag.str();
  return std::move(*Out);
}

TEST(UccStats, UnchangedSourceMatchesEverythingAndBreaksNothing) {
  const std::string &Src = workloadSource("CntToLeds");
  CompileOutput V1 = mustCompile(Src);
  CompileOutput V2 = recompileUcc(Src, V1.Record);

  int Total = 0, Matched = 0, Broken = 0, Movs = 0;
  for (const UccAllocStats &S : V2.RegAllocStats) {
    Total += S.TotalInstrs;
    Matched += S.MatchedInstrs;
    Broken += S.PrefBroken;
    Movs += S.InsertedMovs;
  }
  EXPECT_EQ(Matched, Total) << "identical source must fully align";
  EXPECT_EQ(Broken, 0);
  EXPECT_EQ(Movs, 0);
}

TEST(UccStats, SmallEditKeepsMostInstructionsMatched) {
  const UpdateCase &Case = updateCases()[0]; // case 1
  CompileOutput V1 = mustCompile(Case.OldSource);
  CompileOutput V2 = recompileUcc(Case.NewSource, V1.Record);

  int Total = 0, Matched = 0, Honored = 0;
  for (const UccAllocStats &S : V2.RegAllocStats) {
    Total += S.TotalInstrs;
    Matched += S.MatchedInstrs;
    Honored += S.PrefHonored;
  }
  EXPECT_GT(Matched, Total * 9 / 10)
      << "a one-constant edit must align >90% of the code";
  EXPECT_GT(Honored, 0);
}

TEST(UccStats, HugeChunkThresholdDegradesGracefully) {
  // With K larger than every unchanged run, everything folds into one
  // changed chunk: no anchors survive, yet the compiler must still produce
  // correct (and still fairly similar, via soft preferences) code.
  const UpdateCase &Case = updateCases()[7]; // case 8
  CompileOutput V1 = mustCompile(Case.OldSource);
  CompileOutput Tight = recompileUcc(Case.NewSource, V1.Record, /*K=*/3);
  CompileOutput Slack = recompileUcc(Case.NewSource, V1.Record,
                                     /*K=*/10000);

  int DiffTight = diffImages(V1.Image, Tight.Image).totalDiffInst();
  int DiffSlack = diffImages(V1.Image, Slack.Image).totalDiffInst();
  EXPECT_LE(DiffTight, DiffSlack)
      << "anchoring (small K) must not lose to no anchoring";
}

TEST(UccStats, StatsArePerFunctionAndCoverAllFunctions) {
  const std::string &Src = workloadSource("Blink");
  CompileOutput V1 = mustCompile(Src);
  CompileOutput V2 = recompileUcc(Src, V1.Record);
  EXPECT_EQ(V2.RegAllocStats.size(), V2.Record.FinalCode.size());
  for (size_t F = 0; F < V2.RegAllocStats.size(); ++F)
    EXPECT_EQ(V2.RegAllocStats[F].TotalInstrs,
              V2.Record.FinalCode[F]->instrCount());
}

} // namespace
