//===- tests/JobsDeterminismTest.cpp - --jobs 1 vs --jobs 8 ---------------===//
//
// The parallel pipeline's output contract: the job count schedules work,
// it never changes results. Compiling and recompiling the workload update
// cases with Jobs=1 and Jobs=8 must produce byte-identical binary images
// and byte-identical edit scripts.
//
//===----------------------------------------------------------------------===//

#include "core/CompileCache.h"
#include "core/Compiler.h"
#include "core/VersionStore.h"
#include "diff/ImageDiff.h"
#include "support/RNG.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

CompileOutput mustCompile(const std::string &Source, CompileOptions Opts) {
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

CompileOptions uccOptions(int Jobs) {
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  Opts.Jobs = Jobs;
  return Opts;
}

TEST(JobsDeterminism, UpdateCasesBitIdenticalAcrossJobs) {
  // A handful of representative cases keeps the test fast while still
  // covering multi-function programs where the parallel RA loop actually
  // fans out.
  for (const UpdateCase &Case : updateCases()) {
    if (Case.Id > 6)
      break;

    CompileOutput Old1 = mustCompile(Case.OldSource, uccOptions(1));
    CompileOutput Old8 = mustCompile(Case.OldSource, uccOptions(8));
    EXPECT_EQ(Old1.Image.serialize(), Old8.Image.serialize())
        << "case " << Case.Id << " (" << Case.Description
        << "): initial compile differs across job counts";

    CompileOutput New1 =
        mustRecompile(Case.NewSource, Old1.Record, uccOptions(1));
    CompileOutput New8 =
        mustRecompile(Case.NewSource, Old1.Record, uccOptions(8));
    EXPECT_EQ(New1.Image.serialize(), New8.Image.serialize())
        << "case " << Case.Id << " (" << Case.Description
        << "): recompile differs across job counts";

    // The artifact the paper cares about — the over-the-air edit script —
    // must also be byte-identical.
    ImageUpdate Script1 = makeImageUpdate(Old1.Image, New1.Image);
    ImageUpdate Script8 = makeImageUpdate(Old8.Image, New8.Image);
    EXPECT_EQ(Script1.serialize(), Script8.serialize())
        << "case " << Case.Id << " (" << Case.Description
        << "): edit script differs across job counts";
  }
}

TEST(JobsDeterminism, UpdateCasesBitIdenticalAcrossJobsAndCache) {
  // The full jobs x cache sweep: the function-level compile cache is an
  // optimization, never a different pipeline. Every configuration must
  // produce byte-identical images and edit scripts.
  for (const UpdateCase &Case : updateCases()) {
    if (Case.Id > 4)
      break;

    std::vector<uint8_t> RefImage, RefScript;
    bool HaveRef = false;
    for (int Jobs : {1, 8}) {
      for (bool Cached : {false, true}) {
        CompileCache Cache;
        CompileOptions Opts = uccOptions(Jobs);
        if (Cached)
          Opts.Cache = &Cache;

        CompileOutput Old = mustCompile(Case.OldSource, Opts);
        CompileOutput New =
            mustRecompile(Case.NewSource, Old.Record, Opts);
        std::vector<uint8_t> Image = New.Image.serialize();
        std::vector<uint8_t> Script =
            makeImageUpdate(Old.Image, New.Image).serialize();

        if (!HaveRef) {
          RefImage = std::move(Image);
          RefScript = std::move(Script);
          HaveRef = true;
          continue;
        }
        EXPECT_EQ(Image, RefImage)
            << "case " << Case.Id << ": jobs=" << Jobs << " cache="
            << (Cached ? "on" : "off")
            << " image differs from jobs=1 cache=off";
        EXPECT_EQ(Script, RefScript)
            << "case " << Case.Id << ": jobs=" << Jobs << " cache="
            << (Cached ? "on" : "off")
            << " edit script differs from jobs=1 cache=off";
      }
    }
  }
}

TEST(JobsDeterminism, RegAllocStatsOrderedByFunction) {
  // The parallel RA loop writes per-function stats by index; the report
  // order must match Jobs=1.
  const UpdateCase &Case = updateCases().front();
  CompileOutput Out1 = mustCompile(Case.OldSource, uccOptions(1));
  CompileOutput Out8 = mustCompile(Case.OldSource, uccOptions(8));
  ASSERT_EQ(Out1.RegAllocStats.size(), Out8.RegAllocStats.size());
  for (size_t F = 0; F < Out1.RegAllocStats.size(); ++F) {
    EXPECT_EQ(Out1.RegAllocStats[F].TotalInstrs,
              Out8.RegAllocStats[F].TotalInstrs)
        << "function " << F;
    EXPECT_EQ(Out1.RegAllocStats[F].InsertedMovs,
              Out8.RegAllocStats[F].InsertedMovs)
        << "function " << F;
    EXPECT_EQ(Out1.RegAllocStats[F].IlpPivots,
              Out8.RegAllocStats[F].IlpPivots)
        << "function " << F;
  }
}

TEST(JobsDeterminism, ParallelDiffingBitIdenticalAcrossJobs) {
  // Per-function diffing fans out over the pool; the update package and
  // every diff.* counter (telemetry merges in item order) must be
  // independent of the job count. The synthetic functions are half of
  // MaxAlignWords, so each pool worker aligns a 16 MiB LCS table.
  RNG Rng(2024);
  auto makeImage = [&](bool Mutated) {
    RNG Gen(7); // same base content for both images
    BinaryImage Img;
    Img.EntryFunc = 0;
    for (int F = 0; F < 6; ++F) {
      FunctionSpan Span;
      Span.Name = "fn" + std::to_string(F);
      Span.Start = static_cast<uint32_t>(Img.Code.size());
      Span.Count = 2048;
      for (int K = 0; K < 2048; ++K)
        Img.Code.push_back(static_cast<uint32_t>(Gen.below(1u << 20)));
      if (Mutated)
        for (int K = 0; K < 200; ++K)
          Img.Code[Span.Start + Rng.below(Span.Count)] =
              static_cast<uint32_t>(Rng.below(1u << 20));
      Img.Functions.push_back(std::move(Span));
    }
    return Img;
  };
  BinaryImage Old = makeImage(false);
  BinaryImage New = makeImage(true);

  std::vector<uint8_t> Packages[2];
  std::map<std::string, int64_t> Counters[2];
  int Idx = 0;
  for (int Jobs : {1, 8}) {
    Telemetry T;
    T.declareStandardCounters();
    {
      TelemetryScope Scope(T);
      Packages[Idx] = makeImageUpdate(Old, New, Jobs).serialize();
      diffImages(Old, New, Jobs);
    }
    Counters[Idx] = T.counters();
    ++Idx;
  }
  EXPECT_EQ(Packages[0], Packages[1])
      << "edit scripts must be byte-identical across job counts";
  EXPECT_GT(Counters[0].at("diff.scripts"), 0);
  EXPECT_EQ(Counters[0], Counters[1])
      << "diff.* counters must be identical across job counts";
}

TEST(JobsDeterminism, SharedRecordsIdenticalAcrossJobs) {
  // Records share machine code with their parents and with the compile
  // cache. A cached chain committed at 1 and at 8 jobs must store the
  // same records and share them alike: the same number of distinct
  // function objects, and the same sharing pattern version by version.
  const UpdateCase &Case = updateCases()[2];
  std::vector<std::string> Sources = {Case.OldSource, Case.NewSource,
                                      Case.OldSource, Case.NewSource};
  VersionStore Stores[2];
  CompileCache Caches[2];
  const int JobCounts[2] = {1, 8};
  for (int K = 0; K < 2; ++K) {
    CompileOptions Opts = uccOptions(JobCounts[K]);
    Opts.Cache = &Caches[K];
    DiagnosticEngine Diag;
    for (size_t V = 0; V < Sources.size(); ++V) {
      int Id = V == 0 ? Stores[K].addInitial(Sources[V], Opts, Diag)
                      : Stores[K].addUpdate(Sources[V], Opts, Diag);
      ASSERT_EQ(Id, static_cast<int>(V)) << Diag.str();
    }
  }
  EXPECT_EQ(Stores[0].storedFunctions(), Stores[1].storedFunctions());
  for (int Id = 0; Id < static_cast<int>(Sources.size()); ++Id) {
    const CompilationRecord &A = Stores[0].find(Id)->Record;
    const CompilationRecord &B = Stores[1].find(Id)->Record;
    EXPECT_EQ(A.serialize(), B.serialize()) << "v" << Id;
    EXPECT_TRUE(A == B) << "v" << Id;
    if (Id == 0)
      continue;
    const CompilationRecord &PA = Stores[0].find(Id - 1)->Record;
    const CompilationRecord &PB = Stores[1].find(Id - 1)->Record;
    for (size_t F = 0; F < A.FinalCode.size(); ++F)
      EXPECT_EQ(A.FinalCode[F] == PA.FinalCode[F],
                B.FinalCode[F] == PB.FinalCode[F])
          << "v" << Id << " " << A.FunctionNames[F];
  }
}

TEST(JobsDeterminism, VersionStoreChainMatchesManualChainAcrossJobs) {
  // Driving v1 -> v2 -> v3 through the store must be byte-identical to
  // the hand-rolled compile/recompile chain, at every job count — the
  // store is bookkeeping, never a different pipeline.
  const UpdateCase &Case = updateCases()[2];
  for (int Jobs : {1, 8}) {
    VersionStore Store;
    DiagnosticEngine Diag;
    ASSERT_EQ(Store.addInitial(Case.OldSource, uccOptions(Jobs), Diag), 0)
        << Diag.str();
    ASSERT_EQ(Store.addUpdate(Case.NewSource, uccOptions(Jobs), Diag), 1)
        << Diag.str();
    ASSERT_EQ(Store.addUpdate(Case.OldSource, uccOptions(Jobs), Diag), 2)
        << Diag.str();

    CompileOutput V1 = mustCompile(Case.OldSource, uccOptions(Jobs));
    CompileOutput V2 =
        mustRecompile(Case.NewSource, V1.Record, uccOptions(Jobs));
    CompileOutput V3 =
        mustRecompile(Case.OldSource, V2.Record, uccOptions(Jobs));

    EXPECT_EQ(Store.find(0)->Image.serialize(), V1.Image.serialize())
        << "jobs=" << Jobs;
    EXPECT_EQ(Store.find(1)->Image.serialize(), V2.Image.serialize())
        << "jobs=" << Jobs;
    EXPECT_EQ(Store.find(2)->Image.serialize(), V3.Image.serialize())
        << "jobs=" << Jobs;
    EXPECT_EQ(Store.find(2)->Record.serialize(), V3.Record.serialize())
        << "jobs=" << Jobs;
  }

  // And the planned packages agree across job counts.
  VersionStore S1, S8;
  for (auto [Store, Jobs] : {std::pair<VersionStore *, int>{&S1, 1},
                             {&S8, 8}}) {
    DiagnosticEngine Diag;
    ASSERT_EQ(Store->addInitial(Case.OldSource, uccOptions(Jobs), Diag),
              0);
    ASSERT_EQ(Store->addUpdate(Case.NewSource, uccOptions(Jobs), Diag), 1);
    ASSERT_EQ(Store->addUpdate(Case.OldSource, uccOptions(Jobs), Diag), 2);
  }
  auto P1 = S1.plan(0, 2);
  auto P8 = S8.plan(0, 2);
  ASSERT_TRUE(P1.has_value() && P8.has_value());
  EXPECT_EQ(P1->Route, P8->Route);
  EXPECT_EQ(P1->Update.serialize(), P8->Update.serialize());
}

} // namespace
