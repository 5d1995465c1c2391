//===- perfbench/src/ReleaseTrain.cpp - the compile-bound workload --------===//
//
// A seeded multi-function firmware committed as a long chain of releases.
// One operation = PlanService::commit (UCC-DA, with GCC-RA unless --ra ucc)
// of the next release, plan(parent, new), and applyUpdate on the parent
// image. The compiler and the compile cache do almost all the work; the
// serving layer sees one miss per release and the network nothing.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "regalloc/UccIlpModel.h"
#include "serve/PlanService.h"

#include <cstdio>
#include <new>
#include <stdexcept>

namespace pb {

namespace {

constexpr int SetupReps = 15; // the set-up is short, so take many
constexpr size_t OpsPerWindow = 20;

ucc::PlanServiceOptions serviceOptions() {
  ucc::PlanServiceOptions O;
  O.CacheCapacity = 64;
  O.Shards = 8;
  return O;
}

[[noreturn]] void die(const char *What, const ucc::DiagnosticEngine &D) {
  std::fprintf(stderr, "release-train: %s\n%s", What, D.str().c_str());
  throw std::runtime_error(What);
}

/// The GCC-RA counterfactual of \p Src against \p Old (untimed).
ucc::BinaryImage counterfactual(const std::string &Src,
                                const ucc::CompilationRecord &Old, int Jobs) {
  ucc::DiagnosticEngine D;
  auto Out = ucc::Compiler::recompile(Src, Old, gccOptions(Jobs), D);
  if (!Out)
    die("GCC-RA counterfactual failed to compile", D);
  return std::move(Out->Image);
}

} // namespace

RunOutput runReleaseTrain(const Config &C) {
  RunOutput Out;
  const ucc::CompileOptions Commit = commitOptions(C.UccRa, C.Jobs);

  // Set-up: the initial compile and the first update, from cold (the
  // window memo cache is process-global). Repeated so setup_s is a median;
  // returns its time. H counts the first update's edits.
  std::unique_ptr<ucc::PlanService> Svc;
  Program Model;
  Rng Edits(0);
  std::array<int, NumEditKinds> Hist{};
  ucc::BinaryImage Patched1;
  auto setUp = [&](std::array<int, NumEditKinds> &H) {
    ucc::clearWindowCache();
    Model = generateFirmware(C.Seed);
    Edits = Rng(C.Seed * 0x9e3779b97f4a7c15ULL + 1);
    ucc::DiagnosticEngine D;
    double T0 = nowS();
    auto S = std::make_unique<ucc::PlanService>(ucc::VersionStore(),
                                                serviceOptions());
    if (S->commit(render(Model), Commit, D) != 0)
      die("initial compile failed", D);
    applyRelease(Model, Edits, H);
    if (S->commit(render(Model), Commit, D) != 1)
      die("first update failed", D);
    auto P = S->plan(0, 1);
    if (!P || !ucc::applyUpdate(S->store().find(0)->Image, P->Update, Patched1))
      die("first update does not apply", D);
    double Took = nowS() - T0;
    Svc = std::move(S);
    return Took;
  };
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Hist = {};
    Out.SetupS.push_back(setUp(Hist));
  }

  // Check the set-up update and prove the check catches a corrupted image.
  const ucc::BinaryImage FirstImg = Svc->store().find(1)->Image;
  uint64_t FirstCycles = 0;
  {
    Observed Exp = evaluate(Model);
    ucc::BinaryImage Gcc =
        counterfactual(render(Model), Svc->store().find(0)->Record, C.Jobs);
    ReleaseCheck RC = checkRelease(Exp, Patched1, FirstImg, Gcc);
    ++Out.Attempted;
    if (!RC.Ok) {
      ++Out.Failed;
      std::fprintf(stderr, "release-train: first update: %s\n", RC.Failure);
    }
    FirstCycles = RC.UccCycles;
    Out.SelfCheckFlagged = corruptedImageIsFlagged(Exp, Patched1, Gcc);
  }
  ucc::BinaryImage ParentImg = FirstImg;
  uint64_t ParentCycles = FirstCycles;

  Recorder Rec;
  double Deadline = nowS() + C.Seconds;
  uint64_t Op = 0;
  for (; nowS() < Deadline || Op < static_cast<uint64_t>(LedgerOps); ++Op) {
    // After LedgerOps releases the chain starts over from the set-up state
    // (untimed), so the releases a run measures and the memory it holds do
    // not grow with the speed of the host.
    if (Op > 0 && Op % LedgerOps == 0) {
      std::array<int, NumEditKinds> Again{};
      setUp(Again);
      ParentImg = FirstImg;
      ParentCycles = FirstCycles;
    }
    const ucc::VersionStore &Store = Svc->store();
    const bool Traced = C.Trace && Op % 2 == 0;
    applyRelease(Model, Edits, Hist);
    std::string Src = render(Model);
    const int Parent = Svc->latestId();
    ucc::DiagnosticEngine D;
    int Id = -1;
    std::shared_ptr<const ucc::UpdatePlan> Plan;
    ucc::BinaryImage Patched;
    bool Applied = false;

    double T0 = nowS();
    try {
      TraceScope TS(Traced ? &Rec : nullptr, Op);
      Span OpSpan("op");
      {
        Span S("PlanService::commit");
        Id = Svc->commit(Src, Commit, D);
      }
      if (Id >= 0) {
        Span S("PlanService::plan");
        Plan = Svc->plan(Parent, Id);
      }
      if (Plan) {
        Span S("applyUpdate");
        Applied = ucc::applyUpdate(ParentImg, Plan->Update, Patched);
      }
    } catch (const std::bad_alloc &) {
      // The service may be left half-updated; the run ends here.
      std::fprintf(stderr, "release-train: release %llu ran out of memory\n",
                   static_cast<unsigned long long>(Op));
      ++Out.Attempted;
      ++Out.Failed;
      break;
    }
    double Ms = (nowS() - T0) * 1e3;
    (Traced ? Out.TracedOpMs : Out.OpMs).push_back(Ms);
    ++Out.Attempted;

    // Untimed: the correctness checks and the ledger.
    if (Id < 0 || !Plan || !Applied) {
      ++Out.Failed;
      continue;
    }
    const ucc::StoredVersion &New = *Store.find(Id);
    ucc::BinaryImage Gcc =
        counterfactual(Src, Store.find(Parent)->Record, C.Jobs);
    ReleaseCheck RC = checkRelease(evaluate(Model), Patched, New.Image, Gcc,
                                   Traced ? &Rec : nullptr);
    if (!RC.Ok) {
      ++Out.Failed;
      std::fprintf(stderr, "release-train: release %llu: %s\n",
                   static_cast<unsigned long long>(Op), RC.Failure);
    }
    if (Op < static_cast<uint64_t>(LedgerOps))
      addToLedger(Out.L, ParentImg, ParentCycles, New.Image, RC.UccCycles, Gcc,
                  RC.GccCycles, Plan->ScriptBytes, C.Jobs);
    ParentImg = New.Image;
    ParentCycles = RC.UccCycles;
  }

  chunkWindows(Out, OpsPerWindow);

  std::printf("# release-train: %zu functions (%d straight-line), %llu "
              "releases after set-up (the chain starts over every %d)\n",
              Model.Functions.size(), countStraightLine(Model),
              static_cast<unsigned long long>(Op), LedgerOps);
  std::printf("# edit kinds:");
  for (int K = 0; K < NumEditKinds; ++K)
    std::printf(" %s=%d", editKindName(K), Hist[static_cast<size_t>(K)]);
  std::printf("\n");

  if (C.Trace) {
    attributeLayers(Rec, static_cast<int>(Out.TracedOpMs.size()),
                    Out.TracedOpMs, Out.OpMs, Out.Layer);
    Out.Spans = std::move(Rec.Spans);
  }
  return Out;
}

} // namespace pb
