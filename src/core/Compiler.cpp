//===- core/Compiler.cpp - the update-conscious compiler driver -----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the Compiler facade: the shared front half (parse,
/// verify, optimize, reusing unchanged functions when a cache is given),
/// the back half (ISel, register allocation, data
/// layout, encoding), record construction, update packaging, and the
/// profile-to-freq(s) bridge. Every phase runs under a telemetry span so a
/// `--trace-json` capture shows the full per-phase breakdown.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "analysis/IRAnalysis.h"
#include "codegen/ISel.h"
#include "core/CompileCache.h"
#include "frontend/IRGen.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "regalloc/LinearScan.h"
#include "regalloc/Validator.h"
#include "support/Interner.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <string_view>

using namespace ucc;

namespace {

/// Shifts every source line of \p F by \p Delta; a location that names
/// no line stays unset.
void shiftLines(Function &F, int64_t Delta) {
  if (Delta == 0)
    return;
  for (BasicBlock &BB : F.Blocks)
    for (Instr &I : BB.Instrs)
      if (I.Loc.isValid())
        I.Loc.Line = static_cast<unsigned>(I.Loc.Line + Delta);
}

const std::string &nameOf(const GlobalDecl &D) { return D.Name; }
const std::string &nameOf(const FuncDecl &D) { return D.Name; }
const std::string &nameOf(const std::shared_ptr<const FrontFunction> &E) {
  return E->IR.Name;
}

/// The position of the element of \p Items named \p Name, tried at \p Hint
/// first (a declaration that did not move keeps its position); -1 when
/// there is none.
template <typename T>
int findByName(const std::vector<T> &Items, std::string_view Name,
               size_t Hint) {
  if (Hint < Items.size() && nameOf(Items[Hint]) == Name)
    return static_cast<int>(Hint);
  for (size_t I = 0; I < Items.size(); ++I)
    if (nameOf(Items[I]) == Name)
      return static_cast<int>(I);
  return -1;
}

/// Fills \p To with the indices \p E's declarations have in \p Program,
/// in E.Refs' order; false when one of them is gone or declared
/// differently.
bool resolve(const FrontFunction &E, const ProgramAST &Program,
             SymbolRefs &To) {
  To.Globals.clear();
  for (size_t K = 0; K < E.Globals.size(); ++K) {
    const DeclRef &R = E.Globals[K];
    int G = findByName(Program.Globals, R.Name,
                       static_cast<size_t>(E.Refs.Globals[K]));
    if (G < 0 || Program.Globals[static_cast<size_t>(G)].ArraySize != R.Size)
      return false;
    To.Globals.push_back(G);
  }
  To.Callees.clear();
  for (size_t K = 0; K < E.Callees.size(); ++K) {
    const DeclRef &R = E.Callees[K];
    int C = findByName(Program.Functions, R.Name,
                       static_cast<size_t>(E.Refs.Callees[K]));
    if (C < 0)
      return false;
    const FuncDecl &F = Program.Functions[static_cast<size_t>(C)];
    if (static_cast<int>(F.Params.size()) != R.Size ||
        F.ReturnsInt != R.ReturnsInt)
      return false;
    To.Callees.push_back(C);
  }
  return true;
}

/// The front half with per-function reuse. The file is lexed and its top
/// level parsed. A function whose entry in the table (found by name) has
/// its text and start column, and whose referenced declarations resolve
/// alike, is copied from the table, re-bound to this module's indices
/// and shifted to its lines. Every other function is parsed, lowered,
/// verified and optimized. The table then holds this compile's functions.
/// Returns nullopt, or leaves a diagnostic in \p Diag, when the plain
/// front half must decide instead.
std::optional<Module> reusingFrontHalf(const std::string &Source,
                                       CompileCache &Cache,
                                       DiagnosticEngine &Diag) {
  std::shared_ptr<const FrontTable> Old = Cache.frontTable();
  auto Next = std::make_shared<FrontTable>();
  /// The misses by index; the IR is filled in once optimized.
  std::vector<std::pair<size_t, FrontFunction>> Missed;
  Module M;
  {
    ScopedSpan Span("parse");
    OutlineParser Outline(Source, Diag);
    if (Diag.hasErrors())
      return std::nullopt;
    const ProgramAST &Program = Outline.program();
    IRGen Gen(Program, Diag);
    if (!Gen.declare())
      return std::nullopt;
    size_t NumFns = Program.Functions.size();
    Next->resize(NumFns);
    SymbolRefs To;
    for (size_t I = 0; I < NumFns; ++I) {
      SourceLoc Start = Outline.start(I);
      std::string_view Text = Outline.text(I);
      int Found = Old ? findByName(*Old, Program.Functions[I].Name, I) : -1;
      if (Found >= 0) {
        const std::shared_ptr<const FrontFunction> &Hit =
            (*Old)[static_cast<size_t>(Found)];
        if (Hit->StartCol == Start.Col && Hit->Text == Text &&
            resolve(*Hit, Program, To)) {
          Function F = Hit->IR;
          rebind(F, Hit->Refs, To);
          shiftLines(F, static_cast<int64_t>(Start.Line) - Hit->StartLine);
          Gen.adoptFunction(I, std::move(F));
          (*Next)[I] = Hit;
          continue;
        }
      }
      Outline.parseBody(I);
      if (Diag.hasErrors())
        return std::nullopt;
      Gen.lowerFunction(I);
      FrontFunction &E = Missed.emplace_back(I, FrontFunction()).second;
      E.Text = Text;
      E.StartCol = Start.Col;
      E.StartLine = Start.Line;
    }
    M = Gen.finish();
    if (Diag.hasErrors() || M.EntryFunc < 0)
      return std::nullopt;
    // The declarations lowering read, taken before optimization can drop
    // a reference to one of them.
    for (auto &[I, E] : Missed) {
      E.Refs = collectRefs(M.Functions[I]);
      for (int G : E.Refs.Globals) {
        const GlobalDecl &D = Program.Globals[static_cast<size_t>(G)];
        E.Globals.push_back({D.Name, D.ArraySize, false});
      }
      for (int C : E.Refs.Callees) {
        const FuncDecl &D = Program.Functions[static_cast<size_t>(C)];
        E.Callees.push_back(
            {D.Name, static_cast<int>(D.Params.size()), D.ReturnsInt});
      }
    }
  }
  {
    ScopedSpan Span("verify");
    for (const auto &[I, E] : Missed)
      if (!verifyFunction(M, I).empty())
        return std::nullopt;
  }
  {
    ScopedSpan Span("opt");
    for (auto &[I, E] : Missed) {
      optimizeFunction(M.Functions[I]);
      E.IR = M.Functions[I];
      (*Next)[I] = std::make_shared<const FrontFunction>(std::move(E));
    }
  }
  uint64_t Hits = M.Functions.size() - Missed.size();
  Cache.storeFrontTable(std::move(Next), Hits, Missed.size());
  telemetryCount("compile.front_hits", static_cast<int64_t>(Hits));
  telemetryCount("compile.front_misses", static_cast<int64_t>(Missed.size()));
  return M;
}

/// Shared front half: parse, lower, verify, optimize. With a cache, the
/// reusing pass runs first and reports into a scratch engine; on any
/// diagnostic the plain pass runs and reports, so a malformed edit reads
/// exactly as it does without a cache.
std::optional<Module> frontHalf(const std::string &Source,
                                const CompileOptions &Opts,
                                DiagnosticEngine &Diag) {
  if (Opts.Cache) {
    DiagnosticEngine Scratch;
    std::optional<Module> M = reusingFrontHalf(Source, *Opts.Cache, Scratch);
    if (M && Scratch.diagnostics().empty())
      return M;
  }
  Module M = [&] {
    ScopedSpan Span("parse");
    return compileToIR(Source, Diag);
  }();
  if (Diag.hasErrors())
    return std::nullopt;
  if (M.EntryFunc < 0) {
    Diag.error({}, "program has no 'main' function");
    return std::nullopt;
  }
  {
    ScopedSpan Span("verify");
    std::vector<std::string> Problems = verifyModule(M);
    if (!Problems.empty()) {
      for (const std::string &P : Problems)
        Diag.error({}, "internal: IR verification failed: " + P);
      return std::nullopt;
    }
  }
  {
    ScopedSpan Span("opt");
    optimizeModule(M);
  }
  assert(moduleIsValid(M) && "optimizer broke the module");
  return M;
}

/// Builds the record from a finished compilation.
CompilationRecord
buildRecord(const Module &M,
            std::vector<std::shared_ptr<const MachineFunction>> Code,
            const DataLayoutMap &DL, const std::vector<FrameLayout> &Frames) {
  CompilationRecord Rec;
  Rec.FunctionNames.reserve(M.Functions.size());
  for (const Function &F : M.Functions)
    Rec.FunctionNames.push_back(F.Name);
  Rec.GlobalNames.reserve(M.Globals.size());
  for (const GlobalVar &G : M.Globals)
    Rec.GlobalNames.push_back(G.Name);
  Rec.FinalCode = std::move(Code);
  Rec.FrameOffsets.reserve(Frames.size());
  for (const FrameLayout &FL : Frames)
    Rec.FrameOffsets.push_back(FL.Offsets);
  Rec.GlobalLayout = toOldLayout(M, DL);
  return Rec;
}

/// Back half shared by compile and recompile: the per-function pipeline
/// (isel -> RA -> frame layout), optionally served from the function-level
/// compile cache, then module-level data layout, encoding, and record
/// assembly.
CompileOutput backHalf(Module M, const CompileOptions &Opts,
                       const CompilationRecord *OldRecord) {
  CompileOutput Out;

  bool UseUcc =
      Opts.RA == RegAllocKind::UpdateConscious && OldRecord != nullptr;
  bool UccFrames = UseUcc && Opts.DA == DataAllocKind::UpdateConscious;

  // Interned name tables for cross-version symbol resolution: symbol ids
  // instead of per-compile string-table copies, so the alignment inner
  // loop (instrsSimilar) compares integers.
  StringInterner &SI = StringInterner::global();
  SymbolTable NewGlobalSyms, NewFunctionSyms;
  NewGlobalSyms.reserve(M.Globals.size());
  for (const GlobalVar &G : M.Globals)
    NewGlobalSyms.push_back(SI.intern(G.Name));
  NewFunctionSyms.reserve(M.Functions.size());
  for (const Function &F : M.Functions)
    NewFunctionSyms.push_back(SI.intern(F.Name));
  SymbolTable OldGlobalSyms, OldFunctionSyms;
  if (UseUcc) {
    OldGlobalSyms = internNames(SI, OldRecord->GlobalNames);
    OldFunctionSyms = internNames(SI, OldRecord->FunctionNames);
  }

  uint64_t EvictionsBefore = Opts.Cache ? Opts.Cache->stats().Evictions : 0;

  int NumFns = static_cast<int>(M.Functions.size());
  std::vector<std::shared_ptr<const MachineFunction>> Code(
      static_cast<size_t>(NumFns));
  Out.RegAllocStats.resize(static_cast<size_t>(NumFns));
  std::vector<FrameLayout> Frames(static_cast<size_t>(NumFns));

  // The per-function pipelines are independent (the shared mutable state
  // — the window memo cache and the compile cache — is internally
  // synchronized), so they fan out over the thread pool. Each item runs
  // under its own telemetry registry, merged back in function order, and
  // every function's result depends only on its own inputs — the output
  // is bit-identical for every Jobs value and with the cache on or off.
  parallelFor(NumFns, Opts.Jobs, [&](int F) {
    const Function &IRF = M.Functions[static_cast<size_t>(F)];
    auto Start = std::chrono::steady_clock::now();

    int OldIdx = UseUcc ? OldRecord->findFunction(IRF.Name) : -1;
    const MachineFunction *OldFinal =
        OldIdx >= 0 ? OldRecord->FinalCode[static_cast<size_t>(OldIdx)].get()
                    : nullptr;
    const std::vector<int> *OldOffsets =
        UccFrames && OldIdx >= 0 &&
                static_cast<size_t>(OldIdx) < OldRecord->FrameOffsets.size()
            ? &OldRecord->FrameOffsets[static_cast<size_t>(OldIdx)]
            : nullptr;

    // UCC-RA inputs are part of the cache key, so they are materialized
    // before the lookup (hit or miss).
    UccAllocOptions UccOpts = Opts.Ucc;
    std::vector<double> Freq;
    if (UseUcc) {
      UccOpts.EtransInstr = Opts.Energy.instrTransmissionEnergy();
      UccOpts.EexeCycle = Opts.Energy.energyPerCycle();
      // Measured profile when the caller supplied one, else the static
      // loop-depth estimate.
      auto Profiled = Opts.ProfiledFreq.find(IRF.Name);
      if (Profiled != Opts.ProfiledFreq.end())
        Freq = Profiled->second;
      else
        Freq = statementFrequencies(IRF);
      Freq.resize(static_cast<size_t>(IRF.instrCount()), 1.0);
    }

    auto compute = [&]() -> CompiledFunction {
      CompiledFunction R;
      MachineFunction MF;
      {
        ScopedSpan Span("isel");
        MF = selectFunction(M, IRF);
      }
      {
        ScopedSpan Span("ra");
        if (UseUcc) {
          UccContext Ctx;
          Ctx.OldFinal = OldFinal;
          Ctx.OldGlobalNames = &OldGlobalSyms;
          Ctx.OldFunctionNames = &OldFunctionSyms;
          Ctx.NewGlobalNames = &NewGlobalSyms;
          Ctx.NewFunctionNames = &NewFunctionSyms;
          R.Stats = allocateUcc(MF, Ctx, UccOpts, Freq);
        } else {
          allocateLinearScan(MF);
          R.Stats = UccAllocStats{};
        }
        assert(validateAllocation(MF).empty() &&
               "register allocation failed validation");
      }
      {
        ScopedSpan Span("da");
        if (OldOffsets)
          R.Frame = layoutFrameUpdateConscious(
              MF, OldFinal->FrameObjects, *OldOffsets, Opts.UccDa);
        else
          R.Frame = layoutFrame(MF);
      }
      MF.finish();
      R.Final = std::make_shared<const MachineFunction>(std::move(MF));
      return R;
    };

    CompiledFunction R;
    if (Opts.Cache) {
      CompileKeyInputs In;
      In.F = &IRF;
      In.GlobalNames = &NewGlobalSyms;
      In.FunctionNames = &NewFunctionSyms;
      In.RAKind = static_cast<uint8_t>(Opts.RA);
      In.DAKind = static_cast<uint8_t>(Opts.DA);
      In.UseUcc = UseUcc;
      In.UccFrames = UccFrames;
      In.Ucc = &UccOpts;
      In.SpaceT = Opts.UccDa.SpaceT;
      In.Freq = &Freq;
      In.OldFinal = OldFinal;
      In.OldGlobalNames = &OldGlobalSyms;
      In.OldFunctionNames = &OldFunctionSyms;
      In.OldFrameOffsets = OldOffsets;
      // A hit may come from a module that numbers the declarations this
      // function references differently.
      SymbolRefs Refs;
      CompileCache::Key Key = CompileCache::buildKey(In, &Refs);
      auto computeWithRefs = [&]() -> CompileCache::Result {
        auto C = std::make_shared<CompiledFunction>(compute());
        C->Refs = Refs;
        return C;
      };
      bool Hit = false;
      CompileCache::Result Cached =
          Opts.Cache->lookupOrCompute(Key, computeWithRefs, &Hit);
      R.Final = rebind(Cached->Final, Cached->Refs, Refs);
      R.Frame = Cached->Frame;
      R.Stats = Cached->Stats;
      telemetryCount(Hit ? "compile.cache_hits" : "compile.cache_misses");
    } else {
      R = compute();
    }

    Code[static_cast<size_t>(F)] = std::move(R.Final);
    Frames[static_cast<size_t>(F)] = std::move(R.Frame);
    Out.RegAllocStats[static_cast<size_t>(F)] = R.Stats;
    if (currentTelemetry()) {
      currentTelemetry()->addGauge(
          "compile.arena_bytes",
          static_cast<double>(R.Stats.ArenaBytes));
      currentTelemetry()->addGauge(
          "ra.seconds." + IRF.Name,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count());
    }
  });

  // Module-level data layout (global regions).
  DataLayoutMap Layout;
  telemetryBeginSpan("da");
  if (Opts.DA == DataAllocKind::UpdateConscious && OldRecord)
    Layout = layoutGlobalsUpdateConscious(M, OldRecord->GlobalLayout,
                                          Opts.UccDa, &Out.DataAllocStats);
  else
    Layout = layoutGlobalsBaseline(M);
  telemetryEndSpan(); // da

  {
    ScopedSpan Span("encode");
    std::vector<const MachineFunction *> Functions;
    Functions.reserve(Code.size());
    for (const std::shared_ptr<const MachineFunction> &MF : Code)
      Functions.push_back(MF.get());
    Out.Image = encodeModule(Functions, M.EntryFunc, M, Layout, Frames,
                             &Out.EncodedIRIndex);
  }

  // Cache accounting on the parent registry (hits/misses were counted in
  // the per-item registries and merge deterministically).
  if (Opts.Cache && currentTelemetry()) {
    CompileCacheStats CS = Opts.Cache->stats();
    telemetryCount("compile.cache_evictions",
                   static_cast<int64_t>(CS.Evictions - EvictionsBefore));
    telemetryGauge("compile.cache_entries",
                   static_cast<double>(CS.Entries));
  }

  Out.Record = buildRecord(M, std::move(Code), Layout, Frames);
  if (OldRecord)
    Out.Record.shareUnchanged(*OldRecord);
  Out.IR = std::move(M);
  return Out;
}

} // namespace

std::optional<CompileOutput> Compiler::compile(const std::string &Source,
                                               const CompileOptions &Opts,
                                               DiagnosticEngine &Diag) {
  RootTraceScope Trace;
  ScopedSpan Span("compile");
  std::optional<Module> M = frontHalf(Source, Opts, Diag);
  if (!M)
    return std::nullopt;
  return backHalf(std::move(*M), Opts, /*OldRecord=*/nullptr);
}

std::optional<CompileOutput>
Compiler::recompile(const std::string &Source,
                    const CompilationRecord &OldRecord,
                    const CompileOptions &Opts, DiagnosticEngine &Diag) {
  RootTraceScope Trace;
  ScopedSpan Span("recompile");
  std::optional<Module> M = frontHalf(Source, Opts, Diag);
  if (!M)
    return std::nullopt;
  return backHalf(std::move(*M), Opts, &OldRecord);
}

std::map<std::string, std::vector<double>>
ucc::profiledStatementFrequencies(const CompileOutput &Out,
                                  const std::vector<uint64_t> &InstrCounts) {
  std::map<std::string, std::vector<double>> Freq;
  if (InstrCounts.size() != Out.Image.Code.size())
    return Freq; // profile does not belong to this image

  // Normalizer: one "run" is one execution of the entry function's body.
  double Runs = 1.0;
  if (Out.Image.EntryFunc >= 0) {
    const FunctionSpan &Entry =
        Out.Image.Functions[static_cast<size_t>(Out.Image.EntryFunc)];
    Runs = std::max<double>(1.0, static_cast<double>(
                                     InstrCounts[Entry.Start]));
  }

  for (size_t F = 0; F < Out.Image.Functions.size(); ++F) {
    const FunctionSpan &Span = Out.Image.Functions[F];
    const std::vector<int> &IRIdx = Out.EncodedIRIndex[F];
    int MaxIR = -1;
    for (int Idx : IRIdx)
      MaxIR = std::max(MaxIR, Idx);
    std::vector<double> Table(static_cast<size_t>(MaxIR + 1), 0.0);
    for (size_t K = 0; K < IRIdx.size(); ++K) {
      if (IRIdx[K] < 0)
        continue;
      double Count =
          static_cast<double>(InstrCounts[Span.Start + K]) / Runs;
      Table[static_cast<size_t>(IRIdx[K])] =
          std::max(Table[static_cast<size_t>(IRIdx[K])], Count);
    }
    // Never-executed statements keep a small floor so the cost model does
    // not treat them as free.
    for (double &W : Table)
      W = std::max(W, 0.01);
    Freq[Span.Name] = std::move(Table);
  }
  return Freq;
}

UpdatePackage ucc::makeUpdate(const CompileOutput &Old,
                              const CompileOutput &New, int Jobs) {
  UpdatePackage Pkg;
  Pkg.Update = makeImageUpdate(Old.Image, New.Image, Jobs);
  Pkg.Diff = diffImages(Old.Image, New.Image, Pkg.Update);
  Pkg.ScriptBytes = Pkg.Update.scriptBytes();
  return Pkg;
}
