//===- tests/CompileCacheTest.cpp - the function-level compile cache ------===//
//
// core/CompileCache under a microscope: exact hit/miss accounting through
// CompileCacheStats, key discrimination (content twins, option changes,
// the old record slice), and the end-to-end anchor — a cached compile
// chain is byte-identical to the uncached one, for the back half and for
// the front half's per-function reuse (IR equal field by field, source
// locations included, and diagnostics equal byte for byte), and both
// halves hit exactly where an oracle written without module positions
// says, across generated declaration edits (ProgramGen). The cache
// mechanics (LRU order, capacity 0, the in-flight latch) are tested once,
// in MemoCacheTest.
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "core/CompileCache.h"
#include "core/Compiler.h"
#include "core/VersionStore.h"
#include "support/Format.h"
#include "support/Interner.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace ucc;

namespace {

/// A recognizable result for direct lookupOrCompute tests (no real
/// compilation involved; the cache stores whatever the functor returns).
CompileCache::Result marked(const std::string &Name) {
  auto MF = std::make_shared<MachineFunction>();
  MF->Name = Name;
  auto R = std::make_shared<CompiledFunction>();
  R->Final = std::move(MF);
  return R;
}

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

CompileOptions uccOptions() {
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  return Opts;
}

/// A compilation's interned name tables, as the back half keys them.
struct NameTables {
  SymbolTable Globals, Functions;
};

NameTables namesOf(const CompileOutput &Out) {
  StringInterner &SI = StringInterner::global();
  return {internNames(SI, Out.Record.GlobalNames),
          internNames(SI, Out.Record.FunctionNames)};
}

/// Key inputs for \p Out's function \p Name under \p Names.
CompileKeyInputs keyInputs(const CompileOutput &Out, const NameTables &Names,
                           const std::string &Name) {
  CompileKeyInputs In;
  int Idx = Out.IR.findFunction(Name);
  EXPECT_GE(Idx, 0) << Name;
  In.F = &Out.IR.Functions[static_cast<size_t>(Idx)];
  In.GlobalNames = &Names.Globals;
  In.FunctionNames = &Names.Functions;
  return In;
}

TEST(CompileCache, HitMissAccountingIsExact) {
  CompileCache Cache(4);
  CompileCache::Key A{1, 2, 3}, B{4, 5, 6};

  bool Hit = true;
  Cache.lookupOrCompute(A, [] { return marked("a"); }, &Hit);
  EXPECT_FALSE(Hit);
  CompileCache::Result R = Cache.lookupOrCompute(
      A, [] { return marked("WRONG"); }, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(R->Final->Name, "a") << "hit must return the cached result, "
                                    "not recompute";
  Cache.lookupOrCompute(B, [] { return marked("b"); }, &Hit);
  EXPECT_FALSE(Hit);

  CompileCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(CompileCache, ClearDropsEntriesKeepsCounters) {
  CompileCache Cache(4);
  Cache.lookupOrCompute(CompileCache::Key{1}, [] { return marked("a"); });
  Cache.lookupOrCompute(CompileCache::Key{2}, [] { return marked("b"); });
  Cache.clear();
  CompileCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Misses, 2u) << "clear() drops entries, not accounting";

  bool Hit = true;
  Cache.lookupOrCompute(CompileCache::Key{1}, [] { return marked("a"); },
                        &Hit);
  EXPECT_FALSE(Hit);
}

TEST(CompileCache, ContentTwinsGetDistinctKeys) {
  // Two functions with identical bodies but different names must not
  // share a cache entry: the callee indices inside other functions and
  // the diff engine's per-function matching both depend on the name.
  const char *Source = R"(
    int twin_a(int x) { return x + 41; }
    int twin_b(int x) { return x + 41; }
    void main() { __out(1, twin_a(1) + twin_b(2)); __halt(); }
  )";
  CompileOutput Out = mustCompile(Source, uccOptions());
  NameTables Names = namesOf(Out);
  CompileKeyInputs A = keyInputs(Out, Names, "twin_a");
  CompileKeyInputs B = keyInputs(Out, Names, "twin_b");
  A.RAKind = B.RAKind = static_cast<uint8_t>(RegAllocKind::UpdateConscious);
  A.DAKind = B.DAKind = static_cast<uint8_t>(DataAllocKind::UpdateConscious);
  EXPECT_NE(CompileCache::buildKey(A), CompileCache::buildKey(B));
}

TEST(CompileCache, KeyNamesReferencesNotTheirPositions) {
  // main's key must not change when declarations around the ones it
  // references are inserted or reordered, and must change when a
  // reference resolves to another name.
  auto keyOfMain = [](const char *Source) {
    CompileOutput Out = mustCompile(Source, CompileOptions());
    NameTables Names = namesOf(Out);
    return CompileCache::buildKey(keyInputs(Out, Names, "main"));
  };
  CompileCache::Key Base = keyOfMain(R"(
    int a; int b;
    int f(int x) { return x + a; }
    void main() { b = f(1); __halt(); }
  )");
  CompileCache::Key Moved = keyOfMain(R"(
    int z; int b; int a;
    void g() {}
    int f(int x) { return x + a; }
    void main() { b = f(1); __halt(); }
  )");
  CompileCache::Key OtherGlobal = keyOfMain(R"(
    int a; int c;
    int f(int x) { return x + a; }
    void main() { c = f(1); __halt(); }
  )");
  CompileCache::Key OtherCallee = keyOfMain(R"(
    int a; int b;
    int h(int x) { return x + a; }
    void main() { b = h(1); __halt(); }
  )");
  EXPECT_EQ(Moved, Base);
  EXPECT_NE(OtherGlobal, Base);
  EXPECT_NE(OtherCallee, Base);
}

TEST(CompileCache, KeyCoversOptionsAndOldSlice) {
  const char *Source = "void main() { __out(1, 3); __halt(); }";
  CompileOutput Out = mustCompile(Source, uccOptions());
  NameTables Names = namesOf(Out);
  CompileKeyInputs In = keyInputs(Out, Names, "main");
  CompileCache::Key Base = CompileCache::buildKey(In);

  CompileKeyInputs Opt = In;
  Opt.RAKind = 1;
  EXPECT_NE(CompileCache::buildKey(Opt), Base) << "RA kind must key";

  CompileKeyInputs Ucc = In;
  UccAllocOptions UccOpts;
  Ucc.UseUcc = true;
  Ucc.Ucc = &UccOpts;
  std::vector<double> Freq{1.0, 2.0};
  Ucc.Freq = &Freq;
  CompileCache::Key UccKey = CompileCache::buildKey(Ucc);
  EXPECT_NE(UccKey, Base) << "UCC options must key";
  Freq[1] = 3.0;
  EXPECT_NE(CompileCache::buildKey(Ucc), UccKey)
      << "profile frequencies must key";

  CompileKeyInputs WithOld = In;
  MachineFunction OldFinal;
  OldFinal.Name = "main";
  WithOld.OldFinal = &OldFinal;
  WithOld.OldGlobalNames = &Names.Globals;
  WithOld.OldFunctionNames = &Names.Functions;
  EXPECT_NE(CompileCache::buildKey(WithOld), Base)
      << "the old record slice must key";
}

TEST(CompileCache, CachedChainMatchesUncachedByteForByte) {
  // The acceptance anchor at unit scope: a v1 -> v2 -> v3 chain compiled
  // with a shared cache must equal the uncached chain byte for byte, and
  // recompiling v3 from the same record again must be all hits.
  const char *V1 = R"(
    int scale;
    int tune(int x) { return x * 3 + 7; }
    int mix(int a, int b) { return (a ^ b) + scale; }
    void main() { scale = __in(2); __out(1, mix(tune(4), 9)); __halt(); }
  )";
  const char *V2 = R"(
    int scale;
    int tune(int x) { return x * 3 + 11; }
    int mix(int a, int b) { return (a ^ b) + scale; }
    void main() { scale = __in(2); __out(1, mix(tune(4), 9)); __halt(); }
  )";

  CompileOptions Plain = uccOptions();
  CompileOutput P1 = mustCompile(V1, Plain);
  CompileOutput P2 = mustRecompile(V2, P1.Record, Plain);
  CompileOutput P3 = mustRecompile(V1, P2.Record, Plain);

  CompileCache Cache;
  CompileOptions Cached = uccOptions();
  Cached.Cache = &Cache;
  CompileOutput C1 = mustCompile(V1, Cached);
  CompileOutput C2 = mustRecompile(V2, C1.Record, Cached);
  CompileOutput C3 = mustRecompile(V1, C2.Record, Cached);

  EXPECT_EQ(C1.Image.serialize(), P1.Image.serialize());
  EXPECT_EQ(C2.Image.serialize(), P2.Image.serialize());
  EXPECT_EQ(C3.Image.serialize(), P3.Image.serialize());
  EXPECT_EQ(C3.Record.serialize(), P3.Record.serialize());

  // Identical input against the identical record: every function hits.
  CompileCacheStats Before = Cache.stats();
  CompileOutput C3Again = mustRecompile(V1, C2.Record, Cached);
  CompileCacheStats After = Cache.stats();
  EXPECT_EQ(C3Again.Image.serialize(), P3.Image.serialize());
  EXPECT_EQ(After.Misses, Before.Misses)
      << "recompiling the same source against the same record must not "
         "miss";
  EXPECT_EQ(After.Hits, Before.Hits + 3u) << "all three functions hit";
}

TEST(CompileCache, StoreCommitsAccountHitsAcrossCommits) {
  // Through the store's commit loop with one cache shared by every
  // commit: the second commit of a chain where only one function changes
  // must hit on at least one unchanged function.
  const char *V1 = R"(
    int stable(int x) { return x + 1; }
    int churn(int x) { return x + 2; }
    void main() { __out(1, stable(1) + churn(2)); __halt(); }
  )";
  const char *V2 = R"(
    int stable(int x) { return x + 1; }
    int churn(int x) { return x + 5; }
    void main() { __out(1, stable(1) + churn(2)); __halt(); }
  )";

  VersionStore Store;
  CompileCache Cache;
  CompileOptions Opts = uccOptions();
  Opts.Cache = &Cache;
  DiagnosticEngine Diag;
  ASSERT_EQ(Store.addInitial(V1, Opts, Diag), 0) << Diag.str();
  ASSERT_EQ(Store.addUpdate(V2, Opts, Diag), 1) << Diag.str();
  ASSERT_EQ(Store.addUpdate(V2, Opts, Diag), 2) << Diag.str();

  CompileCacheStats S = Cache.stats();
  EXPECT_GT(S.Hits, 0u) << "unchanged functions must be served from the "
                           "shared cache";
  EXPECT_GT(S.Misses, 0u);
  EXPECT_EQ(S.Evictions, 0u);
}

//===--- the front half's per-function reuse ------------------------------===//

/// Every field of \p M, source locations included, as text: two modules
/// render alike exactly when they are equal field by field.
std::string dumpModule(const Module &M) {
  std::string Out = format("entry %d\n", M.EntryFunc);
  for (const GlobalVar &G : M.Globals) {
    Out += format("global %s %d:", G.Name.c_str(), G.SizeWords);
    for (int16_t V : G.Init)
      Out += format(" %d", V);
    Out += "\n";
  }
  for (const Function &F : M.Functions) {
    Out += format("function %s vregs %d params", F.Name.c_str(), F.NumVRegs);
    for (VReg P : F.Params)
      Out += format(" %d", P);
    Out += "\nnames";
    for (const std::string &N : F.VRegNames)
      Out += " '" + N + "'";
    Out += "\n";
    for (const FrameObject &FO : F.FrameObjects)
      Out += format("frame %s %d\n", FO.Name.c_str(), FO.SizeWords);
    for (const BasicBlock &BB : F.Blocks) {
      Out += "block " + BB.Name + "\n";
      for (const Instr &I : BB.Instrs) {
        Out += format("  %d %d %d %d dst %d srcs", static_cast<int>(I.Op),
                      static_cast<int>(I.BinK), static_cast<int>(I.UnK),
                      static_cast<int>(I.PredK), I.Dst);
        for (VReg S : I.Srcs)
          Out += format(" %d", S);
        Out += format(" imm %lld g %d s %d c %d t %d f %d @%u:%u\n",
                      static_cast<long long>(I.Imm), I.Global, I.Slot,
                      I.Callee, I.TrueBB, I.FalseBB, I.Loc.Line, I.Loc.Col);
      }
    }
  }
  return Out;
}

/// Options as perfbench's release train compiles: linear-scan RA with
/// update-conscious data layout, serial.
CompileOptions frontOptions() {
  CompileOptions Opts;
  Opts.DA = DataAllocKind::UpdateConscious;
  Opts.Jobs = 1;
  return Opts;
}

/// What the back half's result for function \p F of \p Out depends on,
/// with no module position in it: the optimized IR minus source
/// locations, globals and callees by name; with \p Old (a UCC-RA
/// recompile), also the function's old final code, written the same way,
/// and its old frame offsets.
std::string backInputs(const CompileOutput &Out, const Function &F,
                       const CompilationRecord *Old) {
  std::string S = format("%s vregs %d params", F.Name.c_str(), F.NumVRegs);
  auto ref = [&S](const char *Kind, const std::string &Name) {
    S += Kind;
    S += Name;
  };
  for (VReg P : F.Params)
    S += format(" %d", P);
  for (const std::string &N : F.VRegNames)
    S += format(" '%s'", N.c_str());
  for (const FrameObject &FO : F.FrameObjects)
    S += format(" frame %s %d", FO.Name.c_str(), FO.SizeWords);
  for (const BasicBlock &BB : F.Blocks) {
    S += format("\n%s", BB.Name.c_str());
    for (const Instr &I : BB.Instrs) {
      S += format("\n %d %d %d %d %d", static_cast<int>(I.Op),
                  static_cast<int>(I.BinK), static_cast<int>(I.UnK),
                  static_cast<int>(I.PredK), I.Dst);
      for (VReg Src : I.Srcs)
        S += format(" %d", Src);
      S += format(" %lld s %d t %d f %d ", static_cast<long long>(I.Imm),
                  I.Slot, I.TrueBB, I.FalseBB);
      if (I.Global >= 0)
        ref("@", Out.IR.Globals[static_cast<size_t>(I.Global)].Name);
      if (I.Callee >= 0)
        ref("call ", Out.IR.Functions[static_cast<size_t>(I.Callee)].Name);
    }
  }
  if (!Old)
    return S;
  int OldIdx = Old->findFunction(F.Name);
  if (OldIdx < 0)
    return S + "\nucc, new";
  const MachineFunction &MF = *Old->FinalCode[static_cast<size_t>(OldIdx)];
  S += format("\nucc, old %d", MF.NextVReg);
  for (const MFrameObject &FO : MF.FrameObjects)
    S += format(" frame %s %d %d", FO.Name.c_str(), FO.SizeWords, FO.IsSpill);
  for (const MBlock &BB : MF.Blocks) {
    S += format("\n%s", BB.Name.c_str());
    for (int Succ : BB.Succs)
      S += format(" %d", Succ);
    for (const MInstr &I : BB.Instrs) {
      S += format("\n %d %d %d %d %d %d %d %d %d %d %d ",
                  static_cast<int>(I.Op), I.A, I.B, I.C, I.VA, I.VB, I.VC,
                  I.Imm, I.Target, I.FrameIdx, I.IRIndex);
      if (I.GlobalIdx >= 0)
        ref("@", Old->GlobalNames[static_cast<size_t>(I.GlobalIdx)]);
      if (I.Callee >= 0)
        ref("call ", Old->FunctionNames[static_cast<size_t>(I.Callee)]);
    }
  }
  S += "\noffsets";
  for (int Off : Old->FrameOffsets[static_cast<size_t>(OldIdx)])
    S += format(" %d", Off);
  return S;
}

/// Compiles a chain of sources twice: plainly, and through one warm cache
/// that each release recompiles against the previous release's record.
/// Every release must agree field by field and byte for byte, and the
/// back half must hit exactly on the functions whose backInputs an
/// earlier release already compiled. Records share machine code with the
/// cache and with each other, so each cached record must still serialize
/// as it did when its release was compiled once the chain is done; and a
/// GCC-RA record's code must equal a fresh compile's, whatever it shares.
/// Returns the front half's per-release (hits, misses) of the cached
/// chain.
std::vector<std::pair<uint64_t, uint64_t>>
expectChainMatches(const std::vector<std::string> &Sources,
                   CompileCache &Cache, const std::string &What,
                   const CompileOptions &Opts = frontOptions()) {
  std::vector<std::pair<uint64_t, uint64_t>> Front;
  CompileOptions Cached = Opts;
  Cached.Cache = &Cache;
  std::optional<CompileOutput> PrevPlain, PrevCached;
  std::set<std::string> Compiled; ///< backInputs of every release so far
  /// Every cached release's record, and its bytes when it was compiled.
  std::vector<std::pair<CompilationRecord, std::vector<uint8_t>>> Kept;
  for (size_t V = 0; V < Sources.size(); ++V) {
    SCOPED_TRACE(What + format(", release %zu", V));
    CompileCacheStats Before = Cache.frontStats();
    CompileCacheStats BackBefore = Cache.stats();
    CompileOutput P = V == 0 ? mustCompile(Sources[V], Opts)
                             : mustRecompile(Sources[V], PrevPlain->Record,
                                             Opts);
    CompileOutput C = V == 0 ? mustCompile(Sources[V], Cached)
                             : mustRecompile(Sources[V], PrevCached->Record,
                                             Cached);
    CompileCacheStats After = Cache.frontStats();
    CompileCacheStats BackAfter = Cache.stats();
    Front.emplace_back(After.Hits - Before.Hits, After.Misses - Before.Misses);
    EXPECT_EQ(Front.back().first + Front.back().second, C.IR.Functions.size());
    EXPECT_EQ(dumpModule(C.IR), dumpModule(P.IR));
    EXPECT_EQ(C.IR.print(), P.IR.print());
    EXPECT_EQ(C.Image.serialize(), P.Image.serialize());
    EXPECT_EQ(C.Record.serialize(), P.Record.serialize());
    EXPECT_TRUE(C.Record == P.Record);
    Kept.emplace_back(C.Record, C.Record.serialize());
    if (Opts.RA == RegAllocKind::Baseline) {
      CompileOutput Fresh = mustCompile(Sources[V], Opts);
      EXPECT_EQ(C.Record.FinalCode.size(), Fresh.Record.FinalCode.size());
      for (size_t F = 0; F < Fresh.Record.FinalCode.size() &&
                         F < C.Record.FinalCode.size();
           ++F)
        EXPECT_TRUE(*C.Record.FinalCode[F] == *Fresh.Record.FinalCode[F])
            << Fresh.Record.FunctionNames[F];
    }

    bool Ucc = Opts.RA == RegAllocKind::UpdateConscious && V > 0;
    uint64_t BackHits = 0;
    std::vector<std::string> Inputs;
    for (const Function &F : P.IR.Functions) {
      Inputs.push_back(
          backInputs(P, F, Ucc ? &PrevPlain->Record : nullptr));
      BackHits += Compiled.count(Inputs.back());
    }
    Compiled.insert(Inputs.begin(), Inputs.end());
    EXPECT_EQ(BackAfter.Hits - BackBefore.Hits, BackHits) << "back hits";
    EXPECT_EQ(BackAfter.Misses - BackBefore.Misses,
              P.IR.Functions.size() - BackHits)
        << "back misses";
    PrevPlain = std::move(P);
    PrevCached = std::move(C);
  }
  for (size_t V = 0; V < Kept.size(); ++V)
    EXPECT_EQ(Kept[V].first.serialize(), Kept[V].second)
        << What << ": release " << V << "'s record changed after it was "
        << "compiled";
  return Front;
}

TEST(CompileCache, FrontHalfReuseMatchesUncachedOnGeneratedCorpus) {
  // The 128 (program, mutation) pairs of the frontend pins, as one chain
  // through one cache. A mutation edits main alone, and main comes last,
  // so every helper is reused.
  CompileCache Cache;
  std::vector<std::string> Sources;
  for (int Seed = 0; Seed < 128; ++Seed) {
    ProgramGen Gen(static_cast<uint64_t>(Seed));
    Sources.push_back(Gen.render());
    Gen.mutate();
    Sources.push_back(Gen.render());
  }
  auto Front = expectChainMatches(Sources, Cache, "generated corpus");
  for (size_t V = 1; V < Front.size(); V += 2)
    EXPECT_LE(Front[V].second, 1u) << "release " << V;
}

/// The hand-made edits' base: four functions, globals, loops, branches,
/// and a short-circuit value, so every block-naming path runs.
const char *const FrontBase = R"(int gain;
int table[4];
int clampv(int x) { if (x > 100) { return 100; } return x; }
int scale(int x, int k) {
  int acc = 0;
  int i;
  for (i = 0; i < k; i = i + 1) { acc = acc + x; }
  return clampv(acc);
}
int sample(int port) {
  int v = __in(2) + port;
  table[v & 3] = v;
  return scale(v, gain);
}
void main() {
  gain = 3;
  __out(1, sample(2));
  __out(2, table[1] && gain);
  __halt();
}
)";

/// \p Base with the first \p From replaced by \p To.
std::string edited(const std::string &Base, const std::string &From,
                   const std::string &To) {
  size_t At = Base.find(From);
  EXPECT_NE(At, std::string::npos) << From;
  std::string Out = Base;
  return At == std::string::npos ? Out : Out.replace(At, From.size(), To);
}

TEST(CompileCache, FrontHalfReuseMatchesUncachedOnHandMadeEdits) {
  const std::string Base = FrontBase;
  const std::string Clampv =
      "int clampv(int x) { if (x > 100) { return 100; } return x; }\n";
  auto check = [&](const char *Name, const std::string &Source, uint64_t Hits) {
    CompileCache Cache;
    auto Front = expectChainMatches({Base, Source}, Cache, Name);
    EXPECT_EQ(Front[0], std::make_pair(uint64_t{0}, uint64_t{4})) << Name;
    EXPECT_EQ(Front[1], std::make_pair(Hits, 4 - Hits)) << Name;
  };
  // Hits copy the stored IR with every line shifted; the column is keyed.
  check("line inserted above a function",
        edited(Base, "int scale(", "// retuned below\nint scale("), 4);
  check("function moved right on its line",
        edited(Base, "int clampv(", "  int clampv("), 3);
  // Entries are found by name and re-bound to the new indices, so
  // declarations that move do not miss.
  check("global inserted at the front", "int boot;\n" + Base, 4);
  // sample's text and its call site in main change; clampv and scale hit.
  std::string TwoParams =
      edited(Base, "int sample(int port)", "int sample(int port, int b)");
  check("changed parameter count",
        edited(TwoParams, "sample(2)", "sample(2, 1)"), 2);
  check("reordered functions", edited(Base, Clampv, "") + Clampv, 4);
  // sample and main index table; a resized array misses its readers.
  check("global array resized", edited(Base, "int table[4];", "int table[8];"),
        2);
  // Blocks are numbered per function: new blocks in scale rename no
  // block of sample or main.
  check("control-flow edit leaves later block names",
        edited(Base, "int acc = 0;", "int acc = 0;\n  if (k < 0) { k = 0; }"),
        3);
  check("comment-only edit",
        edited(Base, "  gain = 3;", "  // the field value\n  gain = 3;"), 3);
  check("one body edit", edited(Base, "acc = acc + x;", "acc = acc + x + 1;"),
        3);
}

/// One release of a generated chain, as the front half's oracle sees it.
struct GeneratedRelease {
  std::string Source;
  std::string Edits;                        ///< what made it
  std::map<std::string, std::string> Texts; ///< each function's text
  std::map<std::string, std::string> Decls; ///< ProgramGen::declarations()
  std::map<std::string, size_t> Positions;  ///< each declaration's index
};

GeneratedRelease snapshot(const ProgramGen &Gen, std::string Edits) {
  GeneratedRelease R{Gen.render(), std::move(Edits), {}, Gen.declarations(),
                     {}};
  const std::vector<std::string> &Functions = Gen.functions();
  for (size_t F = 0; F < Functions.size(); ++F) {
    R.Texts[Functions[F]] = Gen.functionText(Functions[F]);
    R.Positions[Functions[F]] = F;
  }
  std::vector<std::string> Globals = Gen.globals();
  for (size_t G = 0; G < Globals.size(); ++G)
    R.Positions[Globals[G]] = G;
  return R;
}

/// The functions of \p Cur the front half may reuse from \p Prev: the
/// same text (every generated function starts at column 1), and every
/// declaration the text names declared alike in both releases. Adds to
/// \p Moved the reusable functions that name a declaration whose index
/// changed, which must be re-bound.
uint64_t expectedFrontHits(const GeneratedRelease &Prev,
                           const GeneratedRelease &Cur, uint64_t &Moved) {
  auto declOf = [](const GeneratedRelease &R, const std::string &Name) {
    auto It = R.Decls.find(Name);
    return It == R.Decls.end() ? std::string() : It->second;
  };
  auto isIdent = [](char C) { return std::isalnum(C) || C == '_'; };
  uint64_t Hits = 0;
  for (const auto &[Name, Text] : Cur.Texts) {
    auto Old = Prev.Texts.find(Name);
    if (Old == Prev.Texts.end() || Old->second != Text)
      continue;
    bool Alike = true, Shifted = false;
    for (size_t At = 0; At < Text.size();) {
      size_t End = At;
      while (End < Text.size() && isIdent(Text[End]))
        ++End;
      if (End == At) {
        ++At;
        continue;
      }
      std::string Id = Text.substr(At, End - At);
      if (!std::isdigit(Id[0])) {
        Alike &= declOf(Prev, Id) == declOf(Cur, Id);
        auto P = Prev.Positions.find(Id), C = Cur.Positions.find(Id);
        Shifted |= Id != Name && P != Prev.Positions.end() &&
                   C != Cur.Positions.end() && P->second != C->second;
      }
      At = End;
    }
    Hits += Alike ? 1 : 0;
    Moved += Alike && Shifted ? 1 : 0;
  }
  return Hits;
}

TEST(CompileCache, WarmChainOfGeneratedEditsMatchesUncached) {
  // ProgramGen's structural edits move, insert, remove and redeclare
  // globals and functions under a warm cache, for GCC-RA and UCC-RA
  // commits at 1 and 8 jobs. Every release equals the uncached one, and
  // both halves hit exactly where their oracles say.
  std::set<std::string> Kinds;
  uint64_t Moved = 0;
  for (int Seed = 0; Seed < 6; ++Seed) {
    ProgramGen Gen(static_cast<uint64_t>(Seed));
    std::vector<GeneratedRelease> Chain{snapshot(Gen, "base")};
    for (int Step = 0; Step < 14; ++Step) {
      std::string Edits;
      for (int K = 0; K <= Step % 2; ++K) {
        std::string Edit = Gen.structuralEdit();
        Kinds.insert(Edit.substr(0, Edit.find(':')));
        Edits += Edit + "; ";
      }
      if (Step % 5 == 4) {
        Gen.mutate();
        Edits += "main edited";
      }
      Chain.push_back(snapshot(Gen, Edits));
    }
    std::vector<std::string> Sources;
    for (const GeneratedRelease &R : Chain)
      Sources.push_back(R.Source);
    for (bool Ucc : {false, true}) {
      CompileOptions Opts = frontOptions();
      if (Ucc)
        Opts.RA = RegAllocKind::UpdateConscious;
      Opts.Jobs = Seed % 2 ? 8 : 1;
      std::string What = format("seed %d, %s", Seed, Ucc ? "UCC-RA" : "GCC-RA");
      CompileCache Cache;
      auto Front = expectChainMatches(Sources, Cache, What, Opts);
      EXPECT_EQ(Front[0].first, 0u) << What;
      for (size_t V = 1; V < Chain.size(); ++V)
        EXPECT_EQ(Front[V].first,
                  expectedFrontHits(Chain[V - 1], Chain[V], Moved))
            << What << ", release " << V << ": " << Chain[V].Edits;
    }
  }
  // The nine kinds ProgramGen::structuralEdit() names.
  EXPECT_EQ(Kinds.size(), 9u) << "every edit kind must run";
  EXPECT_GT(Moved, 0u) << "some reused function must be re-bound";
}

TEST(CompileCache, FrontHalfCountersReachTelemetry) {
  CompileCache Cache;
  CompileOptions Opts = frontOptions();
  Opts.Cache = &Cache;
  CompileOutput V1 = mustCompile(FrontBase, Opts);
  Telemetry T;
  {
    TelemetryScope Scope(T);
    mustRecompile(edited(FrontBase, "return x;", "return x - 1;"), V1.Record,
                  Opts);
  }
  EXPECT_EQ(T.counter("compile.front_hits"), 3);
  EXPECT_EQ(T.counter("compile.front_misses"), 1);
  EXPECT_EQ(Cache.frontStats().Entries, 4u);
  Cache.clear();
  EXPECT_EQ(Cache.frontStats().Entries, 0u) << "clear() drops the table";
}

TEST(CompileCache, FrontHalfDiagnosticsMatchUncachedAfterWarmCompile) {
  const std::string Base = FrontBase;
  const std::string Malformed[] = {
      edited(Base, "return x;", "return x"),
      Base.substr(0, Base.rfind('}')),
      edited(Base, "gain = 3;", "gane = 3;"),
      edited(Base, "int gain;", "int gain2;"),
      edited(Base, "table[v & 3] = v;", "table[v & 3] = v @ 2;"),
      Base + "int clampv(int y) { return y; }\n",
      edited(Base, "void main()", "void start()"),
      edited(Base, "sample(2)", "sample(2, 3, 4, 5, 6)"),
      edited(Base, "int sample(int port)",
             "int sample(int port, int a, int b, int c, int d)"),
      edited(Base, "int scale(int x, int k) {", "int scale(int x, int k) {{"),
      edited(Base, "void main() {", "void main() {}"),
      // Declaration edits that break functions whose text is unchanged.
      edited(Base, "int clampv(int x)", "int clampv(int x, int y)"),
      edited(Base, "int gain;", "int gain[2];"),
  };
  CompileOptions Opts = frontOptions();
  CompileCache Cache;
  CompileOptions Cached = Opts;
  Cached.Cache = &Cache;
  CompileOutput Warm = mustCompile(Base, Cached);
  for (const std::string &Source : Malformed) {
    DiagnosticEngine Plain, WithCache;
    EXPECT_FALSE(Compiler::recompile(Source, Warm.Record, Opts, Plain));
    CompileCacheStats Before = Cache.frontStats();
    EXPECT_FALSE(Compiler::recompile(Source, Warm.Record, Cached, WithCache));
    ASSERT_TRUE(Plain.hasErrors()) << Source;
    EXPECT_EQ(WithCache.str(), Plain.str()) << Source;
    EXPECT_EQ(WithCache.diagnostics().size(), Plain.diagnostics().size());
    CompileCacheStats After = Cache.frontStats();
    EXPECT_EQ(After.Hits, Before.Hits) << "a failed compile counts nothing";
    EXPECT_EQ(After.Entries, 4u) << "a failed compile keeps the table";
  }
  // The table still holds the warm compile: the base recompiles all-hit.
  CompileCacheStats Before = Cache.frontStats();
  mustRecompile(Base, Warm.Record, Cached);
  EXPECT_EQ(Cache.frontStats().Hits - Before.Hits, 4u);
}

} // namespace
