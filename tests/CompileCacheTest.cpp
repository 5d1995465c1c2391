//===- tests/CompileCacheTest.cpp - the function-level compile cache ------===//
//
// core/CompileCache under a microscope: exact hit/miss accounting through
// CompileCacheStats, key discrimination (content twins, option changes,
// the old record slice), and the end-to-end anchor — a cached compile
// chain is byte-identical to the uncached one, for the back half and for
// the front half's per-function reuse (IR equal field by field, source
// locations included, and diagnostics equal byte for byte). The cache
// mechanics (LRU order, capacity 0, the in-flight latch) are tested once,
// in MemoCacheTest.
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "core/CompileCache.h"
#include "core/Compiler.h"
#include "core/VersionStore.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ucc;

namespace {

/// A recognizable result for direct lookupOrCompute tests (no real
/// compilation involved; the cache stores whatever the functor returns).
CompiledFunction marked(const std::string &Name) {
  CompiledFunction R;
  R.Final.Name = Name;
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

TEST(CompileCache, HitMissAccountingIsExact) {
  CompileCache Cache(4);
  CompileCache::Key A{1, 2, 3}, B{4, 5, 6};

  bool Hit = true;
  Cache.lookupOrCompute(A, [] { return marked("a"); }, &Hit);
  EXPECT_FALSE(Hit);
  CompiledFunction R = Cache.lookupOrCompute(
      A, [] { return marked("WRONG"); }, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(R.Final.Name, "a") << "hit must return the cached result, "
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
  int IdxA = Out.IR.findFunction("twin_a");
  int IdxB = Out.IR.findFunction("twin_b");
  ASSERT_GE(IdxA, 0);
  ASSERT_GE(IdxB, 0);

  CompileKeyInputs In;
  In.RAKind = static_cast<uint8_t>(RegAllocKind::UpdateConscious);
  In.DAKind = static_cast<uint8_t>(DataAllocKind::UpdateConscious);
  In.NewNamesDigest = digestModuleNames(Out.IR);

  In.F = &Out.IR.Functions[static_cast<size_t>(IdxA)];
  CompileCache::Key KeyA = CompileCache::buildKey(In);
  In.F = &Out.IR.Functions[static_cast<size_t>(IdxB)];
  CompileCache::Key KeyB = CompileCache::buildKey(In);
  EXPECT_NE(KeyA, KeyB);
}

TEST(CompileCache, KeyCoversOptionsAndOldSlice) {
  const char *Source = "void main() { __out(1, 3); __halt(); }";
  CompileOutput Out = mustCompile(Source, uccOptions());
  ASSERT_FALSE(Out.IR.Functions.empty());

  CompileKeyInputs In;
  In.F = &Out.IR.Functions[0];
  In.NewNamesDigest = digestModuleNames(Out.IR);
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
  WithOld.OldNamesDigest = 0x1234;
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

/// Compiles a chain of sources twice: plainly, and through one warm cache
/// that each release recompiles against the previous release's record.
/// Every release must agree field by field and byte for byte. Returns the
/// front half's per-release (hits, misses) of the cached chain.
std::vector<std::pair<uint64_t, uint64_t>>
expectChainMatches(const std::vector<std::string> &Sources,
                   CompileCache &Cache, const std::string &What) {
  std::vector<std::pair<uint64_t, uint64_t>> Front;
  CompileOptions Plain = frontOptions();
  CompileOptions Cached = frontOptions();
  Cached.Cache = &Cache;
  std::optional<CompileOutput> PrevPlain, PrevCached;
  for (size_t V = 0; V < Sources.size(); ++V) {
    SCOPED_TRACE(What + format(", release %zu", V));
    CompileCacheStats Before = Cache.frontStats();
    CompileOutput P = V == 0 ? mustCompile(Sources[V], Plain)
                             : mustRecompile(Sources[V], PrevPlain->Record,
                                             Plain);
    CompileOutput C = V == 0 ? mustCompile(Sources[V], Cached)
                             : mustRecompile(Sources[V], PrevCached->Record,
                                             Cached);
    CompileCacheStats After = Cache.frontStats();
    Front.emplace_back(After.Hits - Before.Hits, After.Misses - Before.Misses);
    EXPECT_EQ(Front.back().first + Front.back().second, C.IR.Functions.size());
    EXPECT_EQ(dumpModule(C.IR), dumpModule(P.IR));
    EXPECT_EQ(C.IR.print(), P.IR.print());
    EXPECT_EQ(C.Image.serialize(), P.Image.serialize());
    EXPECT_EQ(C.Record.serialize(), P.Record.serialize());
    PrevPlain = std::move(P);
    PrevCached = std::move(C);
  }
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
  // A signature-table edit changes every key.
  check("global inserted at the front", "int boot;\n" + Base, 0);
  std::string TwoParams =
      edited(Base, "int sample(int port)", "int sample(int port, int b)");
  check("changed parameter count",
        edited(TwoParams, "sample(2)", "sample(2, 1)"), 0);
  check("reordered functions", edited(Base, Clampv, "") + Clampv, 0);
  // New blocks in scale renumber the blocks of sample and main.
  check("control-flow edit shifts later block numbers",
        edited(Base, "int acc = 0;", "int acc = 0;\n  if (k < 0) { k = 0; }"),
        1);
  check("comment-only edit",
        edited(Base, "  gain = 3;", "  // the field value\n  gain = 3;"), 3);
  check("one body edit", edited(Base, "acc = acc + x;", "acc = acc + x + 1;"),
        3);
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
