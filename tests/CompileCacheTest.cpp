//===- tests/CompileCacheTest.cpp - the function-level compile cache ------===//
//
// core/CompileCache under a microscope: exact hit/miss accounting through
// CompileCacheStats, key discrimination (content twins, option changes,
// the old record slice), and the end-to-end anchor — a cached compile
// chain is byte-identical to the uncached one. The cache mechanics (LRU
// order, capacity 0, the in-flight latch) are tested once, in
// MemoCacheTest.
//
//===----------------------------------------------------------------------===//

#include "core/CompileCache.h"
#include "core/Compiler.h"
#include "core/VersionStore.h"

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

} // namespace
