//===- tests/VersionStoreTest.cpp - the stateful version chain ------------===//
//
// The store is the sink's long-lived state: commits build a chain of
// image+record+layout artifacts, the planner picks the cheaper of a fresh
// endpoint diff and the composed stepwise chain, and a directory-backed
// store survives a reopen bit for bit.
//
//===----------------------------------------------------------------------===//

#include "core/VersionStore.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace ucc;

namespace {

CompileOptions uccOptions() {
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  return Opts;
}

/// A three-version chain over a real workload update case: old source,
/// new source, and back — so intermediate plans have real diffs.
void buildChain(VersionStore &Store) {
  const UpdateCase &Case = updateCases()[5];
  DiagnosticEngine Diag;
  ASSERT_EQ(Store.addInitial(Case.OldSource, uccOptions(), Diag), 0)
      << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.NewSource, uccOptions(), Diag), 1)
      << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.OldSource, uccOptions(), Diag), 2)
      << Diag.str();
}

/// A branched history: v0 -> v1 -> {v2, v3 -> v4}. The branch point v1 is
/// the LCA of the two tips, so cross-branch plans must compose through it.
void buildDag(VersionStore &Store) {
  const UpdateCase &Case = updateCases()[5];
  DiagnosticEngine Diag;
  ASSERT_EQ(Store.addInitial(Case.OldSource, uccOptions(), Diag), 0)
      << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.NewSource, uccOptions(), Diag, 0), 1)
      << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.OldSource, uccOptions(), Diag, 1), 2)
      << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.NewSource, uccOptions(), Diag, 1), 3)
      << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.OldSource, uccOptions(), Diag, 3), 4)
      << Diag.str();
}

/// A forward release chain: `tune`'s constant grows every release, and
/// release 2 declares `cal` ahead of every other global and edits `bias`
/// to read it, so every later release renumbers `mix`'s and `main`'s
/// globals while their text stays put. No function ever returns to an
/// earlier content.
std::vector<std::string> forwardChain() {
  std::vector<std::string> Sources;
  for (int Rev = 0; Rev < 5; ++Rev) {
    bool Calibrated = Rev >= 2;
    std::string S = Calibrated ? "int cal;\n" : "";
    S += "int ticks;\nint total;\n";
    S += format("int tune(int x) { return x * 3 + %d; }\n", 7 + Rev);
    S += "int mix(int a, int b) {\n  total = total + a;\n"
         "  return (a ^ b) + ticks;\n}\n";
    S += Calibrated ? "int bias(int x) { return x + cal; }\n"
                    : "int bias(int x) { return x + 1; }\n";
    S += "void main() {\n  ticks = __in(2);\n"
         "  __out(1, bias(mix(tune(4), 9)));\n  __out(2, total);\n"
         "  __halt();\n}\n";
    Sources.push_back(S);
  }
  return Sources;
}

/// Commits \p Sources into \p Store through \p Cache.
void commitAll(VersionStore &Store, const std::vector<std::string> &Sources,
               CompileCache &Cache) {
  CompileOptions Opts = uccOptions();
  Opts.Cache = &Cache;
  DiagnosticEngine Diag;
  for (size_t V = 0; V < Sources.size(); ++V) {
    int Id = V == 0 ? Store.addInitial(Sources[V], Opts, Diag)
                    : Store.addUpdate(Sources[V], Opts, Diag);
    ASSERT_EQ(Id, static_cast<int>(V)) << Diag.str();
  }
}

class ScratchDir : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/ucc-store-XXXXXX";
    ASSERT_NE(mkdtemp(Template), nullptr);
    Dir = Template;
  }
  void TearDown() override { std::system(("rm -rf " + Dir).c_str()); }
  std::string Dir;
};

TEST(VersionStore, ChainBookkeeping) {
  VersionStore Store;
  buildChain(Store);
  ASSERT_EQ(Store.size(), 3u);
  EXPECT_EQ(Store.find(0)->Parent, -1);
  EXPECT_EQ(Store.find(1)->Parent, 0);
  EXPECT_EQ(Store.find(2)->Parent, 1);
  EXPECT_EQ(Store.latest()->Id, 2);
  EXPECT_TRUE(Store.find(0)->FromParent.Functions.empty());
  EXPECT_GT(Store.find(1)->FromParent.scriptBytes(), 0u);
  // v0 and v2 share their source text; the hash must agree.
  EXPECT_EQ(Store.find(0)->SourceHash, Store.find(2)->SourceHash);
  EXPECT_NE(Store.find(0)->SourceHash, Store.find(1)->SourceHash);
}

TEST(VersionStore, RejectsDoubleInitialAndUnknownParent) {
  VersionStore Store;
  buildChain(Store);
  DiagnosticEngine Diag;
  EXPECT_EQ(Store.addInitial(updateCases()[5].OldSource, uccOptions(),
                             Diag),
            -1);
  EXPECT_EQ(Store.addUpdate(updateCases()[5].NewSource, uccOptions(), Diag,
                            42),
            -1);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(VersionStore, PlanPatchesAnyAncestorToDescendant) {
  VersionStore Store;
  buildChain(Store);
  for (auto [From, To] : {std::pair{0, 1}, {1, 2}, {0, 2}}) {
    auto P = Store.plan(From, To);
    ASSERT_TRUE(P.has_value()) << From << "->" << To;
    EXPECT_EQ(P->ChainSteps, To - From);
    EXPECT_GT(P->DirectBytes, 0u);
    // Whichever route won, the shipped package takes From's image exactly
    // to To's image.
    BinaryImage Patched;
    ASSERT_TRUE(applyUpdate(Store.find(From)->Image, P->Update, Patched));
    EXPECT_EQ(Patched.serialize(), Store.find(To)->Image.serialize());
    // The winner is the cheaper route (ties go Direct).
    if (P->Route == UpdatePlan::RouteKind::Chained) {
      EXPECT_LT(P->ChainedBytes, P->DirectBytes);
    } else if (P->ChainSteps > 0) {
      EXPECT_LE(P->DirectBytes, P->ChainedBytes);
    }
    EXPECT_EQ(P->ScriptBytes, P->Update.scriptBytes());
  }
}

TEST(VersionStore, PlanAgainstTheChainDirectionComposesTheRollback) {
  VersionStore Store;
  buildChain(Store);
  // A downgrade walks the same tree path in reverse: the planner composes
  // the stepwise rollback route v2 -> v1 -> v0 and lets it compete with
  // the direct diff on actual bytes.
  auto P = Store.plan(2, 0);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->ChainSteps, 2);
  EXPECT_GT(P->ChainedBytes, 0u);
  if (P->Route == UpdatePlan::RouteKind::Chained)
    EXPECT_LT(P->ChainedBytes, P->DirectBytes);
  else
    EXPECT_LE(P->DirectBytes, P->ChainedBytes);
  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(Store.find(2)->Image, P->Update, Patched));
  EXPECT_EQ(Patched.serialize(), Store.find(0)->Image.serialize());
}

TEST(VersionStore, ChildrenAndTipsExposeTheDag) {
  VersionStore Chain;
  buildChain(Chain);
  EXPECT_EQ(Chain.children(0), (std::vector<int>{1}));
  EXPECT_EQ(Chain.children(2), (std::vector<int>()));
  EXPECT_EQ(Chain.tips(), (std::vector<int>{2}));

  VersionStore Dag;
  buildDag(Dag);
  EXPECT_EQ(Dag.find(2)->Parent, 1);
  EXPECT_EQ(Dag.find(3)->Parent, 1);
  EXPECT_EQ(Dag.children(1), (std::vector<int>{2, 3}));
  EXPECT_EQ(Dag.children(42), (std::vector<int>()));
  EXPECT_EQ(Dag.tips(), (std::vector<int>{2, 4}));
}

TEST(VersionStore, CrossBranchPlansComposeThroughTheLca) {
  VersionStore Store;
  buildDag(Store);
  // 2 and 4 are on different branches (no ancestor relation either way):
  // the composed candidate walks 2 -> 1 (the LCA) -> 3 -> 4 and competes
  // with the direct diff on actual bytes.
  for (auto [From, To] : {std::pair{2, 4}, {4, 2}}) {
    auto P = Store.plan(From, To);
    ASSERT_TRUE(P.has_value()) << From << "->" << To;
    EXPECT_EQ(P->ChainSteps, 3);
    EXPECT_GT(P->ChainedBytes, 0u);
    if (P->Route == UpdatePlan::RouteKind::Chained)
      EXPECT_LT(P->ChainedBytes, P->DirectBytes);
    else
      EXPECT_LE(P->DirectBytes, P->ChainedBytes);
    BinaryImage Patched;
    ASSERT_TRUE(applyUpdate(Store.find(From)->Image, P->Update, Patched));
    EXPECT_EQ(Patched.serialize(), Store.find(To)->Image.serialize());
  }
  // The sibling hop 2 -> 3 routes through the LCA in two steps.
  auto Sib = Store.plan(2, 3);
  ASSERT_TRUE(Sib.has_value());
  EXPECT_EQ(Sib->ChainSteps, 2);
}

TEST(VersionStore, SingleStepPlansTieAndGoDirect) {
  VersionStore Store;
  buildChain(Store);
  // A one-hop plan's composed route IS the direct diff (the same
  // endpoint pair through the same differ), so the bytes tie exactly —
  // and ties must deterministically pick Direct, upgrades and rollbacks
  // alike, shipping exactly the fresh endpoint diff.
  for (auto [From, To] : {std::pair{0, 1}, {1, 2}, {1, 0}, {2, 1}}) {
    auto P = Store.plan(From, To);
    ASSERT_TRUE(P.has_value()) << From << "->" << To;
    EXPECT_EQ(P->ChainSteps, 1);
    EXPECT_EQ(P->ChainedBytes, P->DirectBytes);
    EXPECT_EQ(P->Route, UpdatePlan::RouteKind::Direct);
    EXPECT_EQ(P->Update.serialize(),
              makeImageUpdate(Store.find(From)->Image, Store.find(To)->Image)
                  .serialize())
        << From << "->" << To;
  }
  // An upgrade is the update its commit already built: no diff runs.
  Telemetry T;
  {
    TelemetryScope Scope(T);
    for (auto [From, To] : {std::pair{0, 1}, {1, 2}})
      ASSERT_TRUE(Store.plan(From, To).has_value());
  }
  EXPECT_EQ(T.counter("store.plans"), 2);
  EXPECT_EQ(T.counter("diff.scripts"), 0);
}

TEST(VersionStore, ComposedRouteBeatsDirectWhenTheDirectDiffFragments) {
  // Engineered images, planned through planBetweenVersions' Find hook:
  // one function whose three versions are {1, 2, 2} -> {4, 2} -> {2}.
  // The exact LCS breaks ties toward the earliest match, so the direct
  // endpoint diff keeps the *first* 2 and fragments into remove 1, copy 1,
  // remove 1. The first step keeps the *last* 2 (replace the 1 by 4,
  // remove the middle 2, copy), the second step copies it, and their
  // composition is remove 2, copy 1: one primitive byte less. The planner
  // must notice the composed route is cheaper and take it — DBCN's
  // observation that hopping through stored intermediates can beat a
  // fresh endpoint diff.
  auto image = [](const std::vector<uint32_t> &Code) {
    BinaryImage Img;
    Img.Code = Code;
    Img.Functions.push_back(
        {"main", 0, static_cast<uint32_t>(Code.size())});
    Img.EntryFunc = 0;
    return Img;
  };
  const std::vector<uint32_t> Base = {1, 2, 2};
  const std::vector<uint32_t> MidCode = {4, 2};
  const std::vector<uint32_t> FinalCode = {2};

  StoredVersion V0, V1, V2;
  V0.Id = 0;
  V0.Parent = -1;
  V0.Image = image(Base);
  V1.Id = 1;
  V1.Parent = 0;
  V1.Image = image(MidCode);
  V2.Id = 2;
  V2.Parent = 1;
  V2.Image = image(FinalCode);
  const StoredVersion *Vs[] = {&V0, &V1, &V2};
  auto Find = [&](int Id) -> const StoredVersion * {
    return (Id >= 0 && Id < 3) ? Vs[Id] : nullptr;
  };

  auto P = planBetweenVersions(Find, 0, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->ChainSteps, 2);
  // Both include one function-table byte and one entry-point byte.
  EXPECT_EQ(P->DirectBytes, 5u);
  EXPECT_EQ(P->ChainedBytes, 4u);
  EXPECT_LT(P->ChainedBytes, P->DirectBytes);
  EXPECT_EQ(P->Route, UpdatePlan::RouteKind::Chained);
  EXPECT_EQ(P->ScriptBytes, P->ChainedBytes);
  // And the composed package still patches v0's image exactly to v2's.
  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(V0.Image, P->Update, Patched));
  EXPECT_EQ(Patched.serialize(), V2.Image.serialize());
}

TEST(VersionStore, PlanRejectsUnknownVersions) {
  VersionStore Store;
  buildChain(Store);
  EXPECT_FALSE(Store.plan(0, 7).has_value());
  EXPECT_FALSE(Store.plan(-3, 0).has_value());
}

TEST_F(ScratchDir, OnDiskStoreSurvivesReopen) {
  size_t Shared = 0;
  {
    DiagnosticEngine Diag;
    auto Store = VersionStore::open(Dir, Diag);
    ASSERT_TRUE(Store.has_value()) << Diag.str();
    buildChain(*Store);
    Shared = Store->storedFunctions();
  }
  DiagnosticEngine Diag;
  auto Reopened = VersionStore::open(Dir, Diag);
  ASSERT_TRUE(Reopened.has_value()) << Diag.str();
  ASSERT_EQ(Reopened->size(), 3u);

  // Compare against a fresh in-memory chain: artifacts must round-trip
  // bit for bit, and the reloaded record must still steer recompilation
  // (the planner exercises images; this checks records, and with them the
  // data layouts, too).
  VersionStore Fresh;
  buildChain(Fresh);
  for (int Id = 0; Id < 3; ++Id) {
    const StoredVersion *A = Reopened->find(Id);
    const StoredVersion *B = Fresh.find(Id);
    EXPECT_EQ(A->Image.serialize(), B->Image.serialize()) << "v" << Id;
    EXPECT_EQ(A->Record.serialize(), B->Record.serialize()) << "v" << Id;
    EXPECT_TRUE(A->Record == B->Record) << "v" << Id;
    EXPECT_EQ(A->Parent, B->Parent);
    EXPECT_EQ(A->SourceHash, B->SourceHash);
    EXPECT_EQ(A->FromParent.scriptBytes(), B->FromParent.scriptBytes());
    EXPECT_EQ(A->FromParent.serialize(), B->FromParent.serialize());
  }
  // The reopened records share machine code as the committed ones did.
  EXPECT_EQ(Reopened->storedFunctions(), Shared);
  EXPECT_EQ(Fresh.storedFunctions(), Shared);

  // The rebuilt parent -> child updates serve the same one-hop plans.
  for (auto [From, To] : {std::pair{0, 1}, {1, 2}, {2, 1}}) {
    auto A = Reopened->plan(From, To);
    auto B = Fresh.plan(From, To);
    ASSERT_TRUE(A.has_value() && B.has_value());
    EXPECT_EQ(A->Update.serialize(), B->Update.serialize());
  }

  // And the chain keeps growing after the reopen.
  DiagnosticEngine Diag2;
  EXPECT_EQ(Reopened->addUpdate(updateCases()[5].NewSource, uccOptions(),
                                Diag2),
            3)
      << Diag2.str();
  auto P = Reopened->plan(0, 3);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->ChainSteps, 3);
}

TEST_F(ScratchDir, ManifestsWithAndWithoutALayoutOpenAlike) {
  {
    DiagnosticEngine Diag;
    auto Store = VersionStore::open(Dir, Diag);
    ASSERT_TRUE(Store.has_value()) << Diag.str();
    buildChain(*Store);
  }
  std::string Path = Dir + "/manifest.json";
  std::ifstream In(Path);
  std::string Written((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  In.close();
  EXPECT_EQ(Written.find("layout"), std::string::npos)
      << "the data layout lives in each version's record";
  DiagnosticEngine Diag;
  auto Without = VersionStore::open(Dir, Diag);
  ASSERT_TRUE(Without.has_value()) << Diag.str();

  // Manifests used to repeat every version's data layout beside its
  // artifacts; one written that way opens to the same versions.
  auto Doc = json::parse(Written);
  ASSERT_TRUE(Doc.has_value());
  json::Value *Vs = Doc->find("versions");
  ASSERT_NE(Vs, nullptr);
  for (json::Value &E : Vs->Arr) {
    const StoredVersion *V =
        Without->find(static_cast<int>(E.numberOr("id", -1)));
    ASSERT_NE(V, nullptr);
    json::Value Layout = json::Value::object();
    Layout.set("data_words",
               json::Value::number(V->Record.GlobalLayout.Words));
    json::Value Offs = json::Value::array();
    for (const OldRegionLayout::Entry &G : V->Record.GlobalLayout.Entries)
      Offs.Arr.push_back(json::Value::number(G.Offset));
    Layout.set("global_offsets", std::move(Offs));
    E.set("layout", std::move(Layout));
  }
  std::ofstream(Path) << Doc->serialize(2) << "\n";
  auto With = VersionStore::open(Dir, Diag);
  ASSERT_TRUE(With.has_value()) << Diag.str();

  ASSERT_EQ(With->size(), Without->size());
  for (int Id = 0; Id < static_cast<int>(With->size()); ++Id) {
    const StoredVersion *A = With->find(Id);
    const StoredVersion *B = Without->find(Id);
    EXPECT_EQ(A->Parent, B->Parent) << "v" << Id;
    EXPECT_EQ(A->SourceHash, B->SourceHash) << "v" << Id;
    EXPECT_EQ(A->Image.serialize(), B->Image.serialize()) << "v" << Id;
    EXPECT_EQ(A->Record.serialize(), B->Record.serialize()) << "v" << Id;
    EXPECT_EQ(A->FromParent.serialize(), B->FromParent.serialize())
        << "v" << Id;
  }
}

TEST_F(ScratchDir, ReopenedRecordsShareAndKeyAsTheCommittedOnes) {
  // A store committed through a compile cache shares each function a
  // release left unchanged with its parent, and the cache's hits share
  // its objects. Reopened, the records share with their parents again:
  // the same count of distinct objects, every record equal field for
  // field.
  std::vector<std::string> Sources = forwardChain();
  CompileCache Cache;
  std::vector<CompilationRecord> Committed;
  size_t Shared = 0;
  {
    DiagnosticEngine Diag;
    auto Store = VersionStore::open(Dir, Diag);
    ASSERT_TRUE(Store.has_value()) << Diag.str();
    commitAll(*Store, Sources, Cache);
    Shared = Store->storedFunctions();
    for (const auto &V : Store->versions())
      Committed.push_back(V->Record);
  }
  // v0's four functions; `tune` once per later release; at release 2
  // also `bias`, and `mix` and `main`, whose globals moved.
  EXPECT_EQ(Shared, 4u + 4u + 3u) << "20 functions, 11 of them distinct";

  DiagnosticEngine Diag;
  auto Reopened = VersionStore::open(Dir, Diag);
  ASSERT_TRUE(Reopened.has_value()) << Diag.str();
  EXPECT_EQ(Reopened->storedFunctions(), Shared);
  ASSERT_EQ(Reopened->size(), Committed.size());
  for (size_t Id = 0; Id < Committed.size(); ++Id)
    EXPECT_TRUE(Reopened->find(static_cast<int>(Id))->Record ==
                Committed[Id])
        << "v" << Id;

  // Under UCC-RA the old record is part of every back-half key, so the
  // next release compiled against the reopened record must hit exactly
  // as it does against the record the store committed. The committing
  // cache is warm; a second cache warmed by the same chain serves the
  // in-memory side.
  std::string Next = Sources.back();
  Next.replace(Next.find("x * 3"), 5, "x * 5");
  CompileOptions Opts = uccOptions();
  Opts.Cache = &Cache;
  CompileCacheStats Before = Cache.stats();
  auto FromDisk = Compiler::recompile(Next, Reopened->latest()->Record, Opts,
                                      Diag);
  ASSERT_TRUE(FromDisk.has_value()) << Diag.str();
  uint64_t DiskHits = Cache.stats().Hits - Before.Hits;

  VersionStore InMemory;
  CompileCache Warm;
  commitAll(InMemory, Sources, Warm);
  Opts.Cache = &Warm;
  Before = Warm.stats();
  auto FromMemory =
      Compiler::recompile(Next, InMemory.latest()->Record, Opts, Diag);
  ASSERT_TRUE(FromMemory.has_value()) << Diag.str();
  uint64_t MemoryHits = Warm.stats().Hits - Before.Hits;

  EXPECT_EQ(DiskHits, MemoryHits);
  EXPECT_EQ(MemoryHits, FromMemory->Record.FinalCode.size() - 1)
      << "every function but the edited one hits";
  EXPECT_EQ(FromDisk->Image.serialize(), FromMemory->Image.serialize());
  EXPECT_TRUE(FromDisk->Record == FromMemory->Record);
}

TEST_F(ScratchDir, CorruptManifestIsRejected) {
  {
    DiagnosticEngine Diag;
    auto Store = VersionStore::open(Dir, Diag);
    ASSERT_TRUE(Store.has_value());
    buildChain(*Store);
  }
  std::ofstream(Dir + "/manifest.json") << "{ not json";
  DiagnosticEngine Diag;
  EXPECT_FALSE(VersionStore::open(Dir, Diag).has_value());
  EXPECT_TRUE(Diag.hasErrors());
}

TEST_F(ScratchDir, MissingArtifactIsRejected) {
  {
    DiagnosticEngine Diag;
    auto Store = VersionStore::open(Dir, Diag);
    ASSERT_TRUE(Store.has_value());
    buildChain(*Store);
  }
  std::remove((Dir + "/v1.rec").c_str());
  DiagnosticEngine Diag;
  EXPECT_FALSE(VersionStore::open(Dir, Diag).has_value());
  EXPECT_TRUE(Diag.hasErrors());
}

/// Installs a store write hook for one scope.
struct WriteHookScope {
  explicit WriteHookScope(StoreWriteHook Hook) {
    setStoreWriteHookForTesting(std::move(Hook));
  }
  ~WriteHookScope() { setStoreWriteHookForTesting(nullptr); }
  WriteHookScope(const WriteHookScope &) = delete;
  WriteHookScope &operator=(const WriteHookScope &) = delete;
};

TEST_F(ScratchDir, CommitCutOffAtAnyWriteReopensAsTheStoreBefore) {
  // buildChain's three commits, one at a time.
  const UpdateCase &Case = updateCases()[5];
  const std::string Sources[] = {Case.OldSource, Case.NewSource,
                                 Case.OldSource};
  auto Commit = [&](VersionStore &S, int N) {
    DiagnosticEngine Diag;
    return N == 0 ? S.addInitial(Sources[0], uccOptions(), Diag)
                  : S.addUpdate(Sources[N], uccOptions(), Diag);
  };
  VersionStore Fresh;
  buildChain(Fresh);
  // Reopens \p D and returns how many versions it holds; each must be
  // bit-identical to the uncut chain's.
  auto Reopen = [&](const std::string &D) -> size_t {
    DiagnosticEngine Diag;
    auto S = VersionStore::open(D, Diag);
    EXPECT_TRUE(S.has_value()) << Diag.str();
    if (!S)
      return SIZE_MAX;
    for (const auto &V : S->versions()) {
      EXPECT_EQ(V->Image.serialize(), Fresh.find(V->Id)->Image.serialize());
      EXPECT_EQ(V->Record.serialize(), Fresh.find(V->Id)->Record.serialize());
    }
    return S->size();
  };

  for (int N = 0; N < 3; ++N) {
    // Cut the K-th write of commit N off after half its bytes, for every
    // K, until a K past the commit's last write lets it through.
    int K = 1;
    for (; K < 8; ++K) {
      std::string D = Dir + "/n" + std::to_string(N) + "k" + std::to_string(K);
      int Id;
      {
        DiagnosticEngine Diag;
        auto S = VersionStore::open(D, Diag);
        ASSERT_TRUE(S.has_value()) << Diag.str();
        for (int M = 0; M < N; ++M)
          ASSERT_EQ(Commit(*S, M), M);
        int Seen = 0;
        WriteHookScope Cut([&](const std::string &, size_t Bytes) {
          return ++Seen == K ? Bytes / 2 : Bytes;
        });
        Id = Commit(*S, N);
      }
      size_t Size = Reopen(D);
      if (Id == N) {
        EXPECT_EQ(Size, static_cast<size_t>(N + 1));
        break;
      }
      EXPECT_EQ(Id, -1);
      EXPECT_TRUE(Size == static_cast<size_t>(N) ||
                  Size == static_cast<size_t>(N + 1))
          << "commit " << N << " cut at write " << K << ": " << Size;
      // The cut commit's leftovers do not block committing it again.
      DiagnosticEngine Diag;
      auto S = VersionStore::open(D, Diag);
      ASSERT_TRUE(S.has_value()) << Diag.str();
      if (S->size() == static_cast<size_t>(N)) {
        EXPECT_EQ(Commit(*S, N), N);
      }
      EXPECT_EQ(Reopen(D), static_cast<size_t>(N + 1));
    }
    EXPECT_EQ(K, 4) << "a commit writes its image, record and manifest";
  }
}

TEST(VersionStore, CommitLoopBuildsTheChain) {
  // A commit loop sharing one compile cache across commits builds the
  // same chain as uncached commits.
  VersionStore Store;
  CompileCache Cache;
  CompileOptions Opts = uccOptions();
  Opts.Cache = &Cache;
  const UpdateCase &Case = updateCases()[5];
  DiagnosticEngine Diag;
  EXPECT_EQ(Store.addInitial(Case.OldSource, Opts, Diag), 0) << Diag.str();
  EXPECT_FALSE(Store.plan(Store.latest()->Parent, Store.latest()->Id)
                   .has_value())
      << "the root has no previous version to plan from";
  EXPECT_EQ(Store.addUpdate(Case.NewSource, Opts, Diag), 1) << Diag.str();
  EXPECT_EQ(Store.addUpdate(Case.OldSource, Opts, Diag), 2) << Diag.str();

  const StoredVersion *Tip = Store.latest();
  auto P = Store.plan(Tip->Parent, Tip->Id);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->From, 1);
  EXPECT_EQ(P->To, 2);
  EXPECT_EQ(P->ChainSteps, 1);

  // The cache changes nothing: the same three-step chain the uncached
  // manual API builds.
  VersionStore Manual;
  buildChain(Manual);
  for (int Id = 0; Id < 3; ++Id)
    EXPECT_EQ(Store.find(Id)->Image.serialize(),
              Manual.find(Id)->Image.serialize())
        << "v" << Id;
}

TEST(VersionStore, SourceHashIsStable) {
  EXPECT_EQ(sourceHash(""), sourceHash(""));
  EXPECT_NE(sourceHash("a"), sourceHash("b"));
  EXPECT_EQ(sourceHash("abc").size(), 16u);
}

} // namespace
