//===- tests/PlanServiceTest.cpp - the update-distribution service --------===//
//
// The serving layer's contract: plans byte-identical to the raw store,
// exact hit/miss/eviction accounting, an exactly-once in-flight latch
// under contention, snapshot isolation across concurrent commits, batch
// dedupe, the fleet campaign, and the load driver that replays request
// streams against it. The concurrent tests run under TSan in CI — they
// are the data-race regression net for the snapshot publication, the
// cache latch and the driver's closed loop.
//
//===----------------------------------------------------------------------===//

#include "serve/LoadDriver.h"
#include "serve/PlanService.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>

using namespace ucc;

namespace {

CompileOptions uccOptions() {
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  return Opts;
}

/// A chain alternating between a real update case's old and new sources:
/// even and odd versions share source text (and image content), so the
/// canonical content-hash cache key collides across distinct id pairs —
/// exactly the case the exact-id confirmation must tell apart.
VersionStore buildChain(int Versions = 4) {
  const UpdateCase &Case = updateCases()[5];
  VersionStore Store;
  DiagnosticEngine Diag;
  EXPECT_EQ(Store.addInitial(Case.OldSource, uccOptions(), Diag), 0)
      << Diag.str();
  for (int V = 1; V < Versions; ++V) {
    const std::string &Source =
        (V % 2) ? Case.NewSource : Case.OldSource;
    EXPECT_EQ(Store.addUpdate(Source, uccOptions(), Diag), V)
        << Diag.str();
  }
  return Store;
}

/// A branched history: v0 -> v1 -> {v2, v3 -> v4}. Cross-branch plans
/// (2 <-> 4) must route through the LCA at v1.
VersionStore buildDag() {
  const UpdateCase &Case = updateCases()[5];
  VersionStore Store;
  DiagnosticEngine Diag;
  auto Src = [&](int V) -> const std::string & {
    return (V % 2) ? Case.NewSource : Case.OldSource;
  };
  EXPECT_EQ(Store.addInitial(Src(0), uccOptions(), Diag), 0) << Diag.str();
  EXPECT_EQ(Store.addUpdate(Src(1), uccOptions(), Diag, 0), 1) << Diag.str();
  EXPECT_EQ(Store.addUpdate(Src(2), uccOptions(), Diag, 1), 2) << Diag.str();
  EXPECT_EQ(Store.addUpdate(Src(3), uccOptions(), Diag, 1), 3) << Diag.str();
  EXPECT_EQ(Store.addUpdate(Src(4), uccOptions(), Diag, 3), 4) << Diag.str();
  return Store;
}

std::vector<uint8_t> planBytes(const std::shared_ptr<const UpdatePlan> &P) {
  EXPECT_TRUE(P != nullptr);
  return P ? P->Update.serialize() : std::vector<uint8_t>();
}

TEST(PlanService, ServesByteIdenticalPlansAcrossJobCounts) {
  // The acceptance anchor, at --jobs 1 and --jobs 8: a served plan is the
  // raw VersionStore::plan result, byte for byte, including the route
  // metadata the campaign layer keys on.
  for (int Jobs : {1, 8}) {
    ThreadPool::setDefaultJobs(Jobs);
    VersionStore Reference = buildChain();
    PlanService Service(buildChain());
    for (int From = 0; From < 4; ++From)
      for (int To = 0; To < 4; ++To) {
        auto Served = Service.plan(From, To);
        auto Direct = Reference.plan(From, To);
        ASSERT_TRUE(Served != nullptr) << From << "->" << To;
        EXPECT_EQ(Served->Update.serialize(), Direct->Update.serialize())
            << From << "->" << To << " at jobs " << Jobs;
        EXPECT_EQ(Served->Route, Direct->Route);
        EXPECT_EQ(Served->ScriptBytes, Direct->ScriptBytes);
        EXPECT_EQ(Served->ChainSteps, Direct->ChainSteps);
      }
  }
  ThreadPool::setDefaultJobs(0);
}

TEST(PlanService, DagStoresServeByteIdenticalPlansAcrossJobCounts) {
  // Same anchor over a branched store: every ordered pair — upgrades,
  // rollbacks, and the cross-branch hops that route through the LCA —
  // serves byte-identical to the store, at every job count.
  VersionStore Reference = buildDag();
  for (int Jobs : {1, 8}) {
    ThreadPool::setDefaultJobs(Jobs);
    PlanService Service(buildDag());
    for (int From = 0; From < 5; ++From)
      for (int To = 0; To < 5; ++To) {
        auto Served = Service.plan(From, To);
        auto Direct = Reference.plan(From, To);
        ASSERT_TRUE(Served != nullptr && Direct.has_value())
            << From << "->" << To;
        EXPECT_EQ(Served->Update.serialize(), Direct->Update.serialize())
            << From << "->" << To << " jobs " << Jobs;
        EXPECT_EQ(Served->Route, Direct->Route);
        EXPECT_EQ(Served->ChainSteps, Direct->ChainSteps);
      }
  }
  ThreadPool::setDefaultJobs(0);
  // The cross-branch pair really is composed through the LCA (v1):
  // 2 -> 1 -> 3 -> 4 is three hops.
  auto P = Reference.plan(2, 4);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->ChainSteps, 3);
}

TEST(PlanService, SharedContentHashesAreToldApartByIds) {
  // v0 and v2 are content-identical, so (0,3) and (2,3) collide on the
  // canonical key; the collision chain must still serve each id pair its
  // own plan (they differ in chain depth).
  PlanService Service(buildChain());
  auto A = Service.plan(0, 3);
  auto B = Service.plan(2, 3);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->ChainSteps, 3);
  EXPECT_EQ(B->ChainSteps, 1);
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 0u);
  // And both stay cached as distinct entries.
  EXPECT_EQ(planBytes(Service.plan(0, 3)), planBytes(A));
  EXPECT_EQ(planBytes(Service.plan(2, 3)), planBytes(B));
  EXPECT_EQ(Service.stats().Hits, 2u);
}

TEST(PlanService, HitMissEvictionAccounting) {
  PlanServiceOptions Opts;
  Opts.CacheCapacity = 2;
  PlanService Service(buildChain(), Opts);

  EXPECT_TRUE(Service.plan(0, 3) != nullptr); // miss
  EXPECT_TRUE(Service.plan(0, 3) != nullptr); // hit
  EXPECT_TRUE(Service.plan(1, 3) != nullptr); // miss
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Plans, 3u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.CacheEntries, 2u);

  // Re-touch (0,3) so (1,3) is the least recently used, then a third
  // pair evicts it.
  EXPECT_TRUE(Service.plan(0, 3) != nullptr); // hit, moves to front
  EXPECT_TRUE(Service.plan(2, 3) != nullptr); // miss, evicts (1,3)
  S = Service.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.CacheEntries, 2u);
  EXPECT_TRUE(Service.plan(0, 3) != nullptr); // still cached: hit
  EXPECT_EQ(Service.stats().Hits, 3u);
  EXPECT_TRUE(Service.plan(1, 3) != nullptr); // evicted: misses again
  S = Service.stats();
  EXPECT_EQ(S.Misses, 4u);
  EXPECT_EQ(S.Evictions, 2u);
}

TEST(PlanService, AccountingInvariants) {
  // Under a mixed workload the quiesced totals reconcile exactly: every
  // plan() call is one hit, miss or reject, and residency == Misses -
  // Evictions (nothing else removes entries) and never exceeds the
  // capacity once no compute is in flight.
  PlanServiceOptions Opts;
  Opts.CacheCapacity = 4;
  PlanService Service(buildChain(6), Opts);
  Telemetry T;
  TelemetryScope Scope(T);

  for (int From = 0; From < 6; ++From)
    for (int To = 0; To < 6; ++To)
      EXPECT_TRUE(Service.plan(From, To) != nullptr);
  for (int K = 0; K < 10; ++K)
    EXPECT_TRUE(Service.plan(K % 3, 5) != nullptr);
  EXPECT_TRUE(Service.plan(0, 99) == nullptr);
  EXPECT_TRUE(Service.plan(-1, 2) == nullptr);

  // Plans is derived from the cache counts; it must still equal the
  // plan() calls issued above, as the per-call serve.plans counter does.
  const uint64_t Issued = 36u + 10u + 2u;
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Plans, Issued);
  EXPECT_EQ(S.Plans, S.Hits + S.Misses + S.Rejected);
  EXPECT_EQ(T.counter("serve.plans"), static_cast<int64_t>(Issued));
  EXPECT_EQ(S.Rejected, 2u);
  EXPECT_EQ(S.CacheEntries, static_cast<size_t>(S.Misses - S.Evictions));
  EXPECT_EQ(S.CacheEntries, 4u);
  EXPECT_EQ(T.counter("serve.cache_hits"), static_cast<int64_t>(S.Hits));
  EXPECT_EQ(T.counter("serve.cache_misses"),
            static_cast<int64_t>(S.Misses));
  EXPECT_EQ(T.counter("serve.evictions"),
            static_cast<int64_t>(S.Evictions));
}

TEST(PlanService, CapacityZeroDisablesCaching) {
  PlanServiceOptions Opts;
  Opts.CacheCapacity = 0;
  PlanService Service(buildChain(), Opts);
  for (int K = 0; K < 3; ++K)
    EXPECT_TRUE(Service.plan(0, 3) != nullptr);
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.CacheEntries, 0u);
}

TEST(PlanService, UnknownIdsAnswerNullAndAreNeverCached) {
  PlanService Service(buildChain());
  EXPECT_TRUE(Service.plan(0, 99) == nullptr);
  EXPECT_TRUE(Service.plan(-3, 0) == nullptr);
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Plans, 2u);
  EXPECT_EQ(S.Rejected, 2u) << "unknown ids are rejects, not misses";
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(S.CacheEntries, 0u);
}

TEST(PlanService, ExactlyOnceLatchUnderContention) {
  // Many threads hammer one pair on a cold cache: the latch must let
  // exactly one of them compute while the rest wait and share the result.
  PlanService Service(buildChain());
  constexpr int NumThreads = 8;
  std::atomic<int> Ready{0};
  std::vector<std::vector<uint8_t>> Results(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() < NumThreads) {
      } // start as simultaneously as the scheduler allows
      auto P = Service.plan(0, 3);
      ASSERT_TRUE(P != nullptr);
      Results[static_cast<size_t>(T)] = P->Update.serialize();
    });
  for (std::thread &T : Threads)
    T.join();

  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Plans, static_cast<uint64_t>(NumThreads));
  EXPECT_EQ(S.Misses, 1u) << "the pair must be computed exactly once";
  EXPECT_EQ(S.Hits, static_cast<uint64_t>(NumThreads - 1));
  EXPECT_EQ(S.CacheEntries, 1u);
  for (int T = 1; T < NumThreads; ++T)
    EXPECT_EQ(Results[static_cast<size_t>(T)], Results[0]);
}

TEST(PlanService, LatchContentionThroughThreadPoolBatch) {
  // The same exactly-once property when the contention comes from
  // planBatch's own ThreadPool fan-out: dedupe removes intra-batch
  // duplicates, so two overlapping batches contend on the latch instead.
  PlanService Service(buildChain());
  std::vector<std::pair<int, int>> Batch = {{0, 3}, {1, 3}, {2, 3}};
  std::thread Other(
      [&] { Service.planBatch(Batch, 4); });
  std::vector<std::shared_ptr<const UpdatePlan>> Mine =
      Service.planBatch(Batch, 4);
  Other.join();

  for (const auto &P : Mine)
    EXPECT_TRUE(P != nullptr);
  PlanServiceStats S = Service.stats();
  // Six requests total across both batches; each of the three pairs was
  // computed exactly once, whoever got there first.
  EXPECT_EQ(S.Plans, 6u);
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Hits, 3u);
}

TEST(PlanService, SnapshotIsolationAcrossCommitAndPlan) {
  // Readers keep planning (0,1) while the writer commits three more
  // versions. Every read must succeed against a coherent snapshot and
  // return the same bytes — commits never block or corrupt in-flight
  // plans. TSan checks the publication discipline.
  const UpdateCase &Case = updateCases()[5];
  PlanService Service(buildChain(2));
  std::vector<uint8_t> Expected = planBytes(Service.plan(0, 1));

  std::atomic<bool> Stop{false};
  std::atomic<int> Failures{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T < 4; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load()) {
        auto P = Service.plan(0, 1);
        if (!P || P->Update.serialize() != Expected)
          Failures.fetch_add(1);
      }
    });

  DiagnosticEngine Diag;
  for (int V = 2; V < 5; ++V) {
    const std::string &Source =
        (V % 2) ? Case.NewSource : Case.OldSource;
    ASSERT_EQ(Service.commit(Source, uccOptions(), Diag), V)
        << Diag.str();
  }
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Service.versionCount(), 5u);
  EXPECT_EQ(Service.latestId(), 4);
  EXPECT_EQ(Service.stats().Commits, 3u);
  // The committed versions are immediately planable, and still byte-match
  // a store that took the same chain.
  VersionStore Reference = buildChain(5);
  auto Served = Service.plan(0, 4);
  auto Direct = Reference.plan(0, 4);
  ASSERT_TRUE(Served && Direct);
  EXPECT_EQ(Served->Update.serialize(), Direct->Update.serialize());
}

TEST(PlanService, PlansAndVersionsOutliveTheService) {
  std::shared_ptr<const UpdatePlan> Plan;
  std::shared_ptr<const StoredVersion> Old, New;
  {
    PlanService Service(buildChain(3));
    Plan = Service.plan(1, 2);
    Old = Service.version(1);
    New = Service.version(2);
    // The snapshot shares the store's objects instead of copying them,
    // and a commit leaves them in place.
    EXPECT_EQ(Old.get(), Service.store().find(1));
    DiagnosticEngine Diag;
    ASSERT_EQ(Service.commit(updateCases()[5].NewSource, uccOptions(), Diag),
              3)
        << Diag.str();
    EXPECT_EQ(Service.version(2), New);
    EXPECT_EQ(Service.store().find(2), New.get());
    EXPECT_EQ(Service.version(4), nullptr);
  }
  ASSERT_TRUE(Plan && Old && New);
  EXPECT_EQ(Plan->Update.serialize(), New->FromParent.serialize());
  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(Old->Image, Plan->Update, Patched));
  EXPECT_EQ(Patched.serialize(), New->Image.serialize());
}

TEST(PlanService, BatchDedupesAndPreservesOrder) {
  PlanService Service(buildChain());
  std::vector<std::pair<int, int>> Pairs = {
      {0, 3}, {1, 3}, {0, 3}, {2, 3}, {1, 3}, {0, 3}};
  std::vector<std::shared_ptr<const UpdatePlan>> Plans =
      Service.planBatch(Pairs);
  ASSERT_EQ(Plans.size(), Pairs.size());
  for (size_t I = 0; I < Pairs.size(); ++I) {
    ASSERT_TRUE(Plans[I] != nullptr) << "request " << I;
    EXPECT_EQ(Plans[I]->From, Pairs[I].first);
    EXPECT_EQ(Plans[I]->To, Pairs[I].second);
  }
  // Duplicates share the winner's plan, and only distinct pairs planned.
  EXPECT_EQ(planBytes(Plans[0]), planBytes(Plans[2]));
  EXPECT_EQ(planBytes(Plans[0]), planBytes(Plans[5]));
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Batches, 1u);
  EXPECT_EQ(S.BatchDeduped, 3u);
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Plans, 3u) << "deduped requests never reach plan()";

  // A failing pair inside a batch answers null without failing others.
  std::vector<std::shared_ptr<const UpdatePlan>> Mixed =
      Service.planBatch({{0, 3}, {0, 42}});
  EXPECT_TRUE(Mixed[0] != nullptr);
  EXPECT_TRUE(Mixed[1] == nullptr);
}

TEST(PlanService, WarmPrecomputesHotPairsFromFleetHistogram) {
  PlanService Service(buildChain());
  // Fleet: node 0 is the sink; version 1 dominates, version 0 trails.
  std::vector<int> Fleet = {3, 1, 1, 1, 0, 0, 3, 1};
  EXPECT_EQ(Service.warm(Fleet, 3), 2);
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.Precomputed, 2u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.CacheEntries, 2u);
  // Campaign-shaped traffic now serves entirely from the cache.
  EXPECT_TRUE(Service.plan(1, 3) != nullptr);
  EXPECT_TRUE(Service.plan(0, 3) != nullptr);
  S = Service.stats();
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Misses, 2u);

  // A capacity-bounded service warms only as many pairs as the cache
  // can hold, hottest first.
  PlanServiceOptions Tiny;
  Tiny.CacheCapacity = 1;
  PlanService Bounded(buildChain(), Tiny);
  EXPECT_EQ(Bounded.warm(Fleet, 3), 1);
  EXPECT_TRUE(Bounded.plan(1, 3) != nullptr); // the hot pair: a hit
  EXPECT_EQ(Bounded.stats().Hits, 1u);
}

TEST(PlanService, ClearCacheResetsEntriesButNotAccounting) {
  PlanService Service(buildChain());
  EXPECT_TRUE(Service.plan(0, 3) != nullptr);
  EXPECT_TRUE(Service.plan(1, 3) != nullptr);
  EXPECT_EQ(Service.stats().CacheEntries, 2u);
  Service.clearCache();
  PlanServiceStats S = Service.stats();
  EXPECT_EQ(S.CacheEntries, 0u);
  EXPECT_EQ(S.Evictions, 0u) << "a clear is not an eviction";
  EXPECT_TRUE(Service.plan(0, 3) != nullptr);
  EXPECT_EQ(Service.stats().Misses, 3u);
}

TEST(PlanService, CampaignThroughServiceMatchesStoreBackedCampaign) {
  // The serving-layer campaign must be flood-for-flood identical to the
  // net-layer campaign fed straight from VersionStore::plan (same plans,
  // same seeds, same joules).
  VersionStore Store = buildChain();
  Topology T = Topology::line(9);
  std::vector<int> Deployed = {3, 0, 1, 2, 0, 1, 3, 2, 0};
  RadioChannel Channel;
  Channel.LossRate = 0.15;
  Channel.Seed = 7;

  CampaignResult ViaStore = runUpdateCampaign(
      T, Deployed, 3,
      [&](int From) {
        auto P = Store.plan(From, 3);
        EXPECT_TRUE(P.has_value());
        return P ? P->ScriptBytes : 0;
      },
      PacketFormat(), Mica2Power(), Channel);

  DiagnosticEngine Diag;
  PlanService Service(buildChain());
  auto ViaService =
      planFleetCampaign(Service, T, Deployed, 3, Diag, PacketFormat(),
                        Mica2Power(), Channel);
  ASSERT_TRUE(ViaService.has_value()) << Diag.str();

  ASSERT_EQ(ViaService->Cohorts.size(), ViaStore.Cohorts.size());
  for (size_t K = 0; K < ViaStore.Cohorts.size(); ++K) {
    EXPECT_EQ(ViaService->Cohorts[K].FromVersion,
              ViaStore.Cohorts[K].FromVersion);
    EXPECT_EQ(ViaService->Cohorts[K].Nodes, ViaStore.Cohorts[K].Nodes);
    EXPECT_EQ(ViaService->Cohorts[K].ScriptBytes,
              ViaStore.Cohorts[K].ScriptBytes);
    EXPECT_DOUBLE_EQ(ViaService->Cohorts[K].Flood.totalJoules(),
                     ViaStore.Cohorts[K].Flood.totalJoules());
  }
  EXPECT_EQ(ViaService->totalBytesOnAir(), ViaStore.totalBytesOnAir());

  // An unknown target is a planning error, not a crash.
  DiagnosticEngine Diag2;
  EXPECT_FALSE(planFleetCampaign(Service, T, Deployed, 9, Diag2)
                   .has_value());
  EXPECT_TRUE(Diag2.hasErrors());
}

// serve/LoadDriver, the one request loop behind `uccc serve-bench` and
// bench_plan_service.

TEST(LoadDriver, HistogramCountsEveryRequestInEveryMode) {
  PlanService Service(buildChain());
  std::vector<std::pair<int, int>> Stream = {{0, 3}, {1, 3}, {2, 3}};
  // Sequential, batches of 8 (8 + 8 + 4), and a 4-thread closed loop.
  for (auto [Batch, Threads] :
       {std::pair{0, 1}, std::pair{8, 1}, std::pair{0, 4}}) {
    DurationDist H;
    LoadResult R = runLoad(
        Service, Stream, {.Requests = 20, .Batch = Batch, .Threads = Threads},
        H);
    EXPECT_FALSE(R.Failed.has_value());
    EXPECT_EQ(R.Issued, 20);
    EXPECT_EQ(H.Count, 20u) << Batch << " " << Threads;
    EXPECT_GT(R.plansPerSec(), 0.0);
  }
}

TEST(LoadDriver, ThreadedClosedLoopOverWarmCacheAddsExactlyNHits) {
  PlanService Service(buildChain());
  std::vector<std::pair<int, int>> Stream = {{0, 3}, {1, 3}, {2, 3}};
  Service.planBatch(Stream); // every pair is now cached
  PlanServiceStats Before = Service.stats();
  // The workers' scratch registries must land in the caller's.
  Telemetry T;
  TelemetryScope Scope(T);
  DurationDist H;
  LoadResult R = runLoad(Service, Stream, {.Requests = 300, .Threads = 4}, H);
  PlanServiceStats After = Service.stats();
  EXPECT_FALSE(R.Failed.has_value());
  EXPECT_EQ(H.Count, 300u);
  EXPECT_EQ(After.Hits - Before.Hits, 300u);
  EXPECT_EQ(After.Misses, Before.Misses);
  EXPECT_EQ(T.counter("serve.plans"), 300);
  EXPECT_EQ(T.counter("serve.cache_hits"), 300);
}

TEST(LoadDriver, UnknownPairIsReportedNotDropped) {
  PlanService Service(buildChain());
  std::vector<std::pair<int, int>> Stream = {{0, 3}, {1, 3}, {7, 3}, {2, 3}};
  // Sequential and batched runs stop right after the failing request (the
  // first batch of 3 holds it); how many requests a threaded run issues
  // before its workers see the failure is scheduling.
  for (LoadOptions Opts : {LoadOptions{.Requests = 8},
                           LoadOptions{.Requests = 8, .Batch = 3},
                           LoadOptions{.Requests = 8, .Threads = 4}}) {
    DurationDist H;
    LoadResult R = runLoad(Service, Stream, Opts, H);
    ASSERT_TRUE(R.Failed.has_value()) << Opts.Batch << " " << Opts.Threads;
    EXPECT_EQ(*R.Failed, std::make_pair(7, 3));
    EXPECT_GE(R.Issued, 1);
    EXPECT_TRUE(Opts.Threads > 1 || R.Issued == 3) << R.Issued;
    EXPECT_EQ(H.Count, static_cast<uint64_t>(R.Issued));
  }
}

TEST(StaleVersions, DistinctSortedAndSinkSkipped) {
  EXPECT_EQ(staleVersions({3, 2, 1, 2, 3, 0}, 3),
            (std::vector<int>{0, 1, 2}));
  // Node 0's version never counts, even when stale.
  EXPECT_EQ(staleVersions({0, 3, 3}, 3), (std::vector<int>()));
  EXPECT_EQ(staleVersions({}, 3), (std::vector<int>()));
}

} // namespace
