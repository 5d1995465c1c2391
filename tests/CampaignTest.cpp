//===- tests/CampaignTest.cpp - mixed-version fleet campaigns -------------===//
//
// A fleet campaign floods one script per deployed-version cohort. The net
// layer only sees script sizes (by design — it must not know the compiler);
// planFleetCampaign binds the serving layer's planner into it.
//
//===----------------------------------------------------------------------===//

#include "core/VersionStore.h"
#include "net/EventSim.h"
#include "net/Network.h"
#include "serve/PlanService.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

size_t fakeBytes(int From) { return From == 0 ? 100 : 40; }

TEST(Campaign, GroupsNodesByDeployedVersion) {
  Topology T = Topology::line(6);
  // Node 0 is the sink. Stale cohorts: v0 = {1,2}, v1 = {3,4}; node 5 is
  // already current.
  std::vector<int> Versions = {2, 0, 0, 1, 1, 2};
  CampaignResult R = runUpdateCampaign(T, Versions, 2, fakeBytes);

  EXPECT_EQ(R.TargetVersion, 2);
  EXPECT_EQ(R.NodesUpdated, 4);
  EXPECT_EQ(R.NodesCurrent, 1);
  ASSERT_EQ(R.Cohorts.size(), 2u);
  // Cohorts are ordered oldest version first.
  EXPECT_EQ(R.Cohorts[0].FromVersion, 0);
  EXPECT_EQ(R.Cohorts[0].Nodes, (std::vector<int>{1, 2}));
  EXPECT_EQ(R.Cohorts[0].ScriptBytes, 100u);
  EXPECT_EQ(R.Cohorts[1].FromVersion, 1);
  EXPECT_EQ(R.Cohorts[1].Nodes, (std::vector<int>{3, 4}));
  EXPECT_EQ(R.Cohorts[1].ScriptBytes, 40u);
}

TEST(Campaign, StaleVersionsAllCurrentIsEmpty) {
  // Every non-sink node already runs the target.
  EXPECT_TRUE(staleVersions({7, 3, 3, 3, 3}, 3).empty());
  // Single-node fleet: only the sink, nothing to plan.
  EXPECT_TRUE(staleVersions({0}, 5).empty());
  // Empty fleet.
  EXPECT_TRUE(staleVersions({}, 5).empty());
}

TEST(Campaign, StaleVersionsAllStaleListsEachVersionOnce) {
  // Node 0 (the sink, running 9) is skipped even though 9 != target.
  std::vector<int> Stale = staleVersions({9, 2, 0, 2, 1, 0}, 3);
  EXPECT_EQ(Stale, (std::vector<int>{0, 1, 2}));
}

TEST(Campaign, StaleVersionsSinkOnlyFleetIgnoresTheSink) {
  // The sink's own (stale-looking) version never forms a cohort, matching
  // runUpdateCampaign's grouping.
  std::vector<int> Versions = {0, 4, 4};
  EXPECT_EQ(staleVersions(Versions, 4), std::vector<int>{});
  CampaignResult R = runUpdateCampaign(Topology::line(3), Versions, 4,
                                       fakeBytes);
  EXPECT_TRUE(R.Cohorts.empty());
}

TEST(Campaign, AllNodesCurrentMeansNoFloods) {
  Topology T = Topology::star(5);
  std::vector<int> Versions(5, 3);
  CampaignResult R = runUpdateCampaign(T, Versions, 3, fakeBytes);
  EXPECT_TRUE(R.Cohorts.empty());
  EXPECT_EQ(R.NodesUpdated, 0);
  EXPECT_EQ(R.NodesCurrent, 4); // the sink is not counted
  EXPECT_EQ(R.totalJoules(), 0.0);
  EXPECT_EQ(R.totalBytesOnAir(), 0u);
}

TEST(Campaign, EnergyIsTheSumOfPerCohortFloods) {
  Topology T = Topology::grid(4, 3);
  std::vector<int> Versions = {2, 0, 1, 0, 1, 0, 2, 1, 0, 1, 0, 2};
  FleetConfig Cfg;
  Cfg.Link.LossRate = 0.2;
  Cfg.Seed = 77;
  CampaignResult R = runUpdateCampaign(T, Versions, 2, fakeBytes, Cfg);
  ASSERT_EQ(R.Cohorts.size(), 2u);

  // Each cohort's flood must match a standalone flood with the
  // cohort-offset seed — the campaign adds bookkeeping, not new physics.
  double Total = 0.0;
  int Idx = 0;
  for (const UpdateCohort &C : R.Cohorts) {
    FleetConfig CohortCfg = Cfg;
    CohortCfg.Seed = Cfg.Seed + static_cast<uint64_t>(Idx);
    FleetResult Alone = simulateFlood(T, C.ScriptBytes, CohortCfg);
    EXPECT_DOUBLE_EQ(C.Flood.totalJoules(), Alone.totalJoules());
    EXPECT_EQ(C.Flood.Retransmissions, Alone.Retransmissions);
    EXPECT_EQ(C.Flood.NodesIncomplete, 0);
    Total += Alone.totalJoules();
    ++Idx;
  }
  EXPECT_DOUBLE_EQ(R.totalJoules(), Total);
}

TEST(Campaign, DisconnectedNodesShowUpAsIncomplete) {
  // Nodes 3 and 4 have no path to the sink: no cohort flood reaches them,
  // and each flood says so.
  Topology T;
  T.NumNodes = 5;
  T.Neighbors = {{1}, {0, 2}, {1}, {4}, {3}};
  std::vector<int> Versions = {2, 0, 1, 0, 1};
  CampaignResult R = runUpdateCampaign(T, Versions, 2, fakeBytes);
  ASSERT_EQ(R.Cohorts.size(), 2u);
  for (const UpdateCohort &C : R.Cohorts) {
    EXPECT_EQ(C.Flood.NodesComplete, 3);
    EXPECT_EQ(C.Flood.NodesIncomplete, 2);
    EXPECT_EQ(C.Flood.PerNodeJoules[3], 0.0);
    EXPECT_EQ(C.Flood.PerNodeJoules[4], 0.0);
  }
}

TEST(Campaign, EmitsPerCohortTelemetry) {
  Telemetry T;
  T.enableEvents();
  {
    TelemetryScope Scope(T);
    Topology Line = Topology::line(5);
    std::vector<int> Versions = {2, 0, 1, 0, 1};
    runUpdateCampaign(Line, Versions, 2, fakeBytes);
  }
  EXPECT_EQ(T.counter("net.campaigns"), 1);
  EXPECT_EQ(T.counter("net.cohorts"), 2);
  EXPECT_EQ(T.counter("net.floods"), 2);
  EXPECT_GT(T.gauge("net.campaign_joules"), 0.0);

  int CohortEvents = 0;
  for (const TelemetryEvent *Ev : T.eventsInOrder())
    if (Ev->Name == "campaign.cohort")
      ++CohortEvents;
  EXPECT_EQ(CohortEvents, 2);

  // The campaign span wraps the per-flood net spans.
  const TelemetrySpan *Campaign = T.spans().find("campaign");
  ASSERT_NE(Campaign, nullptr);
  const TelemetrySpan *Net = Campaign->find("net");
  ASSERT_NE(Net, nullptr);
  EXPECT_EQ(Net->Count, 2);
}

TEST(Campaign, PlanFleetCampaignShipsThePlannedScripts) {
  VersionStore Store;
  const UpdateCase &Case = updateCases()[5];
  CompileOptions Opts;
  Opts.RA = RegAllocKind::UpdateConscious;
  Opts.DA = DataAllocKind::UpdateConscious;
  DiagnosticEngine Diag;
  ASSERT_EQ(Store.addInitial(Case.OldSource, Opts, Diag), 0) << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.NewSource, Opts, Diag), 1) << Diag.str();
  ASSERT_EQ(Store.addUpdate(Case.OldSource, Opts, Diag), 2) << Diag.str();

  PlanService Service(std::move(Store));
  Topology T = Topology::line(7);
  std::vector<int> Versions = {2, 0, 1, 2, 0, 1, 0};
  auto R = planFleetCampaign(Service, T, Versions, 2, Diag);
  ASSERT_TRUE(R.has_value()) << Diag.str();
  ASSERT_EQ(R->Cohorts.size(), 2u);
  EXPECT_EQ(R->NodesUpdated, 5);
  EXPECT_EQ(R->NodesCurrent, 1);

  // Every cohort's flood carries exactly the planner's chosen script, and
  // that script patches the cohort's image to the target image.
  const VersionStore &S = Service.store();
  for (const UpdateCohort &C : R->Cohorts) {
    auto P = S.plan(C.FromVersion, 2);
    ASSERT_TRUE(P.has_value());
    EXPECT_EQ(C.ScriptBytes, P->ScriptBytes);
    BinaryImage Patched;
    ASSERT_TRUE(applyUpdate(S.find(C.FromVersion)->Image, P->Update, Patched));
    EXPECT_EQ(Patched.serialize(), S.find(2)->Image.serialize());
  }
}

TEST(Campaign, PlanFleetCampaignRejectsUnknownVersions) {
  VersionStore Store;
  const UpdateCase &Case = updateCases()[5];
  DiagnosticEngine Diag;
  ASSERT_EQ(Store.addInitial(Case.OldSource, CompileOptions(), Diag), 0);
  PlanService Service(std::move(Store));

  Topology T = Topology::line(3);
  std::vector<int> Versions = {0, 9, 0}; // node 1 claims an unknown version
  EXPECT_FALSE(
      planFleetCampaign(Service, T, Versions, 0, Diag).has_value());
  EXPECT_TRUE(Diag.hasErrors());
}

} // namespace
