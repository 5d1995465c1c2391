//===- perfbench/src/FleetRollout.cpp - the network-bound workload --------===//
//
// A fleet of a few thousand nodes on a grid, running a seeded mixed-version
// histogram that drifts between campaigns. One operation = one campaign:
// plan every stale cohort through PlanService (mostly cache hits), then
// one simulateFlood per cohort under a lossy, CSMA, duty-cycled radio.
// Releases are committed only in set-up; the campaigns roll the fleet
// forward through them, a new target every campaign, so the event
// simulator does most of the work and the serving and diff layers little.
// Rolling through many releases, and starting the sweep over when it ends,
// keeps the flooded script sizes an average over many releases rather
// than a property of a few.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "regalloc/UccIlpModel.h"
#include "serve/PlanService.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace pb {

namespace {

constexpr int SetupReps = 5;
constexpr size_t OpsPerWindow = 20;
constexpr int Releases = 210;      // versions 0..209, one linear chain
constexpr int FirstTarget = 9;     // the fleet starts out on 0..9
constexpr int GridW = 40, GridH = 50;
constexpr int DriftPerMille = 15;  // nodes that fall behind per campaign
constexpr int MaxDriftLag = 3;     // ... by at most this many releases
constexpr int RollbackEvery = 10;  // one campaign in ten rolls back one
constexpr uint64_t SweepCampaigns = Releases - FirstTarget;

/// A lag of 1..MaxLag releases with a 1/lag law.
int drawLag(Rng &R, int MaxLag) {
  double Total = 0;
  for (int L = 1; L <= MaxLag; ++L)
    Total += 1.0 / L;
  double U = R.unit() * Total;
  for (int L = 1; L < MaxLag; ++L)
    if ((U -= 1.0 / L) <= 0)
      return L;
  return MaxLag;
}

} // namespace

RunOutput runFleetRollout(const Config &C) {
  RunOutput Out;
  const ucc::CompileOptions Commit = commitOptions(C.UccRa, 1);
  ucc::PlanServiceOptions SO;
  SO.CacheCapacity = 64;
  SO.Shards = 8;

  // Set-up: the release chain, the topology, the initial fleet histogram
  // and a plan cache warmed from it.
  std::unique_ptr<ucc::PlanService> Svc;
  std::vector<Program> Models;
  std::vector<int> Parents;
  std::array<int, NumEditKinds> Hist{};
  ucc::Topology Topo;
  std::vector<int> Nodes;
  Rng R(0);
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    ucc::clearWindowCache();
    R = Rng(C.Seed * 0x9e3779b97f4a7c15ULL + 4);
    Models = {generateFirmware(C.Seed)};
    Parents = {-1};
    Hist = {};
    ucc::DiagnosticEngine D;
    double T0 = nowS();
    auto S = std::make_unique<ucc::PlanService>(ucc::VersionStore(), SO);
    if (S->commit(render(Models[0]), Commit, D) != 0)
      throw std::runtime_error("fleet-rollout: initial compile failed");
    for (int V = 1; V < Releases; ++V) {
      Program M = Models.back();
      applyRelease(M, R, Hist);
      if (S->commit(render(M), Commit, D) != V)
        throw std::runtime_error("fleet-rollout: set-up commit failed");
      Models.push_back(std::move(M));
      Parents.push_back(V - 1);
    }
    Topo = ucc::Topology::grid(GridW, GridH);
    Nodes.assign(static_cast<size_t>(Topo.NumNodes), FirstTarget);
    for (size_t N = 1; N < Nodes.size(); ++N)
      Nodes[N] = R.below(10) < 6 ? FirstTarget
                                 : FirstTarget - drawLag(R, FirstTarget);
    S->warm(Nodes, FirstTarget, 1);
    Out.SetupS.push_back(nowS() - T0);
    Svc = std::move(S);
  }

  const std::vector<int> InitialNodes = Nodes;
  std::map<int, int> Histogram;
  for (size_t N = 1; N < Nodes.size(); ++N)
    ++Histogram[Nodes[N]];

  const ucc::VersionStore &Store = Svc->store();
  Recorder Rec;
  VersionFacts Facts = checkVersions(Store, Models, Parents, 1,
                                     C.Trace ? &Rec : nullptr);
  for (bool Ok : Facts.Ok) {
    ++Out.Attempted;
    Out.Failed += !Ok;
  }
  Out.SelfCheckFlagged = corruptedImageIsFlagged(
      evaluate(Models[1]), Facts.Patched1, Facts.Gcc[1]);

  // The last plan object served for each pair; hits return the same
  // object, so each distinct one is checked once.
  std::map<std::pair<int, int>, std::shared_ptr<const ucc::UpdatePlan>>
      Checked;
  double Deadline = nowS() + C.Seconds;
  uint64_t Op = 0;
  int64_t Packets = 0, Retx = 0;
  size_t Cohorts = 0;
  for (; nowS() < Deadline || Op < static_cast<uint64_t>(LedgerOps); ++Op) {
    const bool Traced = C.Trace && Op % 2 == 0;
    // The rollout sweeps the release chain and then starts over from the
    // initial histogram, so every run, however fast the host, floods the
    // same mix of releases.
    const uint64_t InSweep = Op % SweepCampaigns;
    if (InSweep == 0)
      Nodes = InitialNodes;
    const int Release = FirstTarget + static_cast<int>(InSweep);
    const int Target =
        Op % RollbackEvery == RollbackEvery - 1 ? Release - 1 : Release;
    std::vector<int> Stale;
    std::vector<std::shared_ptr<const ucc::UpdatePlan>> Plans;
    std::vector<ucc::FleetResult> Floods;
    double T0 = nowS();
    {
      TraceScope TS(Traced ? &Rec : nullptr, Op);
      Span OpSpan("op");
      Stale = ucc::staleVersions(Nodes, Target);
      for (int V : Stale) {
        Span S("PlanService::plan");
        Plans.push_back(Svc->plan(V, Target));
      }
      for (size_t K = 0; K < Stale.size(); ++K) {
        if (!Plans[K])
          break;
        Span S("simulateFlood");
        Floods.push_back(ucc::simulateFlood(
            Topo, Plans[K]->ScriptBytes,
            fleetConfig(C.Seed * 7919 + Op * 64 + K, C.Jobs)));
      }
    }
    double Ms = (nowS() - T0) * 1e3;
    (Traced ? Out.TracedOpMs : Out.OpMs).push_back(Ms);
    ++Out.Attempted;
    Cohorts += Stale.size();

    // Untimed: every flood completed, every distinct plan is exact (the
    // store is quiesced: nothing is committed after set-up).
    bool Ok = Floods.size() == Stale.size();
    for (size_t K = 0; Ok && K < Stale.size(); ++K) {
      Ok = Floods[K].NodesIncomplete == 0;
      auto &Last = Checked[{Stale[K], Target}];
      if (Ok && Plans[K] != Last) {
        Ok = servedPlanIsExact(Store, Stale[K], Target, Plans[K].get());
        Last = Plans[K];
      }
      if (!Ok)
        std::fprintf(stderr, "fleet-rollout: campaign %llu cohort %d failed\n",
                     static_cast<unsigned long long>(Op), Stale[K]);
    }
    if (!Ok) {
      ++Out.Failed;
      continue;
    }
    if (Op < static_cast<uint64_t>(LedgerOps)) {
      for (size_t K = 0; K < Stale.size(); ++K) {
        Out.L.ScriptBytes += static_cast<double>(Plans[K]->ScriptBytes);
        Out.L.RadioJoules += Floods[K].totalJoules();
      }
    }
    for (const ucc::FleetResult &F : Floods) {
      Packets += static_cast<int64_t>(F.Packets) * F.Transmitters +
                 F.Retransmissions;
      Retx += F.Retransmissions;
    }

    // The campaign updated every node; then some fall behind again.
    for (size_t N = 1; N < Nodes.size(); ++N) {
      Nodes[N] = Target;
      if (R.below(1000) < DriftPerMille)
        Nodes[N] = std::max(0, Target - drawLag(R, MaxDriftLag));
    }
  }

  chunkWindows(Out, OpsPerWindow);

  std::printf("# fleet-rollout: %d nodes (grid %dx%d), %d releases, %llu "
              "campaigns, %.2f cohorts per campaign, initial histogram:",
              Topo.NumNodes, GridW, GridH, Releases,
              static_cast<unsigned long long>(Op),
              static_cast<double>(Cohorts) / static_cast<double>(std::max<uint64_t>(1, Op)));
  for (const auto &[V, N] : Histogram)
    std::printf(" v%d=%d", V, N);
  std::printf("\n# firmware: %zu functions (%d straight-line); edit kinds:",
              Models[0].Functions.size(), countStraightLine(Models[0]));
  for (int K = 0; K < NumEditKinds; ++K)
    std::printf(" %s=%d", editKindName(K), Hist[static_cast<size_t>(K)]);
  std::printf("\n");

  if (C.Trace) {
    attributeLayers(Rec, static_cast<int>(Out.TracedOpMs.size()),
                    Out.TracedOpMs, Out.OpMs, Out.Layer);
    Out.Layer["net.retx_ratio"] =
        Packets > 0 ? static_cast<double>(Retx) / static_cast<double>(Packets)
                    : 0;
    Out.Spans = std::move(Rec.Spans);
  }
  return Out;
}

} // namespace pb
