//===- net/Network.cpp - topologies, packets and fleet campaigns ---------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Topology builders (line/grid/star), BFS hop distances, the
/// packetization arithmetic behind PacketFormat, and the fleet campaign
/// declared in net/EventSim.h: one simulateFlood per deployed-version
/// cohort. The campaign lives here, not in EventSim.cpp, because a caller
/// of simulateFlood inside that file changes how GCC inlines the flood's
/// event loop.
///
//===----------------------------------------------------------------------===//

#include "net/Network.h"

#include "net/EventSim.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <optional>

using namespace ucc;

// Clamped accessors behind PacketFormat: a misconfigured format must not
// divide by zero (or produce negative counts) in the middle of a flood.
static int clampedPayload(const PacketFormat &Fmt) {
  if (Fmt.PayloadBytes > 0)
    return Fmt.PayloadBytes;
  if (Telemetry *Tel = currentTelemetry())
    Tel->addCounter("net.bad_packet_format");
  return 1;
}

static int clampedHeader(const PacketFormat &Fmt) {
  if (Fmt.HeaderBytes >= 0)
    return Fmt.HeaderBytes;
  if (Telemetry *Tel = currentTelemetry())
    Tel->addCounter("net.bad_packet_format");
  return 0;
}

int PacketFormat::packetsFor(size_t ScriptBytes) const {
  if (ScriptBytes == 0)
    return 0;
  size_t Payload = static_cast<size_t>(clampedPayload(*this));
  return static_cast<int>((ScriptBytes + Payload - 1) / Payload);
}

size_t PacketFormat::bytesOnAir(size_t ScriptBytes) const {
  return ScriptBytes + static_cast<size_t>(packetsFor(ScriptBytes)) *
                           static_cast<size_t>(clampedHeader(*this));
}

Topology Topology::line(int N) {
  assert(N > 0 && "line topology needs at least one node");
  Topology T;
  T.NumNodes = N;
  T.Neighbors.assign(static_cast<size_t>(N), {});
  for (auto &List : T.Neighbors)
    List.reserve(2); // interior nodes have exactly two neighbors
  for (int K = 0; K + 1 < N; ++K) {
    T.Neighbors[static_cast<size_t>(K)].push_back(K + 1);
    T.Neighbors[static_cast<size_t>(K + 1)].push_back(K);
  }
  return T;
}

Topology Topology::grid(int W, int H) {
  assert(W > 0 && H > 0 && "grid topology needs positive dimensions");
  Topology T;
  T.NumNodes = W * H;
  T.Neighbors.assign(static_cast<size_t>(T.NumNodes), {});
  for (auto &List : T.Neighbors)
    List.reserve(4); // four-connected interior
  auto Id = [&](int X, int Y) { return Y * W + X; };
  for (int Y = 0; Y < H; ++Y) {
    for (int X = 0; X < W; ++X) {
      if (X + 1 < W) {
        T.Neighbors[static_cast<size_t>(Id(X, Y))].push_back(Id(X + 1, Y));
        T.Neighbors[static_cast<size_t>(Id(X + 1, Y))].push_back(Id(X, Y));
      }
      if (Y + 1 < H) {
        T.Neighbors[static_cast<size_t>(Id(X, Y))].push_back(Id(X, Y + 1));
        T.Neighbors[static_cast<size_t>(Id(X, Y + 1))].push_back(Id(X, Y));
      }
    }
  }
  return T;
}

Topology Topology::star(int N) {
  assert(N > 0 && "star topology needs at least one node");
  Topology T;
  T.NumNodes = N;
  T.Neighbors.assign(static_cast<size_t>(N), {});
  T.Neighbors[0].reserve(static_cast<size_t>(N) - 1); // hub sees everyone
  for (int K = 1; K < N; ++K) {
    T.Neighbors[0].push_back(K);
    T.Neighbors[static_cast<size_t>(K)].push_back(0); // leaves: one edge
  }
  return T;
}

std::vector<int> Topology::hopDistances() const {
  std::vector<int> Dist(static_cast<size_t>(NumNodes), -1);
  if (NumNodes == 0)
    return Dist;
  std::deque<int> Queue = {0};
  Dist[0] = 0;
  while (!Queue.empty()) {
    int At = Queue.front();
    Queue.pop_front();
    for (int N : Neighbors[static_cast<size_t>(At)]) {
      if (Dist[static_cast<size_t>(N)] >= 0)
        continue;
      Dist[static_cast<size_t>(N)] = Dist[static_cast<size_t>(At)] + 1;
      Queue.push_back(N);
    }
  }
  return Dist;
}

double CampaignResult::totalJoules() const {
  double J = 0.0;
  for (const UpdateCohort &C : Cohorts)
    J += C.Flood.totalJoules();
  return J;
}

size_t CampaignResult::totalBytesOnAir() const {
  size_t Bytes = 0;
  for (const UpdateCohort &C : Cohorts)
    Bytes += C.Flood.BytesOnAir;
  return Bytes;
}

std::vector<int> ucc::staleVersions(const std::vector<int> &NodeVersions,
                                    int TargetVersion) {
  std::vector<int> Stale;
  for (size_t Node = 1; Node < NodeVersions.size(); ++Node) {
    int V = NodeVersions[Node];
    if (V != TargetVersion &&
        std::find(Stale.begin(), Stale.end(), V) == Stale.end())
      Stale.push_back(V);
  }
  std::sort(Stale.begin(), Stale.end());
  return Stale;
}

CampaignResult
ucc::runUpdateCampaign(const Topology &T,
                       const std::vector<int> &NodeVersions,
                       int TargetVersion,
                       const std::function<size_t(int)> &ScriptBytesFor,
                       const FleetConfig &Cfg) {
  assert(static_cast<int>(NodeVersions.size()) == T.NumNodes &&
         "one deployed version per node");
  ScopedSpan Span("campaign");
  CampaignResult R;
  R.TargetVersion = TargetVersion;

  // Group stale nodes by deployed version. The handful of distinct
  // versions makes a flat vector (linear probe per node, one sort at the
  // end) cheaper than a node-count's worth of red-black tree churn;
  // cohorts still come out deterministically, oldest version first, with
  // nodes ascending within each cohort. Node 0 is the sink.
  std::vector<std::pair<int, std::vector<int>>> ByVersion;
  for (int Node = 1; Node < T.NumNodes; ++Node) {
    int V = NodeVersions[static_cast<size_t>(Node)];
    if (V == TargetVersion) {
      ++R.NodesCurrent;
      continue;
    }
    auto It = std::find_if(ByVersion.begin(), ByVersion.end(),
                           [&](const auto &E) { return E.first == V; });
    if (It == ByVersion.end()) {
      ByVersion.push_back({V, {}});
      It = ByVersion.end() - 1;
    }
    It->second.push_back(Node);
  }
  std::sort(ByVersion.begin(), ByVersion.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  Telemetry *Ev = eventTelemetry();
  // Each cohort's flood runs under its own trace context (one trace id
  // for the campaign if the caller did not already establish one), so
  // the per-node events of different cohorts are attributable in the
  // exported trace.
  TraceContext CampaignCtx;
  if (const TraceContext *Ctx = currentTraceContext())
    CampaignCtx = *Ctx;
  else if (Ev)
    CampaignCtx = {nextTraceId(), 0};
  int CohortIdx = 0;
  for (auto &[From, Nodes] : ByVersion) {
    UpdateCohort C;
    C.FromVersion = From;
    C.Nodes = std::move(Nodes);
    C.ScriptBytes = ScriptBytesFor(From);
    // Every cohort gets its own whole-network flood (all nodes relay; only
    // the cohort applies the script). Offsetting the seed decorrelates
    // packet loss between the floods.
    FleetConfig CohortCfg = Cfg;
    CohortCfg.Seed = Cfg.Seed + static_cast<uint64_t>(CohortIdx);
    {
      std::optional<TraceContextScope> CohortTrace;
      if (CampaignCtx.TraceId != 0)
        CohortTrace.emplace(TraceContext{
            CampaignCtx.TraceId, static_cast<uint64_t>(CohortIdx) + 1});
      C.Flood = simulateFlood(T, C.ScriptBytes, CohortCfg);
    }
    R.NodesUpdated += static_cast<int>(C.Nodes.size());
    if (Ev) {
      std::vector<std::pair<std::string, double>> Args = {
          {"from", static_cast<double>(From)},
          {"to", static_cast<double>(TargetVersion)},
          {"nodes", static_cast<double>(C.Nodes.size())},
          {"script_bytes", static_cast<double>(C.ScriptBytes)},
          {"joules", C.Flood.totalJoules()}};
      if (CampaignCtx.TraceId != 0)
        Args.push_back({"trace", static_cast<double>(CampaignCtx.TraceId)});
      Ev->recordEvent(TelemetryEvent::Phase::Instant, "campaign",
                      "campaign.cohort", 0, std::move(Args));
    }
    R.Cohorts.push_back(std::move(C));
    ++CohortIdx;
  }

  if (Telemetry *Tel = currentTelemetry()) {
    Tel->addCounter("net.campaigns");
    Tel->addCounter("net.cohorts", static_cast<int64_t>(R.Cohorts.size()));
    Tel->addGauge("net.campaign_joules", R.totalJoules());
  }
  return R;
}
