//===- net/Network.cpp - multi-hop dissemination simulator ----------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Topology builders (line/grid/star), BFS hop distances, and the flood
/// model: every reached node receives the whole script once, forwarding
/// nodes pay per-packet Tx energy (with loss-driven retransmissions) from
/// the Mica2 current table. Each flood runs under the `net` telemetry span
/// and reports packet/byte/energy totals (`net.*` counters and gauges).
/// The flood advances one BFS level per round; with trace events enabled
/// it emits per-node `packet.tx`/`packet.rx`/`packet.retx` instants,
/// per-node cumulative `energy/node<N>` samples, and a per-round
/// `net.progress` counter (nodes reached so far).
///
/// The full radio model (per-link loss, contention, duty cycling) is the
/// separate discrete-event engine in net/EventSim.h.
///
//===----------------------------------------------------------------------===//

#include "net/Network.h"

#include "support/Format.h"
#include "support/RNG.h"
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

DisseminationResult ucc::disseminate(const Topology &T, size_t ScriptBytes,
                                     const PacketFormat &Fmt,
                                     const Mica2Power &Power,
                                     const RadioChannel &Channel) {
  ScopedSpan Span("net");
  DisseminationResult R;
  R.Packets = Fmt.packetsFor(ScriptBytes);
  R.BytesOnAir = Fmt.bytesOnAir(ScriptBytes);
  R.PerNodeJoules.assign(static_cast<size_t>(T.NumNodes), 0.0);

  std::vector<int> Dist = T.hopDistances();
  for (int D : Dist)
    R.MaxHops = std::max(R.MaxHops, D);

  double PacketBits =
      R.Packets > 0
          ? static_cast<double>(R.BytesOnAir) * 8.0 / R.Packets
          : 0.0;
  double TxPerPacketJ = PacketBits * Power.radioTxEnergyPerBit();
  double RxPerPacketJ = PacketBits * Power.radioRxEnergyPerBit();

  RNG Rng(Channel.Seed);
  // Attempts needed to get one packet across the lossy link.
  auto attemptsForPacket = [&]() {
    int Attempts = 1;
    while (Attempts < Channel.MaxAttempts &&
           Rng.unitReal() < Channel.LossRate)
      ++Attempts;
    if (Attempts >= Channel.MaxAttempts &&
        Rng.unitReal() < Channel.LossRate)
      ++R.FailedPackets; // gave up; the group must be refetched later
    return Attempts;
  };

  // The flood proceeds in rounds, one BFS level per round: in round d the
  // nodes at hop d-1 that cover a farther neighbor transmit, and the
  // nodes at hop d receive the whole script (duplicate suppression: every
  // node receives exactly once). Lost packets cost the sender a
  // retransmission each. With trace events enabled, every per-node
  // send/receive/retransmit lands on that node's track and each round
  // closes with a `net.progress` sample.
  std::vector<std::vector<int>> ByHop(static_cast<size_t>(R.MaxHops) + 1);
  for (int Node = 0; Node < T.NumNodes; ++Node)
    if (Dist[static_cast<size_t>(Node)] >= 0)
      ByHop[static_cast<size_t>(Dist[static_cast<size_t>(Node)])]
          .push_back(Node);

  Telemetry *Ev = eventTelemetry();
  auto emitEnergySample = [&](int Node) {
    Ev->recordEvent(
        TelemetryEvent::Phase::Counter, "net",
        format("energy/node%d", Node), Node,
        {{"joules", R.PerNodeJoules[static_cast<size_t>(Node)]}});
  };

  int Reached = ByHop.empty() ? 0 : static_cast<int>(ByHop[0].size());
  for (int Round = 1; Round <= R.MaxHops; ++Round) {
    // Transmissions: nodes one hop closer that cover someone this round.
    for (int Node : ByHop[static_cast<size_t>(Round - 1)]) {
      bool Forwards = false;
      for (int N : T.Neighbors[static_cast<size_t>(Node)])
        Forwards |= Dist[static_cast<size_t>(N)] >
                    Dist[static_cast<size_t>(Node)];
      if (!Forwards)
        continue;
      int Attempts = 0;
      for (int P = 0; P < R.Packets; ++P) {
        int A = attemptsForPacket();
        Attempts += A;
        if (Ev) {
          Ev->recordEvent(TelemetryEvent::Phase::Instant, "net",
                          "packet.tx", Node,
                          {{"round", static_cast<double>(Round)},
                           {"packet", static_cast<double>(P)},
                           {"attempts", static_cast<double>(A)}});
          if (A > 1)
            Ev->recordEvent(TelemetryEvent::Phase::Instant, "net",
                            "packet.retx", Node,
                            {{"round", static_cast<double>(Round)},
                             {"packet", static_cast<double>(P)},
                             {"extra", static_cast<double>(A - 1)}});
        }
      }
      R.Retransmissions += Attempts - R.Packets;
      double Tx = TxPerPacketJ * Attempts;
      ++R.Transmitters;
      R.TotalTxJoules += Tx;
      R.PerNodeJoules[static_cast<size_t>(Node)] += Tx;
      if (Ev)
        emitEnergySample(Node);
    }
    // Receptions: every node at this hop hears the whole script once.
    for (int Node : ByHop[static_cast<size_t>(Round)]) {
      double Rx = RxPerPacketJ * R.Packets;
      R.TotalRxJoules += Rx;
      R.PerNodeJoules[static_cast<size_t>(Node)] += Rx;
      if (Ev) {
        Ev->recordEvent(TelemetryEvent::Phase::Instant, "net", "packet.rx",
                        Node,
                        {{"round", static_cast<double>(Round)},
                         {"packets", static_cast<double>(R.Packets)}});
        emitEnergySample(Node);
      }
    }
    Reached += static_cast<int>(ByHop[static_cast<size_t>(Round)].size());
    if (Ev)
      Ev->recordEvent(TelemetryEvent::Phase::Counter, "net", "net.progress",
                      0,
                      {{"round", static_cast<double>(Round)},
                       {"reached", static_cast<double>(Reached)}});
  }
  if (Telemetry *Tel = currentTelemetry()) {
    Tel->addCounter("net.floods");
    Tel->addCounter("net.packets", R.Packets);
    Tel->addCounter("net.bytes_on_air",
                    static_cast<int64_t>(R.BytesOnAir));
    Tel->addCounter("net.transmitters", R.Transmitters);
    Tel->addCounter("net.retransmissions", R.Retransmissions);
    Tel->addCounter("net.failed_packets", R.FailedPackets);
    Tel->addGauge("net.tx_joules", R.TotalTxJoules);
    Tel->addGauge("net.rx_joules", R.TotalRxJoules);
  }
  return R;
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
                       const PacketFormat &Fmt, const Mica2Power &Power,
                       const RadioChannel &Channel) {
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
    RadioChannel CohortChannel = Channel;
    CohortChannel.Seed = Channel.Seed + static_cast<uint64_t>(CohortIdx);
    {
      std::optional<TraceContextScope> CohortTrace;
      if (CampaignCtx.TraceId != 0)
        CohortTrace.emplace(TraceContext{
            CampaignCtx.TraceId, static_cast<uint64_t>(CohortIdx) + 1});
      C.Flood = disseminate(T, C.ScriptBytes, Fmt, Power, CohortChannel);
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
