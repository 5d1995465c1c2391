//===- net/Network.h - multi-hop dissemination simulator ------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-hop WSN dissemination model (paper sections 1 and 2.2): the sink
/// floods an update over the network hop by hop. The edit script is split
/// into packets (header + bounded payload); every node receives the whole
/// script once and every node with downstream neighbors retransmits it.
/// Per-node Tx/Rx energies come from the Mica2 current table at 38.4 kbps.
/// This realizes the paper's "a data report may jump 70 or more hops"
/// setting and lets examples compare network-wide dissemination energy of
/// baseline vs update-conscious scripts.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_NET_NETWORK_H
#define UCC_NET_NETWORK_H

#include "energy/EnergyModel.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace ucc {

/// An undirected sensor-network topology. Node 0 is the sink.
struct Topology {
  int NumNodes = 0;
  std::vector<std::vector<int>> Neighbors;

  /// A chain of \p N nodes: 0 - 1 - ... - N-1 (the deep multi-hop case).
  static Topology line(int N);
  /// A W x H grid with 4-neighborhood; the sink sits at a corner.
  static Topology grid(int W, int H);
  /// A star: the sink reaches every node directly (single-hop broadcast).
  static Topology star(int N);

  /// BFS hop distance of every node from the sink (-1 = unreachable).
  std::vector<int> hopDistances() const;
};

/// Packetization parameters (section 2.2: scripts are divided into packets
/// that may be grouped/encrypted; we model size and count).
///
/// Invalid formats never reach the division below: a non-positive
/// PayloadBytes is clamped to 1 and a negative HeaderBytes to 0, and each
/// clamped call bumps the `net.bad_packet_format` counter so a
/// misconfigured caller is visible in telemetry instead of crashing (or
/// silently returning a negative packet count).
struct PacketFormat {
  int HeaderBytes = 8;
  int PayloadBytes = 24;

  int packetsFor(size_t ScriptBytes) const;
  size_t bytesOnAir(size_t ScriptBytes) const;
};

/// Link quality (section 2.2 notes transmitting more data "increases the
/// possibility of signal collision"): every packet transmission fails
/// independently with LossRate and is retried until it gets through (or
/// MaxAttempts is exhausted — counted as a failure). Deterministic per
/// Seed.
struct RadioChannel {
  double LossRate = 0.0;
  int MaxAttempts = 16;
  uint64_t Seed = 1;
};

/// Outcome of disseminating one script across a topology.
struct DisseminationResult {
  int Packets = 0;
  size_t BytesOnAir = 0;  ///< per transmission (payload + headers)
  int MaxHops = 0;
  int Transmitters = 0;   ///< nodes that had to forward the script
  int Retransmissions = 0; ///< extra attempts forced by packet loss
  int FailedPackets = 0;   ///< packets dropped even after MaxAttempts
  double TotalTxJoules = 0.0;
  double TotalRxJoules = 0.0;
  std::vector<double> PerNodeJoules;

  double totalJoules() const { return TotalTxJoules + TotalRxJoules; }
};

/// Floods a script of \p ScriptBytes from the sink across \p T, one BFS
/// level per round over an ideal air with per-packet loss retries (the
/// model the paper figures are baselined on). Callers that want the full
/// radio model (per-link loss, contention, duty cycling) use
/// simulateFlood() in net/EventSim.h.
DisseminationResult disseminate(const Topology &T, size_t ScriptBytes,
                                const PacketFormat &Fmt = PacketFormat(),
                                const Mica2Power &Power = Mica2Power(),
                                const RadioChannel &Channel = RadioChannel());

//===----------------------------------------------------------------------===//
// Fleet update campaigns
//===----------------------------------------------------------------------===//
//
// After a few incremental updates a deployed network is rarely uniform:
// nodes that slept through a round still run an older version. A campaign
// brings every node to one target version by flooding, per deployed-version
// cohort, the script that takes exactly that version to the target. The
// script for each cohort is supplied by a callback so this layer stays
// ignorant of how patches are planned (the compilation core binds its
// version-store planner into it).

/// The nodes sharing one deployed version, and the flood that updates them.
struct UpdateCohort {
  int FromVersion = -1;         ///< version this cohort currently runs
  std::vector<int> Nodes;       ///< node ids in the cohort
  size_t ScriptBytes = 0;       ///< script taking FromVersion -> target
  DisseminationResult Flood;    ///< outcome of this cohort's flood
};

/// Outcome of one whole fleet campaign.
struct CampaignResult {
  int TargetVersion = -1;
  std::vector<UpdateCohort> Cohorts; ///< one per distinct stale version
  int NodesUpdated = 0;              ///< nodes brought to the target
  int NodesCurrent = 0;              ///< nodes already at the target

  double totalJoules() const;
  size_t totalBytesOnAir() const;
};

/// The distinct deployed versions in \p NodeVersions that still need an
/// update to \p TargetVersion, sorted ascending. Node 0 (the sink) is
/// skipped, matching runUpdateCampaign's cohort grouping — this is the set
/// of scripts a campaign must plan before any flood, exposed so planners
/// (store- or service-backed) and precompute passes agree on it.
std::vector<int> staleVersions(const std::vector<int> &NodeVersions,
                               int TargetVersion);

/// Brings every node of \p T to \p TargetVersion. \p NodeVersions[i] is the
/// version node i currently runs (the sink, node 0, is assumed current and
/// its entry is ignored). \p ScriptBytesFor maps a deployed version to the
/// byte size of the script taking it to the target; every distinct stale
/// version triggers one network-wide flood of that script (all nodes relay,
/// but only the cohort applies it). Cohort floods get decorrelated loss by
/// offsetting Channel.Seed per cohort.
CampaignResult
runUpdateCampaign(const Topology &T, const std::vector<int> &NodeVersions,
                  int TargetVersion,
                  const std::function<size_t(int)> &ScriptBytesFor,
                  const PacketFormat &Fmt = PacketFormat(),
                  const Mica2Power &Power = Mica2Power(),
                  const RadioChannel &Channel = RadioChannel());

} // namespace ucc

#endif // UCC_NET_NETWORK_H
