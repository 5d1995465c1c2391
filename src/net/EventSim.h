//===- net/EventSim.h - discrete-event fleet dissemination simulator ------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-scale dissemination engine: a discrete-event simulator over a
/// calendar queue of slot-timestamped events (pooled per-slot buckets with
/// an occupancy bitmap, plus an overflow heap for far-off timers) with
/// deterministic tie-breaking by (slot, node, kind, seq), packed into one
/// integer key per event. It is the library's one dissemination engine,
/// and it models the phenomena that make update size matter in the first
/// place (paper sections 1 and 2.2, and the GCP dissemination regimes):
///
///  - a link/radio layer with per-directed-link loss (base rate plus
///    hash-derived per-link jitter and up/down asymmetry),
///  - CSMA-style carrier sense with randomized exponential backoff, and
///    hidden-terminal collisions detected at the receiver when two
///    in-range transmissions overlap,
///  - per-node duty-cycle schedules (periodic listen/sleep windows with
///    per-node phase offsets) — sleeping nodes miss traffic and senders
///    defer to their own wake windows,
///  - an energest-style per-state energy ledger (transmit / receive /
///    idle-listen / sleep seconds and joules) over the Mica2 current
///    table.
///
/// Protocol: the sink starts with the whole script and broadcasts it as a
/// burst; a node that assembles every packet becomes a forwarder,
/// re-broadcasting up to MacConfig::MaxBursts times (decorrelated by
/// randomized forwarding delays) until all its neighbors have announced
/// completion via (idealized, control-plane) done beacons. Receivers draw
/// link loss for each packet they still miss — and, under duty cycling,
/// decode only the packets whose air slots fall inside their wake window —
/// so stragglers assemble the script cumulatively across bursts. The long
/// tail is closed Deluge-style by receiver pull: an incomplete node that
/// has heard a done beacon polls (with exponentially growing gaps, up to
/// MacConfig::MaxRequests times) and requests one extra burst from a
/// completed neighbor, so every connected node eventually completes.
///
/// Determinism contract (docs/NETWORK.md): every random draw comes from
/// the private stream of the node the event is addressed to, events are
/// totally ordered by (slot, node, kind, seq), and cross-node effects
/// travel as events with at least one slot of latency. One thread drains
/// the queue a batch (all events of one slot) at a time, so results and
/// `net.*` counters are a function of (topology, config, seed) alone.
///
/// Fleet update campaigns (runUpdateCampaign, defined in net/Network.cpp)
/// flood one script per deployed-version cohort through the same engine.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_NET_EVENTSIM_H
#define UCC_NET_EVENTSIM_H

#include "energy/EnergyModel.h"
#include "net/Network.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace ucc {

/// Directed link quality. The effective loss of link u->v is
///   LossRate + LossJitter * j(u,v) + Asymmetry * a(u,v) / 2
/// clamped to [0, 0.999], where j is a per-undirected-link value in
/// [-1, 1] and a a per-directed-link value in [-1, 1], both derived by
/// hashing the endpoints with the seed — so link qualities are stable
/// across the run and asymmetric between the two directions.
struct LinkModel {
  double LossRate = 0.0;
  double LossJitter = 0.0;
  double Asymmetry = 0.0;
};

/// MAC-layer behavior of every node.
struct MacConfig {
  bool Csma = true;      ///< carrier-sense (and collide) instead of ideal air
  int MaxBursts = 3;     ///< unsolicited script broadcasts per forwarder
  int MaxRequests = 16;  ///< straggler pull requests per node (0 disables)
};

/// Periodic listen/sleep schedule; every node gets a hash-derived phase
/// offset so the fleet does not wake in lockstep.
struct DutyCycleConfig {
  double PeriodSeconds = 0.0; ///< 0 = radio always on (no sleep states)
  double OnFraction = 1.0;    ///< fraction of each period spent listening
};

/// Full configuration of one fleet flood.
struct FleetConfig {
  PacketFormat Fmt;
  Mica2Power Power;
  LinkModel Link;
  MacConfig Mac;
  DutyCycleConfig Duty;
  uint64_t Seed = 1;
  double SlotSeconds = 1e-3; ///< event-time quantum
  /// Ignored: the simulator runs on the calling thread. Kept only until
  /// the end-to-end benchmark stops assigning it.
  int Jobs = 0;
};

/// Per-state time/energy totals over the whole fleet (the Contiki
/// energest idiom: account every radio/CPU state, not just the packets).
/// Listen/sleep states are tracked only under a duty-cycle schedule; with
/// the radio always on they stay zero, and the ledger holds packet energy
/// only.
struct EnergyLedger {
  double TxSeconds = 0.0;
  double RxSeconds = 0.0;
  double ListenSeconds = 0.0;
  double SleepSeconds = 0.0;
  double TxJoules = 0.0;
  double RxJoules = 0.0;
  double ListenJoules = 0.0;
  double SleepJoules = 0.0;

  double totalJoules() const {
    return TxJoules + RxJoules + ListenJoules + SleepJoules;
  }
};

/// Outcome of one fleet flood.
struct FleetResult {
  int Packets = 0;
  size_t BytesOnAir = 0; ///< script + headers, per full burst
  int MaxHops = 0;       ///< deepest completion, in protocol hops
  int Transmitters = 0;  ///< nodes that broadcast at least one burst
  int NodesComplete = 0; ///< nodes holding the whole script at the end
  int NodesIncomplete = 0;
  int64_t Retransmissions = 0; ///< packets re-sent in bursts beyond a
                               ///< node's first
  int64_t FailedPackets = 0;   ///< (node, packet) pairs never delivered
  int64_t Collisions = 0;      ///< arrivals lost to overlapping traffic
  int64_t Backoffs = 0;        ///< carrier-sense defers
  int64_t SleepDeferrals = 0;  ///< sends deferred to the sender's wake
  int64_t SleepMisses = 0;     ///< arrivals missed by sleeping receivers
  int64_t Overheard = 0;       ///< bursts decoded by already-complete nodes
  int64_t Beacons = 0;         ///< completion announcements broadcast
  int64_t Requests = 0;        ///< straggler pull requests issued
  int64_t EventsProcessed = 0;
  int64_t Batches = 0;         ///< slot batches executed
  double SimSeconds = 0.0;     ///< virtual time of the last event
  EnergyLedger Energy;
  std::vector<double> PerNodeJoules;

  double totalJoules() const { return Energy.totalJoules(); }
};

/// Floods a script of \p ScriptBytes from the sink (node 0) across \p T
/// under the full radio/MAC/duty-cycle model. Deterministic per
/// (topology, config, seed). The event key holds a node id in 29 bits, so
/// a topology of more than 2^29 nodes throws std::length_error.
FleetResult simulateFlood(const Topology &T, size_t ScriptBytes,
                          const FleetConfig &Cfg = FleetConfig());

//===----------------------------------------------------------------------===//
// Fleet update campaigns
//===----------------------------------------------------------------------===//
//
// After a few incremental updates a deployed network is rarely uniform:
// nodes that slept through a round still run an older version. A campaign
// brings every node to one target version by flooding, per deployed-version
// cohort, the script that takes exactly that version to the target. The
// script for each cohort is supplied by a callback so this layer stays
// ignorant of how patches are planned (the serving layer binds its planner
// into it).

/// The nodes sharing one deployed version, and the flood that updates them.
struct UpdateCohort {
  int FromVersion = -1;         ///< version this cohort currently runs
  std::vector<int> Nodes;       ///< node ids in the cohort
  size_t ScriptBytes = 0;       ///< script taking FromVersion -> target
  FleetResult Flood;            ///< outcome of this cohort's flood; its
                                ///< NodesIncomplete counts the nodes (of
                                ///< the whole fleet) it never reached
};

/// Outcome of one whole fleet campaign.
struct CampaignResult {
  int TargetVersion = -1;
  std::vector<UpdateCohort> Cohorts; ///< one per distinct stale version
  int NodesUpdated = 0;              ///< nodes in the stale cohorts
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
/// version triggers one network-wide simulateFlood of that script under
/// \p Cfg (all nodes relay, but only the cohort applies it). Cohort K
/// floods with seed Cfg.Seed + K, which decorrelates loss between floods.
CampaignResult
runUpdateCampaign(const Topology &T, const std::vector<int> &NodeVersions,
                  int TargetVersion,
                  const std::function<size_t(int)> &ScriptBytesFor,
                  const FleetConfig &Cfg = FleetConfig());

} // namespace ucc

#endif // UCC_NET_EVENTSIM_H
