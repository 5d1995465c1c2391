//===- net/EventSim.cpp - discrete-event fleet dissemination simulator ----===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event core of the fleet simulator: a calendar queue of
/// slot-timestamped events (pooled per-slot buckets over a window of a few
/// burst airtimes, plus an overflow heap for far-off timers) with
/// deterministic (slot, node, kind, seq) ordering, drained one slot-batch
/// at a time. Because every event schedules its consequences at least one
/// slot in the future, a whole batch is a conservative synchronization
/// window: its events touch only the state of the node they are addressed
/// to, so the batch can be partitioned by node region and processed on
/// ThreadPool workers, with new events merged back in region order at the
/// barrier. See EventSim.h for the model and docs/NETWORK.md for the
/// determinism contract.
///
//===----------------------------------------------------------------------===//

#include "net/EventSim.h"

#include "support/Format.h"
#include "support/Hash.h"
#include "support/RNG.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

using namespace ucc;

namespace {

//===----------------------------------------------------------------------===//
// Deterministic hashing (per-link qualities, per-node phases)
//===----------------------------------------------------------------------===//

uint64_t hashCombine(uint64_t A, uint64_t B) {
  return splitmix64(A ^ (B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2)));
}

/// Uniform double in [0, 1) from a hash value.
double hashUnit(uint64_t H) {
  return static_cast<double>(H >> 11) * (1.0 / 9007199254740992.0);
}

//===----------------------------------------------------------------------===//
// Events and the calendar queue
//===----------------------------------------------------------------------===//

/// Kind doubles as the within-(slot, node) processing rank: transmissions
/// end (freeing the channel) before new arrivals begin, and a node hears
/// the air (and the control plane) before it decides to transmit into it.
enum EventKind : uint8_t {
  EvArriveEnd = 0,   ///< a burst's airtime at a receiver is over
  EvBeacon = 1,      ///< a neighbor announced completion
  EvRequest = 2,     ///< a straggler asked this node for an extra burst
  EvPoll = 3,        ///< an incomplete node re-checks its own progress
  EvArriveStart = 4, ///< a burst starts occupying a receiver's air
  EvKick = 5,        ///< the node considers transmitting
};

struct Event {
  int64_t Slot = 0;
  int64_t Aux = 0; ///< arrivals: start slot
  int32_t Node = 0; ///< the node whose state this event may touch
  int32_t From = -1;
  int32_t Hop = 0; ///< arrivals: sender's hop
  uint32_t Seq = 0;
  int32_t Next = -1; ///< queue-internal: bucket or free-list link
  uint8_t Kind = EvKick;
};

/// The global event queue, a calendar over slots. Events live in one
/// pooled array; a ring of per-slot buckets, each a singly linked list
/// through Event::Next, covers the slots (Now, Now + ring size), and an
/// event scheduled past that window waits in a slot-ordered overflow heap.
/// The ring spans four burst airtimes plus slack, which holds every
/// arrival, beacon, request and transmit retry; what overflows is a
/// backed-off poll timer or a kick deferred to a distant wake window.
///
/// Sequence numbers are handed out per target node at push time, so
/// pushes must happen on one thread (they do: at init and at the
/// per-batch merge barrier) and the (slot, node, kind, seq) order is a
/// total order independent of worker scheduling and of bucket order.
class EventQueue {
public:
  EventQueue(int NumNodes, int64_t AirSlots)
      : Buckets(std::bit_ceil(static_cast<uint64_t>(4 * AirSlots + 64)), -1),
        RingSlots(static_cast<int64_t>(Buckets.size())),
        NodeSeq(static_cast<size_t>(std::max(NumNodes, 1)), 0) {}

  void push(Event E) {
    assert(E.Slot > Now && "events are scheduled at least one slot ahead");
    E.Seq = NodeSeq[static_cast<size_t>(E.Node)]++;
    int32_t I = FreeHead;
    if (I >= 0) {
      FreeHead = Pool[static_cast<size_t>(I)].Next;
      Pool[static_cast<size_t>(I)] = E;
    } else {
      I = static_cast<int32_t>(Pool.size());
      Pool.push_back(E);
    }
    if (E.Slot - Now < RingSlots) {
      int32_t &Head = Buckets[bucketOf(E.Slot)];
      Pool[static_cast<size_t>(I)].Next = Head;
      Head = I;
      ++InRing;
    } else {
      Overflow.emplace_back(E.Slot, I);
      std::push_heap(Overflow.begin(), Overflow.end(), std::greater<>());
    }
  }

  bool empty() const { return InRing == 0 && Overflow.empty(); }

  /// Drains every event of the earliest slot into \p Batch, sorted by
  /// (node, kind, seq), and returns that slot.
  int64_t popBatch(std::vector<Event> &Batch) {
    Batch.clear();
    // Every ring event lies in (Now, Now + RingSlots), so the scan stops
    // within the window, and a bucket it stops at holds only that slot.
    int64_t Slot = Overflow.empty() ? std::numeric_limits<int64_t>::max()
                                    : Overflow.front().first;
    if (InRing > 0) {
      int64_t Limit = Slot;
      for (Slot = Now + 1; Slot < Limit && Buckets[bucketOf(Slot)] < 0;)
        ++Slot;
    }
    int32_t &Head = Buckets[bucketOf(Slot)];
    for (int32_t I = Head; I >= 0;) {
      int32_t Next = Pool[static_cast<size_t>(I)].Next;
      take(I, Batch);
      --InRing;
      I = Next;
    }
    Head = -1;
    while (!Overflow.empty() && Overflow.front().first == Slot) {
      std::pop_heap(Overflow.begin(), Overflow.end(), std::greater<>());
      take(Overflow.back().second, Batch);
      Overflow.pop_back();
    }
    Now = Slot;
    std::sort(Batch.begin(), Batch.end(), [](const Event &A, const Event &B) {
      if (A.Node != B.Node)
        return A.Node < B.Node;
      if (A.Kind != B.Kind)
        return A.Kind < B.Kind;
      return A.Seq < B.Seq;
    });
    return Slot;
  }

private:
  size_t bucketOf(int64_t Slot) const {
    return static_cast<size_t>(Slot & (RingSlots - 1));
  }

  /// Copies pooled event \p I into \p Batch and frees its pool entry.
  void take(int32_t I, std::vector<Event> &Batch) {
    Event &E = Pool[static_cast<size_t>(I)];
    Batch.push_back(E);
    E.Next = FreeHead;
    FreeHead = I;
  }

  std::vector<Event> Pool;
  int32_t FreeHead = -1;
  std::vector<int32_t> Buckets; ///< ring: head pool index, -1 = empty
  int64_t RingSlots;            ///< a power of two
  int64_t Now = 0;              ///< slot of the last batch popped
  size_t InRing = 0;
  std::vector<std::pair<int64_t, int32_t>> Overflow; ///< (slot, index)
  std::vector<uint32_t> NodeSeq;
};

//===----------------------------------------------------------------------===//
// Fleet simulator
//===----------------------------------------------------------------------===//

/// Deferred trace-event record; workers append these to their region
/// scratch and the merge barrier replays them into the ambient registry
/// (worker threads must not touch the caller's thread-local telemetry).
struct TraceRec {
  uint8_t Kind; ///< 0 = tx, 1 = rx, 2 = collision
  int32_t Node;
  int32_t From;
  int32_t Aux; ///< tx: burst index; rx: sender hop
  int64_t Slot;
};

/// Everything a region worker produces during one batch. Merged into the
/// global result and the queue in ascending region order, so totals and
/// event sequence numbers do not depend on worker scheduling.
struct RegionScratch {
  std::vector<Event> Out;
  std::vector<TraceRec> Traces;
  int64_t Retransmissions = 0;
  int64_t Collisions = 0;
  int64_t Backoffs = 0;
  int64_t SleepDeferrals = 0;
  int64_t SleepMisses = 0;
  int64_t Overheard = 0;
  int64_t Beacons = 0;
  int64_t Requests = 0;
  int Transmitters = 0;
  int Completions = 0;
  int MaxHop = 0;
  double TxJoules = 0.0;
  double RxJoules = 0.0;
  double TxSeconds = 0.0;
  double RxSeconds = 0.0;

  void reset() {
    Out.clear();
    Traces.clear();
    Retransmissions = Collisions = Backoffs = 0;
    SleepDeferrals = SleepMisses = Overheard = Beacons = Requests = 0;
    Transmitters = Completions = MaxHop = 0;
    TxJoules = RxJoules = TxSeconds = RxSeconds = 0.0;
  }
};

/// Nodes are assigned to regions in blocks of 64 ids, round-robin, so a
/// geographically local wavefront (contiguous ids in line/grid builders)
/// still spreads across regions and can use the workers.
constexpr int RegionBlockBits = 6;

class FleetSim {
public:
  FleetSim(const Topology &T, size_t ScriptBytes, const FleetConfig &Cfg)
      : T(T), Cfg(Cfg), N(T.NumNodes) {
    Packets = Cfg.Fmt.packetsFor(ScriptBytes);
    Bytes = Cfg.Fmt.bytesOnAir(ScriptBytes);
    double PacketBits =
        Packets > 0 ? static_cast<double>(Bytes) * 8.0 / Packets : 0.0;
    TxPerPacketJ = PacketBits * Cfg.Power.radioTxEnergyPerBit();
    RxPerPacketJ = PacketBits * Cfg.Power.radioRxEnergyPerBit();
    AirSeconds = static_cast<double>(Bytes) * 8.0 / Cfg.Power.RadioBitsPerSec;
    AirSlots = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(AirSeconds / Cfg.SlotSeconds)));
    ForwardJitterW = std::max<int64_t>(8, 2 * AirSlots);
    RetryJitterW = std::max<int64_t>(8, 2 * AirSlots);
    PollBase = 4 * AirSlots + 8;

    if (Cfg.Duty.PeriodSeconds > 0.0) {
      PeriodSlots = std::max<int64_t>(
          2, static_cast<int64_t>(
                 std::llround(Cfg.Duty.PeriodSeconds / Cfg.SlotSeconds)));
      OnSlots = static_cast<int64_t>(
          std::llround(Cfg.Duty.OnFraction * static_cast<double>(PeriodSlots)));
      OnSlots = std::max<int64_t>(1, std::min(OnSlots, PeriodSlots));
    }

    NumRegions = Cfg.Regions > 0
                     ? Cfg.Regions
                     : std::clamp(N / 4096, 1, 256);
    Threshold = std::max(1, Cfg.ParallelThreshold);
  }

  FleetResult run();

private:
  bool duty() const { return PeriodSlots > 0; }

  bool awake(int32_t V, int64_t Slot) const {
    if (!duty())
      return true;
    return (Slot + Phase[static_cast<size_t>(V)]) % PeriodSlots < OnSlots;
  }

  int64_t nextAwake(int32_t V, int64_t Slot) const {
    int64_t R = (Slot + Phase[static_cast<size_t>(V)]) % PeriodSlots;
    return R < OnSlots ? Slot : Slot + (PeriodSlots - R);
  }

  /// Slots in [0, End) during which a node with phase \p Ph listens.
  int64_t awakeSlotsBefore(int64_t End, int64_t Ph) const {
    if (!duty())
      return End;
    int64_t Count = (End / PeriodSlots) * OnSlots;
    int64_t Rem = End % PeriodSlots;
    int64_t E1 = std::min(Ph + Rem, PeriodSlots);
    Count += std::max<int64_t>(0, std::min(E1, OnSlots) - Ph);
    if (Ph + Rem > PeriodSlots)
      Count += std::min<int64_t>(Ph + Rem - PeriodSlots, OnSlots);
    return Count;
  }

  /// Loss probability of the directed link \p U -> \p V (see LinkModel).
  double linkLoss(int32_t U, int32_t V) const {
    double L = Cfg.Link.LossRate;
    if (Cfg.Link.LossJitter != 0.0) {
      uint64_t Lo = static_cast<uint64_t>(std::min(U, V));
      uint64_t Hi = static_cast<uint64_t>(std::max(U, V));
      uint64_t H = hashCombine(hashCombine(Cfg.Seed ^ 0x11f7u, Lo), Hi);
      L += Cfg.Link.LossJitter * (2.0 * hashUnit(H) - 1.0);
    }
    if (Cfg.Link.Asymmetry != 0.0) {
      uint64_t H = hashCombine(hashCombine(Cfg.Seed ^ 0xa57au,
                                           static_cast<uint64_t>(U)),
                               static_cast<uint64_t>(V));
      L += Cfg.Link.Asymmetry * 0.5 * (2.0 * hashUnit(H) - 1.0);
    }
    return std::clamp(L, 0.0, 0.999);
  }

  bool complete(int32_t V) const {
    size_t Vz = static_cast<size_t>(V);
    return SeenBurst[Vz] && HaveCount[Vz] == Packets;
  }

  int regionOf(int32_t Node) const {
    return static_cast<int>((Node >> RegionBlockBits) % NumRegions);
  }

  Event make(uint8_t Kind, int32_t Node, int64_t Slot, int32_t From = -1,
             int32_t Hop = 0, int64_t Aux = 0) const {
    Event E;
    E.Slot = Slot;
    E.Aux = Aux;
    E.Node = Node;
    E.From = From;
    E.Hop = Hop;
    E.Kind = Kind;
    return E;
  }

  /// The first packet of a burst whose air offset (in slots from the
  /// burst's start) is at least \p Off. Packet P airs at offset
  /// floor(P * AirSlots / Packets).
  int firstPacketFrom(int64_t Off) const {
    if (Off >= AirSlots)
      return Packets;
    return static_cast<int>((Off * Packets + AirSlots - 1) / AirSlots);
  }

  /// A straggler with an outstanding pull request holds its radio on
  /// until it is served (the Deluge RX state) — otherwise a solicited
  /// burst aligned with the server's wake phase could deterministically
  /// land in the straggler's sleep window on every retry.
  bool pulling(int32_t V) const {
    return Polls[static_cast<size_t>(V)] > 0 && !complete(V);
  }

  /// Calls \p F(Lo, Hi), in ascending order, for each run [Lo, Hi) of the
  /// packets of a burst that started at \p Start and aired while \p V's
  /// radio was on. Packet offsets are monotone in P, so the packets inside
  /// one wake window are contiguous: the walk takes one modulo per run or
  /// gap instead of one per packet.
  template <typename Fn>
  void forAwakeRuns(int32_t V, int64_t Start, Fn F) const {
    if (!duty() || pulling(V)) {
      F(0, Packets);
      return;
    }
    int64_t R = (Start + Phase[static_cast<size_t>(V)]) % PeriodSlots;
    for (int P = 0; P < Packets;) {
      int64_t Off = (static_cast<int64_t>(P) * AirSlots) / Packets;
      int64_t Pos = (R + Off) % PeriodSlots;
      if (Pos < OnSlots) {
        int End = firstPacketFrom(Off + OnSlots - Pos);
        F(P, End);
        P = End;
      } else {
        P = firstPacketFrom(Off + PeriodSlots - Pos);
      }
    }
  }

  /// How many of a burst's packets this receiver's radio was on for
  /// (Packets when not duty cycling; -1 = the whole burst was slept
  /// through). A zero-packet script is a bare marker at the start slot.
  int awakePackets(int32_t V, int64_t Start) const {
    if (!duty() || pulling(V))
      return Packets;
    if (Packets == 0)
      return awake(V, Start) ? 0 : -1;
    int Count = 0;
    forAwakeRuns(V, Start, [&](int Lo, int Hi) { Count += Hi - Lo; });
    return Count > 0 ? Count : -1;
  }

  /// Rx energy for the \p AwakeP packet airtimes the radio listened to.
  void chargeRx(int32_t V, RegionScratch &S, int AwakeP) {
    double RxJ = AwakeP * RxPerPacketJ;
    double RxS =
        Packets > 0 ? AirSeconds * AwakeP / static_cast<double>(Packets) : 0.0;
    PerNodeJ[static_cast<size_t>(V)] += RxJ;
    RxSecNode[static_cast<size_t>(V)] += RxS;
    S.RxJoules += RxJ;
    S.RxSeconds += RxS;
  }

  void handle(const Event &E, RegionScratch &S);
  void kick(const Event &E, RegionScratch &S);
  void arriveStart(const Event &E, RegionScratch &S);
  void arriveEnd(const Event &E, RegionScratch &S);
  void beacon(const Event &E, RegionScratch &S);
  void poll(const Event &E, RegionScratch &S);
  void request(const Event &E, RegionScratch &S);
  void finalize(int64_t LastSlot);
  void emitTrace(const TraceRec &Tr);
  void emitCounters();

  const Topology &T;
  const FleetConfig &Cfg;
  int N;
  int Packets = 0;
  size_t Bytes = 0;
  double TxPerPacketJ = 0.0, RxPerPacketJ = 0.0, AirSeconds = 0.0;
  int64_t AirSlots = 1, ForwardJitterW = 8, RetryJitterW = 8, PollBase = 16;
  int64_t PeriodSlots = 0, OnSlots = 0;
  int NumRegions = 1, Threshold = 1;
  Telemetry *Ev = nullptr;

  // Per-node state; every entry is only ever touched by events addressed
  // to that node, so region workers never race.
  std::vector<RNG> Rngs;
  std::vector<int64_t> BusyUntil, OwnTxUntil, CollideStamp, Phase;
  std::vector<int32_t> HaveCount, Hop, ActiveArrivals, DoneNeighbors;
  std::vector<int32_t> LastDoneFrom, Granted;
  std::vector<int32_t> BurstsSent, PendingBackoffs, Polls;
  std::vector<uint64_t> Have; ///< HaveWords words per node
  std::vector<uint8_t> SeenBurst, PollArmed;
  std::vector<double> PerNodeJ, TxSecNode, RxSecNode;
  int HaveWords = 0;

  FleetResult Res;
};

void FleetSim::handle(const Event &E, RegionScratch &S) {
  switch (E.Kind) {
  case EvKick:
    kick(E, S);
    break;
  case EvArriveStart:
    arriveStart(E, S);
    break;
  case EvArriveEnd:
    arriveEnd(E, S);
    break;
  case EvBeacon:
    beacon(E, S);
    break;
  case EvRequest:
    request(E, S);
    break;
  case EvPoll:
    poll(E, S);
    break;
  }
}

void FleetSim::beacon(const Event &E, RegionScratch &S) {
  int32_t V = E.Node;
  size_t Vz = static_cast<size_t>(V);
  ++DoneNeighbors[Vz];
  LastDoneFrom[Vz] = E.From;
  // A straggler that now knows a completed neighbor arms its pull timer:
  // if the regular bursts have not filled it in by then, it will ask.
  if (!complete(V) && !PollArmed[Vz] && Cfg.Mac.MaxRequests > 0) {
    PollArmed[Vz] = 1;
    S.Out.push_back(make(
        EvPoll, V,
        E.Slot + PollBase +
            static_cast<int64_t>(
                Rngs[Vz].below(static_cast<uint64_t>(PollBase)))));
  }
}

void FleetSim::poll(const Event &E, RegionScratch &S) {
  int32_t V = E.Node;
  size_t Vz = static_cast<size_t>(V);
  if (complete(V) || Polls[Vz] >= Cfg.Mac.MaxRequests)
    return;
  ++Polls[Vz];
  ++S.Requests;
  S.Out.push_back(make(EvRequest, LastDoneFrom[Vz], E.Slot + 1, V));
  // Exponentially growing gap, Trickle-style: early retries are cheap,
  // late ones stay out of the way of a still-busy channel.
  int64_t Gap = PollBase << std::min<int>(Polls[Vz], 4);
  S.Out.push_back(make(
      EvPoll, V,
      E.Slot + Gap +
          static_cast<int64_t>(
              Rngs[Vz].below(static_cast<uint64_t>(PollBase)))));
}

void FleetSim::request(const Event &E, RegionScratch &S) {
  int32_t V = E.Node;
  size_t Vz = static_cast<size_t>(V);
  if (!complete(V))
    return; // raced: the server lost completeness claim is impossible,
            // but a stale LastDoneFrom target may simply not serve
  ++Granted[Vz];
  S.Out.push_back(make(
      EvKick, V,
      E.Slot + 1 + static_cast<int64_t>(Rngs[Vz].below(8))));
}

void FleetSim::kick(const Event &E, RegionScratch &S) {
  int32_t V = E.Node;
  size_t Vz = static_cast<size_t>(V);
  int Deg = static_cast<int>(T.Neighbors[Vz].size());
  // The unsolicited budget plus one extra burst per granted pull request;
  // done beacons from every neighbor retire the forwarder either way.
  int Budget = Cfg.Mac.MaxBursts + Granted[Vz];
  if (BurstsSent[Vz] >= Budget || DoneNeighbors[Vz] >= Deg)
    return; // everyone around already has the script (or budget spent)

  if (!awake(V, E.Slot)) {
    ++S.SleepDeferrals;
    int64_t W = nextAwake(V, E.Slot) +
                static_cast<int64_t>(Rngs[Vz].below(static_cast<uint64_t>(
                    std::max<int64_t>(1, std::min<int64_t>(OnSlots, 8)))));
    S.Out.push_back(make(EvKick, V, W));
    return;
  }

  if (Cfg.Mac.Csma && E.Slot <= BusyUntil[Vz] &&
      PendingBackoffs[Vz] < Cfg.Mac.MaxBackoffs) {
    ++S.Backoffs;
    ++PendingBackoffs[Vz];
    int64_t Window =
        int64_t(1) << std::min<int>(PendingBackoffs[Vz], Cfg.Mac.BackoffCapExp);
    int64_t At =
        std::max(BusyUntil[Vz] + 1, E.Slot + 1) +
        static_cast<int64_t>(Rngs[Vz].below(static_cast<uint64_t>(Window)));
    S.Out.push_back(make(EvKick, V, At));
    return;
  }
  PendingBackoffs[Vz] = 0;

  bool First = BurstsSent[Vz] == 0;
  ++BurstsSent[Vz];
  if (First)
    ++S.Transmitters;
  else
    S.Retransmissions += Packets;

  // The node's own transmission occupies its air: it cannot decode an
  // overlapping arrival (half-duplex) and its neighbors' carrier sense
  // picks the busy channel up via the arrival-start events below.
  if (ActiveArrivals[Vz] > 0)
    CollideStamp[Vz] = E.Slot;
  OwnTxUntil[Vz] = E.Slot + AirSlots;
  BusyUntil[Vz] = std::max(BusyUntil[Vz], E.Slot + AirSlots);

  double TxJ = Packets * TxPerPacketJ;
  PerNodeJ[Vz] += TxJ;
  TxSecNode[Vz] += AirSeconds;
  S.TxJoules += TxJ;
  S.TxSeconds += AirSeconds;

  for (int32_t Nb : T.Neighbors[Vz]) {
    S.Out.push_back(make(EvArriveStart, Nb, E.Slot + 1, V));
    S.Out.push_back(
        make(EvArriveEnd, Nb, E.Slot + 1 + AirSlots, V, Hop[Vz], E.Slot + 1));
  }
  if (Ev)
    S.Traces.push_back({0, V, -1, BurstsSent[Vz], E.Slot});

  if (BurstsSent[Vz] < Budget)
    S.Out.push_back(make(
        EvKick, V,
        E.Slot + AirSlots + 4 +
            static_cast<int64_t>(
                Rngs[Vz].below(static_cast<uint64_t>(RetryJitterW)))));
}

void FleetSim::arriveStart(const Event &E, RegionScratch &S) {
  (void)S;
  size_t Vz = static_cast<size_t>(E.Node);
  // A second concurrent arrival (or one landing during the node's own
  // transmission) garbles every burst overlapping this slot.
  if (ActiveArrivals[Vz] > 0 || E.Slot <= OwnTxUntil[Vz])
    CollideStamp[Vz] = E.Slot;
  ++ActiveArrivals[Vz];
  BusyUntil[Vz] = std::max(BusyUntil[Vz], E.Slot + AirSlots);
}

void FleetSim::arriveEnd(const Event &E, RegionScratch &S) {
  int32_t V = E.Node;
  size_t Vz = static_cast<size_t>(V);
  --ActiveArrivals[Vz];

  // A duty-cycled receiver decodes only the packets whose air slots fall
  // inside its wake window; a burst slept through entirely is a miss.
  int AwakeP = awakePackets(V, E.Aux);
  if (AwakeP < 0) {
    ++S.SleepMisses;
    return;
  }

  if (CollideStamp[Vz] >= E.Aux) {
    ++S.Collisions;
    chargeRx(V, S, AwakeP); // the radio listened through the garble
    if (Ev)
      S.Traces.push_back({2, V, E.From, 0, E.Slot});
    return;
  }

  if (complete(V)) {
    ++S.Overheard;
    if (Cfg.ChargeOverhear)
      chargeRx(V, S, AwakeP);
    return;
  }

  chargeRx(V, S, AwakeP);
  double Loss = linkLoss(E.From, V);
  uint64_t *VHave = Have.data() + Vz * static_cast<size_t>(HaveWords);
  forAwakeRuns(V, E.Aux, [&](int Lo, int Hi) {
    for (int P = Lo; P < Hi; ++P) {
      uint64_t &W = VHave[P / 64];
      uint64_t Bit = uint64_t(1) << (P % 64);
      if (W & Bit)
        continue;
      if (Loss > 0.0 && Rngs[Vz].unitReal() < Loss)
        continue; // this packet of the burst was lost on the link
      W |= Bit;
      ++HaveCount[Vz];
    }
  });
  SeenBurst[Vz] = 1;
  if (Ev)
    S.Traces.push_back({1, V, E.From, E.Hop, E.Slot});

  if (HaveCount[Vz] != Packets)
    return;

  // Completion: remember the hop depth, tell the neighbors (idealized
  // control-plane beacons), and join the forwarders.
  Hop[Vz] = E.Hop + 1;
  S.MaxHop = std::max(S.MaxHop, Hop[Vz]);
  ++S.Completions;
  int Deg = static_cast<int>(T.Neighbors[Vz].size());
  for (int32_t Nb : T.Neighbors[Vz])
    S.Out.push_back(make(EvBeacon, Nb, E.Slot + 1, V));
  S.Beacons += Deg;
  if (Cfg.Mac.MaxBursts > 0)
    S.Out.push_back(make(
        EvKick, V,
        E.Slot + 2 +
            static_cast<int64_t>(
                Rngs[Vz].below(static_cast<uint64_t>(ForwardJitterW)))));
}

void FleetSim::finalize(int64_t LastSlot) {
  Res.SimSeconds = static_cast<double>(LastSlot) * Cfg.SlotSeconds;
  for (int32_t V = 0; V < N; ++V) {
    if (complete(V)) {
      ++Res.NodesComplete;
    } else {
      ++Res.NodesIncomplete;
      Res.FailedPackets += Packets - HaveCount[static_cast<size_t>(V)];
    }
  }
  if (duty()) {
    double ListenW = Cfg.Power.RadioRxA * Cfg.Power.SupplyVolts;
    double SleepW = Cfg.Power.CpuStandbyA * Cfg.Power.SupplyVolts;
    for (int32_t V = 0; V < N; ++V) {
      size_t Vz = static_cast<size_t>(V);
      double AwakeS =
          static_cast<double>(awakeSlotsBefore(LastSlot, Phase[Vz])) *
          Cfg.SlotSeconds;
      double ListenS =
          std::max(0.0, AwakeS - TxSecNode[Vz] - RxSecNode[Vz]);
      double SleepS = std::max(0.0, Res.SimSeconds - AwakeS);
      Res.Energy.ListenSeconds += ListenS;
      Res.Energy.SleepSeconds += SleepS;
      Res.Energy.ListenJoules += ListenS * ListenW;
      Res.Energy.SleepJoules += SleepS * SleepW;
      PerNodeJ[Vz] += ListenS * ListenW + SleepS * SleepW;
    }
  }
  Res.PerNodeJoules = std::move(PerNodeJ);
}

void FleetSim::emitTrace(const TraceRec &Tr) {
  switch (Tr.Kind) {
  case 0:
    Ev->recordEvent(TelemetryEvent::Phase::Instant, "net", "burst.tx",
                    Tr.Node,
                    {{"slot", static_cast<double>(Tr.Slot)},
                     {"burst", static_cast<double>(Tr.Aux)}});
    break;
  case 1:
    Ev->recordEvent(TelemetryEvent::Phase::Instant, "net", "burst.rx",
                    Tr.Node,
                    {{"slot", static_cast<double>(Tr.Slot)},
                     {"from", static_cast<double>(Tr.From)},
                     {"hop", static_cast<double>(Tr.Aux)}});
    break;
  default:
    Ev->recordEvent(TelemetryEvent::Phase::Instant, "net",
                    "burst.collision", Tr.Node,
                    {{"slot", static_cast<double>(Tr.Slot)},
                     {"from", static_cast<double>(Tr.From)}});
    break;
  }
}

void FleetSim::emitCounters() {
  Telemetry *Tel = currentTelemetry();
  if (!Tel)
    return;
  Tel->addCounter("net.floods");
  Tel->addCounter("net.packets", Res.Packets);
  Tel->addCounter("net.bytes_on_air", static_cast<int64_t>(Res.BytesOnAir));
  Tel->addCounter("net.transmitters", Res.Transmitters);
  Tel->addCounter("net.retransmissions", Res.Retransmissions);
  Tel->addCounter("net.failed_packets", Res.FailedPackets);
  Tel->addCounter("net.event.processed", Res.EventsProcessed);
  Tel->addCounter("net.event.batches", Res.Batches);
  Tel->addCounter("net.event.parallel_batches", Res.ParallelBatches);
  Tel->addCounter("net.collisions", Res.Collisions);
  Tel->addCounter("net.backoffs", Res.Backoffs);
  Tel->addCounter("net.sleep.defers", Res.SleepDeferrals);
  Tel->addCounter("net.sleep.misses", Res.SleepMisses);
  Tel->addCounter("net.overheard", Res.Overheard);
  Tel->addCounter("net.beacons", Res.Beacons);
  Tel->addCounter("net.requests", Res.Requests);
  Tel->addCounter("net.nodes_incomplete", Res.NodesIncomplete);
  Tel->addGauge("net.tx_joules", Res.Energy.TxJoules);
  Tel->addGauge("net.rx_joules", Res.Energy.RxJoules);
  Tel->addGauge("net.listen_joules", Res.Energy.ListenJoules);
  Tel->addGauge("net.sleep_joules", Res.Energy.SleepJoules);
  Tel->addGauge("net.sim_seconds", Res.SimSeconds);
}

FleetResult FleetSim::run() {
  ScopedSpan Span("net");
  Res.Packets = Packets;
  Res.BytesOnAir = Bytes;
  if (N == 0) {
    emitCounters();
    return Res;
  }
  Ev = eventTelemetry();

  size_t Nz = static_cast<size_t>(N);
  Rngs.reserve(Nz);
  for (int32_t V = 0; V < N; ++V)
    Rngs.emplace_back(hashCombine(Cfg.Seed, static_cast<uint64_t>(V)));
  BusyUntil.assign(Nz, -1);
  OwnTxUntil.assign(Nz, -1);
  CollideStamp.assign(Nz, -1);
  HaveCount.assign(Nz, 0);
  Hop.assign(Nz, -1);
  ActiveArrivals.assign(Nz, 0);
  DoneNeighbors.assign(Nz, 0);
  LastDoneFrom.assign(Nz, 0);
  Granted.assign(Nz, 0);
  BurstsSent.assign(Nz, 0);
  PendingBackoffs.assign(Nz, 0);
  Polls.assign(Nz, 0);
  PollArmed.assign(Nz, 0);
  HaveWords = (Packets + 63) / 64;
  Have.assign(Nz * static_cast<size_t>(HaveWords), 0);
  SeenBurst.assign(Nz, 0);
  PerNodeJ.assign(Nz, 0.0);
  TxSecNode.assign(Nz, 0.0);
  RxSecNode.assign(Nz, 0.0);
  if (duty()) {
    Phase.resize(Nz);
    for (int32_t V = 0; V < N; ++V)
      Phase[static_cast<size_t>(V)] = static_cast<int64_t>(
          hashCombine(Cfg.Seed ^ 0xd0c5u, static_cast<uint64_t>(V)) %
          static_cast<uint64_t>(PeriodSlots));
  }

  // The sink owns the whole script from the start.
  SeenBurst[0] = 1;
  HaveCount[0] = Packets;
  for (int P = 0; P < Packets; ++P)
    Have[static_cast<size_t>(P) / 64] |= uint64_t(1) << (P % 64);
  Hop[0] = 0;
  int SinkDeg = static_cast<int>(T.Neighbors[0].size());
  EventQueue Queue(N, AirSlots);
  for (int32_t Nb : T.Neighbors[0])
    Queue.push(make(EvBeacon, Nb, 1, 0));
  Res.Beacons += SinkDeg;
  if (SinkDeg > 0 && Cfg.Mac.MaxBursts > 0)
    Queue.push(make(EvKick, 0, 2 + static_cast<int64_t>(Rngs[0].below(8))));

  ThreadPool Pool(Cfg.Jobs);
  std::vector<RegionScratch> Scratch(static_cast<size_t>(NumRegions));
  std::vector<std::vector<Event>> RegionEvents(
      static_cast<size_t>(NumRegions));
  std::vector<int> Active;
  std::vector<Event> Batch;
  int Reached = 1; // the sink
  int64_t LastSlot = 0;

  while (!Queue.empty()) {
    int64_t Slot = Queue.popBatch(Batch);
    LastSlot = Slot;
    ++Res.Batches;
    Res.EventsProcessed += static_cast<int64_t>(Batch.size());

    for (const Event &E : Batch) {
      int Rg = regionOf(E.Node);
      if (RegionEvents[static_cast<size_t>(Rg)].empty())
        Active.push_back(Rg);
      RegionEvents[static_cast<size_t>(Rg)].push_back(E);
    }
    std::sort(Active.begin(), Active.end());

    // "Eligible" is a property of the batch, not of the job count, so
    // the counter (and everything downstream) is jobs-invariant.
    bool Eligible = Active.size() > 1 &&
                    static_cast<int>(Batch.size()) >= Threshold;
    if (Eligible)
      ++Res.ParallelBatches;
    auto Work = [&](int I) {
      int Rg = Active[static_cast<size_t>(I)];
      RegionScratch &S = Scratch[static_cast<size_t>(Rg)];
      for (const Event &E : RegionEvents[static_cast<size_t>(Rg)])
        handle(E, S);
    };
    if (Eligible && Pool.jobs() > 1)
      Pool.parallelFor(static_cast<int>(Active.size()), Work);
    else
      for (int I = 0; I < static_cast<int>(Active.size()); ++I)
        Work(I);

    // Merge barrier: ascending region order keeps counter totals, FP
    // sums, queue sequence numbers and trace order schedule-independent.
    int Completions = 0;
    for (int Rg : Active) {
      RegionScratch &S = Scratch[static_cast<size_t>(Rg)];
      Res.Retransmissions += S.Retransmissions;
      Res.Collisions += S.Collisions;
      Res.Backoffs += S.Backoffs;
      Res.SleepDeferrals += S.SleepDeferrals;
      Res.SleepMisses += S.SleepMisses;
      Res.Overheard += S.Overheard;
      Res.Beacons += S.Beacons;
      Res.Requests += S.Requests;
      Res.Transmitters += S.Transmitters;
      Res.MaxHops = std::max(Res.MaxHops, S.MaxHop);
      Completions += S.Completions;
      Res.Energy.TxJoules += S.TxJoules;
      Res.Energy.RxJoules += S.RxJoules;
      Res.Energy.TxSeconds += S.TxSeconds;
      Res.Energy.RxSeconds += S.RxSeconds;
      for (const Event &E : S.Out)
        Queue.push(E);
      if (Ev)
        for (const TraceRec &Tr : S.Traces)
          emitTrace(Tr);
      S.reset();
      RegionEvents[static_cast<size_t>(Rg)].clear();
    }
    Active.clear();

    if (Completions > 0) {
      Reached += Completions;
      if (Ev)
        Ev->recordEvent(TelemetryEvent::Phase::Counter, "net",
                        "net.progress", 0,
                        {{"slot", static_cast<double>(Slot)},
                         {"reached", static_cast<double>(Reached)}});
    }
  }

  finalize(LastSlot);
  emitCounters();
  return Res;
}

} // namespace

FleetResult ucc::simulateFlood(const Topology &T, size_t ScriptBytes,
                               const FleetConfig &Cfg) {
  return FleetSim(T, ScriptBytes, Cfg).run();
}
