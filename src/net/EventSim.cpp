//===- net/EventSim.cpp - discrete-event fleet dissemination simulator ----===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event core of the fleet simulator: a calendar queue of
/// slot-timestamped 32-byte events (pooled per-slot buckets over a window
/// of a few burst airtimes, with an occupancy bitmap, plus an overflow
/// heap for far-off timers) ordered by (slot, node, kind, seq), with
/// node, kind and seq packed into one integer key, and drained one
/// slot-batch at a time on the calling thread. Every event schedules its
/// consequences at least one slot in the future, so handlers push
/// straight into the queue while their batch runs. Every divisor on the
/// hot path is fixed per flood and taken through a FixedDivisor or a
/// table, and per-node state sits in one struct per node. See EventSim.h
/// for the model and docs/NETWORK.md for the determinism contract.
///
//===----------------------------------------------------------------------===//

#include "net/EventSim.h"

#include "support/Format.h"
#include "support/Hash.h"
#include "support/RNG.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

using namespace ucc;

namespace {

/// CSMA: a node that senses busy air defers by a random slot count below
/// a window that doubles per defer, capped at 2^BackoffCapExp slots, and
/// after MaxBackoffs defers in a row it sends anyway.
constexpr int BackoffCapExp = 5;
constexpr int MaxBackoffs = 16;

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

/// The sort key packs (node, kind, seq) as node:29 | kind:3 | seq:32, so
/// a batch orders on one integer compare and seq keeps its full 32 bits.
constexpr int KindShift = 32;
constexpr int NodeShift = 35;
constexpr int64_t MaxNodes = int64_t(1) << (64 - NodeShift);

struct Event {
  int64_t Slot = 0;
  uint64_t Key = 0; ///< node, kind and (once pushed) seq; see NodeShift
  int32_t From = -1;
  int32_t Hop = 0;   ///< arrivals: sender's hop
  int32_t Next = -1; ///< queue-internal: bucket or free-list link

  int32_t node() const { return static_cast<int32_t>(Key >> NodeShift); }
  uint8_t kind() const { return static_cast<uint8_t>((Key >> KindShift) & 7); }
};
static_assert(sizeof(Event) == 32, "events are 32 bytes");

/// One event of a popped batch: its sort key and its pool entry. Sorting
/// these instead of whole events moves half the bytes.
struct Ticket {
  uint64_t Key;
  int32_t Index;
};

/// The global event queue, a calendar over slots. Events live in one
/// pooled array; a ring of per-slot buckets, each a singly linked list
/// through Event::Next, covers the slots (Now, Now + ring size), and an
/// event scheduled past that window waits in a slot-ordered overflow heap.
/// The ring spans four burst airtimes plus slack, which holds every
/// arrival, beacon, request and transmit retry; what overflows is a
/// backed-off poll timer or a kick deferred to a distant wake window. One
/// occupancy bit per ring slot lets the scan for the next batch skip 64
/// empty buckets per word.
///
/// Sequence numbers are handed out per target node at push time, so the
/// (slot, node, kind, seq) order is a total order independent of bucket
/// order.
class EventQueue {
public:
  EventQueue(int NumNodes, int64_t AirSlots)
      : Buckets(std::bit_ceil(static_cast<uint64_t>(4 * AirSlots + 64)), -1),
        RingSlots(static_cast<int64_t>(Buckets.size())),
        Occupied(Buckets.size() / 64, 0),
        NodeSeq(static_cast<size_t>(std::max(NumNodes, 1)), 0) {}

  /// Schedules a \p Kind event for \p Node at \p Slot. Fields are
  /// written straight into the pool entry: an Event built elsewhere and
  /// copied in would be stored and reloaded in pieces of different sizes.
  void push(uint8_t Kind, int32_t Node, int64_t Slot, int32_t From = -1,
            int32_t Hop = 0) {
    assert(Slot > Now && "events are scheduled at least one slot ahead");
    int32_t I = FreeHead;
    if (I >= 0) {
      FreeHead = Pool[static_cast<size_t>(I)].Next;
    } else {
      I = static_cast<int32_t>(Pool.size());
      Pool.emplace_back();
    }
    Event &E = Pool[static_cast<size_t>(I)];
    E.Slot = Slot;
    E.Key = static_cast<uint64_t>(Node) << NodeShift |
            static_cast<uint64_t>(Kind) << KindShift |
            NodeSeq[static_cast<size_t>(Node)]++;
    E.From = From;
    E.Hop = Hop;
    if (Slot - Now < RingSlots) {
      size_t B = bucketOf(Slot);
      E.Next = Buckets[B];
      Buckets[B] = I;
      Occupied[B / 64] |= uint64_t(1) << (B % 64);
      ++InRing;
    } else {
      Overflow.emplace_back(Slot, I);
      std::push_heap(Overflow.begin(), Overflow.end(), LaterSlot());
    }
  }

  bool empty() const { return InRing == 0 && Overflow.empty(); }

  /// Lists every event of the earliest slot in \p Batch, sorted by
  /// (node, kind, seq), and returns that slot. Each listed event stays in
  /// the pool until take() hands it out.
  int64_t popBatch(std::vector<Ticket> &Batch) {
    Batch.clear();
    int64_t Slot = Overflow.empty() ? std::numeric_limits<int64_t>::max()
                                    : Overflow.front().first;
    if (InRing > 0)
      Slot = std::min(Slot, firstOccupied());
    size_t B = bucketOf(Slot);
    for (int32_t I = Buckets[B]; I >= 0;) {
      const Event &E = Pool[static_cast<size_t>(I)];
      Batch.push_back({E.Key, I});
      --InRing;
      I = E.Next;
    }
    Buckets[B] = -1;
    Occupied[B / 64] &= ~(uint64_t(1) << (B % 64));
    while (!Overflow.empty() && Overflow.front().first == Slot) {
      std::pop_heap(Overflow.begin(), Overflow.end(), LaterSlot());
      int32_t I = Overflow.back().second;
      Batch.push_back({Pool[static_cast<size_t>(I)].Key, I});
      Overflow.pop_back();
    }
    Now = Slot;
    if (Batch.size() > 1)
      std::sort(Batch.begin(), Batch.end(),
                [](const Ticket &A, const Ticket &C) { return A.Key < C.Key; });
    return Slot;
  }

  /// Returns pooled event \p I of the last batch and frees its entry.
  Event take(int32_t I) {
    Event &Entry = Pool[static_cast<size_t>(I)];
    Event E = Entry;
    Entry.Next = FreeHead;
    FreeHead = I;
    return E;
  }

private:
  /// The overflow heap's order: earliest slot on top. Events of one slot
  /// leave it together and are sorted as a batch, so ties need no order.
  struct LaterSlot {
    bool operator()(const std::pair<int64_t, int32_t> &A,
                    const std::pair<int64_t, int32_t> &C) const {
      return A.first > C.first;
    }
  };

  size_t bucketOf(int64_t Slot) const {
    return static_cast<size_t>(Slot & (RingSlots - 1));
  }

  /// The first slot after Now whose bucket holds events; the ring must
  /// hold some. Every ring event lies in (Now, Now + RingSlots), so the
  /// scan wraps at most once, and a bucket it stops at holds only that
  /// slot.
  int64_t firstOccupied() const {
    size_t Start = bucketOf(Now + 1);
    size_t W = Start / 64;
    uint64_t Bits = Occupied[W] & (~uint64_t(0) << (Start % 64));
    while (Bits == 0) {
      W = (W + 1) & (Occupied.size() - 1);
      Bits = Occupied[W];
    }
    size_t Found = W * 64 + static_cast<size_t>(std::countr_zero(Bits));
    return Now + 1 + static_cast<int64_t>((Found - Start) & (RingSlots - 1));
  }

  std::vector<Event> Pool;
  int32_t FreeHead = -1;
  std::vector<int32_t> Buckets;   ///< ring: head pool index, -1 = empty
  int64_t RingSlots;              ///< a power of two, at least 128
  std::vector<uint64_t> Occupied; ///< one bit per bucket: non-empty
  int64_t Now = 0;                ///< slot of the last batch popped
  size_t InRing = 0;
  std::vector<std::pair<int64_t, int32_t>> Overflow; ///< (slot, index)
  std::vector<uint32_t> NodeSeq;
};

//===----------------------------------------------------------------------===//
// Fleet simulator
//===----------------------------------------------------------------------===//

/// The Tx/Rx energy one batch adds up. The ledger adds each batch's sums
/// once the batch is done, not each handler's charge as it happens: that
/// is the summation order FleetSim.ResultsArePinned encodes.
struct BatchEnergy {
  double TxJoules = 0.0;
  double RxJoules = 0.0;
  double TxSeconds = 0.0;
  double RxSeconds = 0.0;
};

/// Everything the simulator tracks per node, in one place: a handler
/// reads and writes a handful of these fields, and together they span two
/// or three cache lines instead of one line per field. (Over-aligning the
/// struct to 64 bytes ran no faster and, through glibc's aligned
/// allocator, raised perfbench fleet-rollout's peak RSS by about 50 MB.)
struct NodeState {
  explicit NodeState(uint64_t Seed) : Rng(Seed) {}

  RNG Rng;
  int64_t BusyUntil = -1, OwnTxUntil = -1, CollideStamp = -1;
  int64_t Phase = 0; ///< duty cycling: offset of the node's period
  int32_t HaveCount = 0, Hop = -1, ActiveArrivals = 0, DoneNeighbors = 0;
  int32_t LastDoneFrom = 0, Granted = 0, BurstsSent = 0, PendingBackoffs = 0;
  int32_t Polls = 0;
  uint8_t SeenBurst = 0, PollArmed = 0;
  double Joules = 0.0, TxSeconds = 0.0, RxSeconds = 0.0;
};

class FleetSim {
public:
  FleetSim(const Topology &T, size_t ScriptBytes, const FleetConfig &Cfg)
      : T(T), Cfg(Cfg), N(T.NumNodes),
        Packets(Cfg.Fmt.packetsFor(ScriptBytes)),
        Bytes(Cfg.Fmt.bytesOnAir(ScriptBytes)),
        AirSeconds(static_cast<double>(Bytes) * 8.0 /
                   Cfg.Power.RadioBitsPerSec),
        AirSlots(std::max<int64_t>(
            1, static_cast<int64_t>(std::ceil(AirSeconds / Cfg.SlotSeconds)))),
        Queue(N, AirSlots) {
    double PacketBits =
        Packets > 0 ? static_cast<double>(Bytes) * 8.0 / Packets : 0.0;
    TxPerPacketJ = PacketBits * Cfg.Power.radioTxEnergyPerBit();
    RxPerPacketJ = PacketBits * Cfg.Power.radioRxEnergyPerBit();
    PollBase = 4 * AirSlots + 8;
    RxSecondsFor.assign(static_cast<size_t>(Packets) + 1, 0.0);
    for (int P = 1; P <= Packets; ++P)
      RxSecondsFor[static_cast<size_t>(P)] =
          AirSeconds * P / static_cast<double>(Packets);

    if (Cfg.Duty.PeriodSeconds > 0.0) {
      PeriodSlots = std::max<int64_t>(
          2, static_cast<int64_t>(
                 std::llround(Cfg.Duty.PeriodSeconds / Cfg.SlotSeconds)));
      OnSlots = static_cast<int64_t>(
          std::llround(Cfg.Duty.OnFraction * static_cast<double>(PeriodSlots)));
      OnSlots = std::max<int64_t>(1, std::min(OnSlots, PeriodSlots));
      // Packet P airs at offset floor(P * AirSlots / Packets) from the
      // burst's start; FirstPacket[Off] is the first packet at offset Off
      // or later.
      PacketOff.resize(static_cast<size_t>(Packets));
      for (int P = 0; P < Packets; ++P)
        PacketOff[static_cast<size_t>(P)] =
            (static_cast<int64_t>(P) * AirSlots) / Packets;
      FirstPacket.resize(static_cast<size_t>(AirSlots) + 1);
      for (int64_t Off = 0; Off <= AirSlots; ++Off)
        FirstPacket[static_cast<size_t>(Off)] =
            static_cast<int>((Off * Packets + AirSlots - 1) / AirSlots);
      Period = FixedDivisor(static_cast<uint64_t>(PeriodSlots));
      WakeJitter = FixedDivisor(
          static_cast<uint64_t>(std::min<int64_t>(OnSlots, 8)));
    }
    auto JitterW = static_cast<uint64_t>(std::max<int64_t>(8, 2 * AirSlots));
    ForwardJitter = FixedDivisor(JitterW);
    RetryJitter = FixedDivisor(JitterW);
    PollJitter = FixedDivisor(static_cast<uint64_t>(PollBase));
  }

  FleetResult run();

private:
  bool duty() const { return PeriodSlots > 0; }

  /// Where \p Slot falls in \p V's listen/sleep period: awake below OnSlots.
  int64_t periodPos(int32_t V, int64_t Slot) const {
    return static_cast<int64_t>(Period.remainder(
        static_cast<uint64_t>(Slot + Nodes[static_cast<size_t>(V)].Phase)));
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
    return Nodes[Vz].SeenBurst && Nodes[Vz].HaveCount == Packets;
  }

  /// The first packet of a burst whose air offset (in slots from the
  /// burst's start) is at least \p Off.
  int firstPacketFrom(int64_t Off) const {
    return FirstPacket[static_cast<size_t>(std::min(Off, AirSlots))];
  }

  /// A straggler with an outstanding pull request holds its radio on
  /// until it is served (the Deluge RX state) — otherwise a solicited
  /// burst aligned with the server's wake phase could deterministically
  /// land in the straggler's sleep window on every retry.
  bool pulling(int32_t V) const {
    return Nodes[static_cast<size_t>(V)].Polls > 0 && !complete(V);
  }

  /// Fills Runs with each run [Lo, Hi), in ascending order, of the
  /// packets of a burst that started at \p Start and aired while \p V's
  /// radio was on, and returns how many packets that is (Packets when not
  /// duty cycling; -1 = the whole burst was slept through). A zero-packet
  /// script is a bare marker at the start slot. Packet offsets are
  /// monotone in P, so the packets inside one wake window are contiguous:
  /// the walk visits each run and each gap once instead of each packet.
  int awakeRuns(int32_t V, int64_t Start) {
    Runs.clear();
    if (!duty() || pulling(V)) {
      Runs.emplace_back(0, Packets);
      return Packets;
    }
    if (Packets == 0)
      return periodPos(V, Start) < OnSlots ? 0 : -1;
    // Pos is where packet P airs in V's period. From one packet to the
    // next the walk adds offsets: the window edge it jumps to sits at a
    // known position, so it takes a remainder only when the next packet
    // airs a whole period or more past that edge.
    int64_t Pos = periodPos(V, Start);
    int Count = 0;
    for (int P = 0;;) {
      bool On = Pos < OnSlots;
      int64_t Edge = PacketOff[static_cast<size_t>(P)] - Pos +
                     (On ? OnSlots : PeriodSlots);
      int Next = firstPacketFrom(Edge);
      if (On) {
        Runs.emplace_back(P, Next);
        Count += Next - P;
      }
      if (Next == Packets)
        break;
      P = Next;
      Pos = (On ? OnSlots : 0) + (PacketOff[static_cast<size_t>(P)] - Edge);
      if (Pos >= PeriodSlots)
        Pos = static_cast<int64_t>(
            Period.remainder(static_cast<uint64_t>(Pos)));
    }
    return Count > 0 ? Count : -1;
  }

  /// Rx energy for the \p AwakeP packet airtimes the radio listened to.
  void chargeRx(int32_t V, int AwakeP) {
    double RxJ = AwakeP * RxPerPacketJ;
    double RxS = RxSecondsFor[static_cast<size_t>(AwakeP)];
    Nodes[static_cast<size_t>(V)].Joules += RxJ;
    Nodes[static_cast<size_t>(V)].RxSeconds += RxS;
    Batch.RxJoules += RxJ;
    Batch.RxSeconds += RxS;
  }

  void handle(const Event &E);
  void kick(const Event &E);
  void arriveStart(const Event &E);
  void arriveEnd(const Event &E);
  void decodeRuns(int32_t V, int32_t From);
  void beacon(const Event &E);
  void poll(const Event &E);
  void request(const Event &E);
  void finalize(int64_t LastSlot);
  void emitCounters();

  const Topology &T;
  const FleetConfig &Cfg;
  int N;
  int Packets;
  size_t Bytes;
  double AirSeconds;
  int64_t AirSlots;
  EventQueue Queue;
  double TxPerPacketJ = 0.0, RxPerPacketJ = 0.0;
  int64_t PollBase = 16;
  int64_t PeriodSlots = 0, OnSlots = 0;
  // Every divisor of the hot path is fixed for the flood.
  FixedDivisor Period{1}, WakeJitter{1}, ForwardJitter{1}, RetryJitter{1},
      PollJitter{1};
  std::vector<int64_t> PacketOff;   ///< duty cycling: air offset per packet
  std::vector<int> FirstPacket;     ///< duty cycling: see firstPacketFrom
  std::vector<double> RxSecondsFor; ///< Rx airtime of 0..Packets packets
  /// awakeRuns' output: runs [Lo, Hi) of packets the radio was on for.
  std::vector<std::pair<int, int>> Runs;
  Telemetry *Ev = nullptr;

  // Per-node state; every entry is only ever touched by events addressed
  // to that node.
  std::vector<NodeState> Nodes;
  std::vector<uint64_t> Have; ///< HaveWords words per node
  int HaveWords = 0;

  FleetResult Res;
  BatchEnergy Batch;        ///< the running batch's Tx/Rx sums
  int BatchCompletions = 0; ///< nodes the running batch completed
};

void FleetSim::handle(const Event &E) {
  switch (E.kind()) {
  case EvKick:
    kick(E);
    break;
  case EvArriveStart:
    arriveStart(E);
    break;
  case EvArriveEnd:
    arriveEnd(E);
    break;
  case EvBeacon:
    beacon(E);
    break;
  case EvRequest:
    request(E);
    break;
  case EvPoll:
    poll(E);
    break;
  }
}

void FleetSim::beacon(const Event &E) {
  int32_t V = E.node();
  NodeState &S = Nodes[static_cast<size_t>(V)];
  ++S.DoneNeighbors;
  S.LastDoneFrom = E.From;
  // A straggler that now knows a completed neighbor arms its pull timer:
  // if the regular bursts have not filled it in by then, it will ask.
  if (!complete(V) && !S.PollArmed && Cfg.Mac.MaxRequests > 0) {
    S.PollArmed = 1;
    Queue.push(EvPoll, V,
               E.Slot + PollBase +
                   static_cast<int64_t>(S.Rng.below(PollJitter)));
  }
}

void FleetSim::poll(const Event &E) {
  int32_t V = E.node();
  NodeState &S = Nodes[static_cast<size_t>(V)];
  if (complete(V) || S.Polls >= Cfg.Mac.MaxRequests)
    return;
  ++S.Polls;
  ++Res.Requests;
  Queue.push(EvRequest, S.LastDoneFrom, E.Slot + 1, V);
  // Exponentially growing gap, Trickle-style: early retries are cheap,
  // late ones stay out of the way of a still-busy channel.
  int64_t Gap = PollBase << std::min<int>(S.Polls, 4);
  Queue.push(EvPoll, V,
             E.Slot + Gap + static_cast<int64_t>(S.Rng.below(PollJitter)));
}

void FleetSim::request(const Event &E) {
  int32_t V = E.node();
  NodeState &S = Nodes[static_cast<size_t>(V)];
  // Requests go only to LastDoneFrom, a node that sent a done beacon, and
  // a node never stops being complete.
  assert(complete(V) && "a pull request reached an incomplete node");
  ++S.Granted;
  Queue.push(EvKick, V, E.Slot + 1 + static_cast<int64_t>(S.Rng.next() & 7));
}

void FleetSim::kick(const Event &E) {
  int32_t V = E.node();
  size_t Vz = static_cast<size_t>(V);
  NodeState &S = Nodes[Vz];
  int Deg = static_cast<int>(T.Neighbors[Vz].size());
  // The unsolicited budget plus one extra burst per granted pull request;
  // done beacons from every neighbor retire the forwarder either way.
  int Budget = Cfg.Mac.MaxBursts + S.Granted;
  if (S.BurstsSent >= Budget || S.DoneNeighbors >= Deg)
    return; // everyone around already has the script (or budget spent)

  if (duty()) {
    int64_t Pos = periodPos(V, E.Slot);
    if (Pos >= OnSlots) {
      ++Res.SleepDeferrals;
      int64_t W = E.Slot + (PeriodSlots - Pos) +
                  static_cast<int64_t>(S.Rng.below(WakeJitter));
      Queue.push(EvKick, V, W);
      return;
    }
  }

  if (Cfg.Mac.Csma && E.Slot <= S.BusyUntil &&
      S.PendingBackoffs < MaxBackoffs) {
    ++Res.Backoffs;
    ++S.PendingBackoffs;
    uint64_t Window =
        uint64_t(1) << std::min<int>(S.PendingBackoffs, BackoffCapExp);
    int64_t At = std::max(S.BusyUntil + 1, E.Slot + 1) +
                 static_cast<int64_t>(S.Rng.next() & (Window - 1));
    Queue.push(EvKick, V, At);
    return;
  }
  S.PendingBackoffs = 0;

  bool First = S.BurstsSent == 0;
  ++S.BurstsSent;
  if (First)
    ++Res.Transmitters;
  else
    Res.Retransmissions += Packets;

  // The node's own transmission occupies its air: it cannot decode an
  // overlapping arrival (half-duplex) and its neighbors' carrier sense
  // picks the busy channel up via the arrival-start events below.
  if (S.ActiveArrivals > 0)
    S.CollideStamp = E.Slot;
  S.OwnTxUntil = E.Slot + AirSlots;
  S.BusyUntil = std::max(S.BusyUntil, E.Slot + AirSlots);

  double TxJ = Packets * TxPerPacketJ;
  S.Joules += TxJ;
  S.TxSeconds += AirSeconds;
  Batch.TxJoules += TxJ;
  Batch.TxSeconds += AirSeconds;

  for (int32_t Nb : T.Neighbors[Vz]) {
    Queue.push(EvArriveStart, Nb, E.Slot + 1, V);
    Queue.push(EvArriveEnd, Nb, E.Slot + 1 + AirSlots, V, S.Hop);
  }
  if (Ev)
    Ev->recordEvent(TelemetryEvent::Phase::Instant, "net", "burst.tx", V,
                    {{"slot", static_cast<double>(E.Slot)},
                     {"burst", static_cast<double>(S.BurstsSent)}});

  if (S.BurstsSent < Budget)
    Queue.push(EvKick, V,
               E.Slot + AirSlots + 4 +
                   static_cast<int64_t>(S.Rng.below(RetryJitter)));
}

void FleetSim::arriveStart(const Event &E) {
  NodeState &S = Nodes[static_cast<size_t>(E.node())];
  // A second concurrent arrival (or one landing during the node's own
  // transmission) garbles every burst overlapping this slot.
  if (S.ActiveArrivals > 0 || E.Slot <= S.OwnTxUntil)
    S.CollideStamp = E.Slot;
  ++S.ActiveArrivals;
  S.BusyUntil = std::max(S.BusyUntil, E.Slot + AirSlots);
}

/// Bits [Lo, Hi) of a word, 0 <= Lo < Hi <= 64.
uint64_t bitsIn(int Lo, int Hi) {
  return (~uint64_t(0) >> (64 - (Hi - Lo))) << Lo;
}

/// Draws link loss for each packet of Runs that \p V still misses, in
/// ascending packet order, and keeps the ones that arrive. Packets it
/// already holds take no draw: each Have word is masked to the run and
/// only its clear bits are visited.
void FleetSim::decodeRuns(int32_t V, int32_t From) {
  size_t Vz = static_cast<size_t>(V);
  double Loss = linkLoss(From, V);
  uint64_t *VHave = Have.data() + Vz * static_cast<size_t>(HaveWords);
  // Locals, so the stores to VHave cannot alias the generator's state.
  RNG Rng = Nodes[Vz].Rng;
  int Count = Nodes[Vz].HaveCount;
  for (auto [Lo, Hi] : Runs) {
    for (int W = Lo / 64; W * 64 < Hi; ++W) {
      int Base = W * 64;
      uint64_t Missing = ~VHave[W] & bitsIn(std::max(Lo - Base, 0),
                                            std::min(Hi - Base, 64));
      uint64_t Got = 0;
      for (; Missing != 0; Missing &= Missing - 1) {
        if (Loss > 0.0 && Rng.unitReal() < Loss)
          continue; // this packet of the burst was lost on the link
        Got |= Missing & (~Missing + 1); // the lowest missing packet
        ++Count;
      }
      VHave[W] |= Got;
    }
  }
  Nodes[Vz].Rng = Rng;
  Nodes[Vz].HaveCount = Count;
}

void FleetSim::arriveEnd(const Event &E) {
  int32_t V = E.node();
  size_t Vz = static_cast<size_t>(V);
  NodeState &S = Nodes[Vz];
  int64_t Start = E.Slot - AirSlots; // the burst's first slot on the air
  --S.ActiveArrivals;

  // A duty-cycled receiver decodes only the packets whose air slots fall
  // inside its wake window; a burst slept through entirely is a miss.
  int AwakeP = awakeRuns(V, Start);
  if (AwakeP < 0) {
    ++Res.SleepMisses;
    return;
  }

  if (S.CollideStamp >= Start) {
    ++Res.Collisions;
    chargeRx(V, AwakeP); // the radio listened through the garble
    if (Ev)
      Ev->recordEvent(TelemetryEvent::Phase::Instant, "net",
                      "burst.collision", V,
                      {{"slot", static_cast<double>(E.Slot)},
                       {"from", static_cast<double>(E.From)}});
    return;
  }

  if (complete(V)) {
    ++Res.Overheard;
    chargeRx(V, AwakeP); // a complete node's radio still decodes the burst
    return;
  }

  chargeRx(V, AwakeP);
  decodeRuns(V, E.From);
  S.SeenBurst = 1;
  if (Ev)
    Ev->recordEvent(TelemetryEvent::Phase::Instant, "net", "burst.rx", V,
                    {{"slot", static_cast<double>(E.Slot)},
                     {"from", static_cast<double>(E.From)},
                     {"hop", static_cast<double>(E.Hop)}});

  if (S.HaveCount != Packets)
    return;

  // Completion: remember the hop depth, tell the neighbors (idealized
  // control-plane beacons), and join the forwarders.
  S.Hop = E.Hop + 1;
  Res.MaxHops = std::max(Res.MaxHops, S.Hop);
  ++BatchCompletions;
  int Deg = static_cast<int>(T.Neighbors[Vz].size());
  for (int32_t Nb : T.Neighbors[Vz])
    Queue.push(EvBeacon, Nb, E.Slot + 1, V);
  Res.Beacons += Deg;
  if (Cfg.Mac.MaxBursts > 0)
    Queue.push(EvKick, V,
               E.Slot + 2 + static_cast<int64_t>(S.Rng.below(ForwardJitter)));
}

void FleetSim::finalize(int64_t LastSlot) {
  Res.SimSeconds = static_cast<double>(LastSlot) * Cfg.SlotSeconds;
  double ListenW = Cfg.Power.RadioRxA * Cfg.Power.SupplyVolts;
  double SleepW = Cfg.Power.CpuStandbyA * Cfg.Power.SupplyVolts;
  Res.PerNodeJoules.resize(Nodes.size());
  for (int32_t V = 0; V < N; ++V) {
    NodeState &S = Nodes[static_cast<size_t>(V)];
    if (complete(V)) {
      ++Res.NodesComplete;
    } else {
      ++Res.NodesIncomplete;
      Res.FailedPackets += Packets - S.HaveCount;
    }
    if (duty()) {
      double AwakeS =
          static_cast<double>(awakeSlotsBefore(LastSlot, S.Phase)) *
          Cfg.SlotSeconds;
      double ListenS = std::max(0.0, AwakeS - S.TxSeconds - S.RxSeconds);
      double SleepS = std::max(0.0, Res.SimSeconds - AwakeS);
      Res.Energy.ListenSeconds += ListenS;
      Res.Energy.SleepSeconds += SleepS;
      Res.Energy.ListenJoules += ListenS * ListenW;
      Res.Energy.SleepJoules += SleepS * SleepW;
      S.Joules += ListenS * ListenW + SleepS * SleepW;
    }
    Res.PerNodeJoules[static_cast<size_t>(V)] = S.Joules;
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
  Nodes.reserve(Nz);
  for (int32_t V = 0; V < N; ++V) {
    NodeState &S =
        Nodes.emplace_back(hashCombine(Cfg.Seed, static_cast<uint64_t>(V)));
    if (duty())
      S.Phase = static_cast<int64_t>(Period.remainder(
          hashCombine(Cfg.Seed ^ 0xd0c5u, static_cast<uint64_t>(V))));
  }
  HaveWords = (Packets + 63) / 64;
  Have.assign(Nz * static_cast<size_t>(HaveWords), 0);

  // The sink owns the whole script from the start.
  NodeState &Sink = Nodes[0];
  Sink.SeenBurst = 1;
  Sink.HaveCount = Packets;
  for (int P = 0; P < Packets; ++P)
    Have[static_cast<size_t>(P) / 64] |= uint64_t(1) << (P % 64);
  Sink.Hop = 0;
  int SinkDeg = static_cast<int>(T.Neighbors[0].size());
  for (int32_t Nb : T.Neighbors[0])
    Queue.push(EvBeacon, Nb, 1, 0);
  Res.Beacons += SinkDeg;
  if (SinkDeg > 0 && Cfg.Mac.MaxBursts > 0)
    Queue.push(EvKick, 0, 2 + static_cast<int64_t>(Sink.Rng.next() & 7));

  std::vector<Ticket> Events;
  int Reached = 1; // the sink
  int64_t LastSlot = 0;

  while (!Queue.empty()) {
    int64_t Slot = Queue.popBatch(Events);
    LastSlot = Slot;
    ++Res.Batches;
    Res.EventsProcessed += static_cast<int64_t>(Events.size());

    for (const Ticket &K : Events)
      handle(Queue.take(K.Index));

    Res.Energy.TxJoules += Batch.TxJoules;
    Res.Energy.RxJoules += Batch.RxJoules;
    Res.Energy.TxSeconds += Batch.TxSeconds;
    Res.Energy.RxSeconds += Batch.RxSeconds;
    Batch = BatchEnergy();

    if (BatchCompletions > 0) {
      Reached += BatchCompletions;
      BatchCompletions = 0;
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
  if (T.NumNodes > MaxNodes)
    throw std::length_error("simulateFlood: more than 2^29 nodes");
  return FleetSim(T, ScriptBytes, Cfg).run();
}
