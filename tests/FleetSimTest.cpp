//===- tests/FleetSimTest.cpp - discrete-event fleet simulator ------------===//
//
// Fleet-mode radio/MAC/duty-cycle semantics, the event core's telemetry,
// and its exact output pinned per scenario.
//
//===----------------------------------------------------------------------===//

#include "net/EventSim.h"
#include "net/Network.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

using namespace ucc;

namespace {

/// Two line fragments with no path between them: 0-1-2 and 3-4.
Topology splitTopology() {
  Topology T;
  T.NumNodes = 5;
  T.Neighbors = {{1}, {0, 2}, {1}, {4}, {3}};
  return T;
}

TEST(FleetSim, IdealChannelFloodCompletesTheFleet) {
  FleetConfig Cfg;
  FleetResult R = simulateFlood(Topology::line(10), 200, Cfg);
  EXPECT_EQ(R.NodesComplete, 10);
  EXPECT_EQ(R.NodesIncomplete, 0);
  EXPECT_EQ(R.MaxHops, 9);
  // The tail node's only neighbor is already done, so it never forwards,
  // and completion beacons suppress every redundant re-broadcast.
  EXPECT_EQ(R.Transmitters, 9);
  EXPECT_EQ(R.Retransmissions, 0);
  EXPECT_EQ(R.Collisions, 0);
  EXPECT_EQ(R.FailedPackets, 0);
  EXPECT_GT(R.Beacons, 0);
  EXPECT_GT(R.EventsProcessed, 0);
  EXPECT_GT(R.SimSeconds, 0.0);
  // Ideal channel, no duty cycle: the ledger is packet energy only, and
  // Tx is one burst per forwarder: 9 forwarders x Packets x bits per packet.
  PacketFormat Fmt;
  ASSERT_EQ(R.Packets, Fmt.packetsFor(200));
  double PacketBits =
      static_cast<double>(Fmt.bytesOnAir(200)) * 8.0 / R.Packets;
  EXPECT_DOUBLE_EQ(R.Energy.TxJoules, 9 * R.Packets * PacketBits *
                                          Mica2Power().radioTxEnergyPerBit());
  EXPECT_DOUBLE_EQ(R.Energy.ListenJoules, 0.0);
  EXPECT_DOUBLE_EQ(R.Energy.SleepJoules, 0.0);
}

TEST(FleetSim, LossyLinksRecoverThroughExtraBursts) {
  FleetConfig Cfg;
  Cfg.Link.LossRate = 0.3;
  Cfg.Mac.MaxBursts = 6;
  Cfg.Seed = 7;
  FleetResult R = simulateFlood(Topology::grid(8, 8), 200, Cfg);
  EXPECT_EQ(R.NodesComplete, 64);
  EXPECT_GT(R.Retransmissions, 0);
  EXPECT_GT(R.Overheard, 0);
}

TEST(FleetSim, PerLinkJitterAndAsymmetryStayDeterministic) {
  FleetConfig Cfg;
  Cfg.Link.LossRate = 0.2;
  Cfg.Link.LossJitter = 0.15;
  Cfg.Link.Asymmetry = 0.2;
  Cfg.Mac.MaxBursts = 6;
  FleetResult A = simulateFlood(Topology::grid(6, 6), 150, Cfg);
  FleetResult B = simulateFlood(Topology::grid(6, 6), 150, Cfg);
  EXPECT_EQ(A.Retransmissions, B.Retransmissions);
  EXPECT_EQ(A.NodesComplete, B.NodesComplete);
  EXPECT_DOUBLE_EQ(A.totalJoules(), B.totalJoules());
  // A different seed re-rolls the per-link qualities.
  Cfg.Seed = 99;
  FleetResult C = simulateFlood(Topology::grid(6, 6), 150, Cfg);
  EXPECT_NE(A.totalJoules(), C.totalJoules());
}

TEST(FleetSim, DisablingCarrierSenseCausesCollisions) {
  FleetConfig Cfg;
  Cfg.Mac.Csma = false;
  Cfg.Mac.MaxBursts = 6;
  FleetResult R = simulateFlood(Topology::grid(10, 10), 400, Cfg);
  EXPECT_GT(R.Collisions, 0);
  EXPECT_EQ(R.Backoffs, 0);
  // Redundant grid paths still deliver everyone eventually.
  EXPECT_EQ(R.NodesComplete, 100);
}

TEST(FleetSim, CarrierSenseBacksOffInsteadOfColliding) {
  FleetConfig Cfg;
  Cfg.Mac.MaxBursts = 6;
  FleetResult R = simulateFlood(Topology::grid(10, 10), 400, Cfg);
  EXPECT_GT(R.Backoffs, 0);
  FleetConfig NoCsma = Cfg;
  NoCsma.Mac.Csma = false;
  FleetResult R2 = simulateFlood(Topology::grid(10, 10), 400, NoCsma);
  EXPECT_LT(R.Collisions, R2.Collisions);
}

TEST(FleetSim, DutyCyclingTradesLatencyAndFillsTheLedger) {
  FleetConfig Cfg;
  Cfg.Duty.PeriodSeconds = 0.25;
  Cfg.Duty.OnFraction = 0.4;
  Cfg.Mac.MaxBursts = 8;
  FleetResult R = simulateFlood(Topology::grid(6, 6), 200, Cfg);
  EXPECT_EQ(R.NodesComplete, 36);
  EXPECT_GT(R.SleepDeferrals + R.SleepMisses, 0);
  EXPECT_GT(R.Energy.ListenJoules, 0.0);
  EXPECT_GT(R.Energy.SleepJoules, 0.0);
  EXPECT_GT(R.Energy.SleepSeconds, 0.0);
  // Always-on takes less virtual time to finish the same flood.
  FleetConfig AlwaysOn = Cfg;
  AlwaysOn.Duty = DutyCycleConfig();
  FleetResult Fast = simulateFlood(Topology::grid(6, 6), 200, AlwaysOn);
  EXPECT_LT(Fast.SimSeconds, R.SimSeconds);
}

TEST(FleetSim, ZeroByteScriptStillPropagatesCompletion) {
  FleetResult R = simulateFlood(Topology::line(5), 0, FleetConfig());
  EXPECT_EQ(R.Packets, 0);
  EXPECT_EQ(R.NodesComplete, 5);
  EXPECT_DOUBLE_EQ(R.Energy.TxJoules, 0.0);
}

TEST(FleetSim, UnreachableNodesStayIncompleteAndCountFailures) {
  FleetConfig Cfg;
  FleetResult R = simulateFlood(splitTopology(), 100, Cfg);
  EXPECT_EQ(R.NodesComplete, 3);
  EXPECT_EQ(R.NodesIncomplete, 2);
  EXPECT_EQ(R.FailedPackets,
            2 * static_cast<int64_t>(PacketFormat().packetsFor(100)));
}

TEST(FleetSim, EmitsEventCountersAndGauges) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    FleetConfig Cfg;
    Cfg.Duty.PeriodSeconds = 0.2;
    Cfg.Duty.OnFraction = 0.5;
    Cfg.Mac.MaxBursts = 6;
    simulateFlood(Topology::grid(5, 5), 120, Cfg);
  }
  EXPECT_EQ(Tel.counter("net.floods"), 1);
  EXPECT_GT(Tel.counter("net.event.processed"), 0);
  EXPECT_GT(Tel.counter("net.event.batches"), 0);
  EXPECT_GT(Tel.counter("net.beacons"), 0);
  EXPECT_GT(Tel.gauge("net.tx_joules"), 0.0);
  EXPECT_GT(Tel.gauge("net.sim_seconds"), 0.0);
  const TelemetrySpan *Net = Tel.spans().find("net");
  ASSERT_NE(Net, nullptr);
  EXPECT_EQ(Net->Count, 1);
}

TEST(FleetSim, TraceEventsFollowTheBursts) {
  Telemetry Tel;
  Tel.enableEvents();
  FleetResult R;
  {
    TelemetryScope Scope(Tel);
    R = simulateFlood(Topology::line(4), 100, FleetConfig());
  }
  int Tx = 0, Rx = 0, Progress = 0;
  for (const TelemetryEvent *Ev : Tel.eventsInOrder()) {
    if (Ev->Name == "burst.tx")
      ++Tx;
    else if (Ev->Name == "burst.rx")
      ++Rx;
    else if (Ev->Name == "net.progress")
      ++Progress;
  }
  EXPECT_EQ(Tx, R.Transmitters);  // beacons suppressed every retry
  EXPECT_GE(Rx, 3);               // each non-sink node decodes at least once
  EXPECT_GT(Progress, 0);
}

/// A receiver that sleeps through every burst keeps a forwarder sending
/// its whole unsolicited budget; a budget past 32767 must still run out.
TEST(FleetSim, BurstBudgetAboveInt16Terminates) {
  FleetConfig Cfg;
  Cfg.Seed = 1;
  Cfg.Duty.PeriodSeconds = 1.0;
  Cfg.Duty.OnFraction = 0.01;
  Cfg.Mac.MaxRequests = 0;
  Cfg.Mac.MaxBursts = 40000;
  FleetResult R = simulateFlood(Topology::line(2), 24, Cfg);
  EXPECT_EQ(R.Packets, 1);
  EXPECT_EQ(R.Transmitters, 1);
  EXPECT_EQ(R.Retransmissions, 39999);
  EXPECT_EQ(R.NodesIncomplete, 1);
}

/// The event key packs a node id into 29 bits; a bigger topology is
/// refused before anything is allocated for it.
TEST(FleetSim, TopologyPastTheNodeKeyWidthThrows) {
  Topology Huge;
  Huge.NumNodes = (1 << 29) + 1;
  EXPECT_THROW(simulateFlood(Huge, 100), std::length_error);
}

/// Every FleetResult counter, then one FNV-1a digest over the bit patterns
/// of SimSeconds, the energy ledger and PerNodeJoules.
std::string pinOf(const FleetResult &R) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](double D) {
    uint64_t B;
    std::memcpy(&B, &D, sizeof(B));
    H = (H ^ B) * 0x100000001b3ULL;
  };
  const EnergyLedger &E = R.Energy;
  for (double D : {R.SimSeconds, E.TxSeconds, E.RxSeconds, E.ListenSeconds,
                   E.SleepSeconds, E.TxJoules, E.RxJoules, E.ListenJoules,
                   E.SleepJoules})
    Mix(D);
  for (double D : R.PerNodeJoules)
    Mix(D);
  return format("pk=%d bytes=%zu hops=%d tx=%d done=%d left=%d retx=%lld "
                "failed=%lld coll=%lld backoff=%lld defer=%lld miss=%lld "
                "over=%lld beacon=%lld req=%lld ev=%lld batch=%lld nodes=%zu "
                "fp=%016llx",
                R.Packets, R.BytesOnAir, R.MaxHops, R.Transmitters,
                R.NodesComplete, R.NodesIncomplete,
                static_cast<long long>(R.Retransmissions),
                static_cast<long long>(R.FailedPackets),
                static_cast<long long>(R.Collisions),
                static_cast<long long>(R.Backoffs),
                static_cast<long long>(R.SleepDeferrals),
                static_cast<long long>(R.SleepMisses),
                static_cast<long long>(R.Overheard),
                static_cast<long long>(R.Beacons),
                static_cast<long long>(R.Requests),
                static_cast<long long>(R.EventsProcessed),
                static_cast<long long>(R.Batches),
                R.PerNodeJoules.size(), static_cast<unsigned long long>(H));
}

/// The engine's exact output, pinned with values produced by the
/// binary-heap event core with per-packet wake checks (the engine before
/// the calendar queue and run-based wake-window decoding). Any change to
/// event order, RNG draws or floating-point summation order shows here.
TEST(FleetSim, ResultsArePinned) {
  // perfbench fleet-rollout's radio on its 2000-node grid.
  FleetConfig Rollout;
  Rollout.Link.LossRate = 0.10;
  Rollout.Link.LossJitter = 0.05;
  Rollout.Link.Asymmetry = 0.05;
  Rollout.Duty.PeriodSeconds = 0.25;
  Rollout.Duty.OnFraction = 0.5;
  Rollout.Seed = 3;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(40, 50), 900, Rollout)),
            "pk=38 bytes=1204 hops=97 tx=1784 done=2000 left=0 retx=215574 "
            "failed=0 coll=12441 backoff=5630 defer=5003 miss=0 over=9155 "
            "beacon=7820 req=2456 ev=93389 batch=34641 nodes=2000 "
            "fp=eec53ef7df9349c8");

  // 557 air slots over a 100-slot period: every burst spans windows.
  FleetConfig MultiWindow;
  MultiWindow.Link.LossRate = 0.1;
  MultiWindow.Duty.PeriodSeconds = 0.1;
  MultiWindow.Duty.OnFraction = 0.4;
  MultiWindow.Seed = 5;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(6, 6), 2000, MultiWindow)),
            "pk=84 bytes=2672 hops=13 tx=30 done=36 left=0 retx=8484 failed=0 "
            "coll=121 backoff=105 defer=166 miss=0 over=170 beacon=120 req=47 "
            "ev=1594 batch=809 nodes=36 fp=0a3eb114cac2d3d8");

  // Two 0.25 s slots of airtime carry all 38 packets.
  FleetConfig Coarse;
  Coarse.Link.LossRate = 0.1;
  Coarse.SlotSeconds = 0.25;
  Coarse.Duty.PeriodSeconds = 2.0;
  Coarse.Duty.OnFraction = 0.5;
  Coarse.Seed = 7;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(5, 5), 900, Coarse)),
            "pk=38 bytes=1204 hops=8 tx=23 done=25 left=0 retx=1748 failed=0 "
            "coll=32 backoff=45 defer=73 miss=66 over=69 beacon=80 req=21 "
            "ev=827 batch=187 nodes=25 fp=41f8eb606e4f7293");

  // One awake slot per 50-slot period.
  FleetConfig OneSlot;
  OneSlot.Link.LossRate = 0.05;
  OneSlot.Duty.PeriodSeconds = 0.05;
  OneSlot.Duty.OnFraction = 0.02;
  OneSlot.Mac.MaxBursts = 8;
  OneSlot.Seed = 11;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(6, 6), 300, OneSlot)),
            "pk=13 bytes=404 hops=11 tx=31 done=36 left=0 retx=2041 failed=0 "
            "coll=197 backoff=248 defer=447 miss=336 over=41 beacon=120 req=44 "
            "ev=2479 batch=1195 nodes=36 fp=86a25d6758745dc4");

  // A duty-cycle schedule that never sleeps.
  FleetConfig AlwaysOn;
  AlwaysOn.Link.LossRate = 0.1;
  AlwaysOn.Duty.PeriodSeconds = 0.1;
  AlwaysOn.Duty.OnFraction = 1.0;
  AlwaysOn.Seed = 13;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(6, 6), 300, AlwaysOn)),
            "pk=13 bytes=404 hops=10 tx=29 done=36 left=0 retx=780 failed=0 "
            "coll=156 backoff=53 defer=0 miss=0 over=85 beacon=120 req=15 "
            "ev=965 batch=390 nodes=36 fp=f6d92a31abe09232");

  FleetConfig ZeroByte;
  ZeroByte.Duty.PeriodSeconds = 0.25;
  ZeroByte.Duty.OnFraction = 0.3;
  ZeroByte.Seed = 17;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(5, 5), 0, ZeroByte)),
            "pk=0 bytes=0 hops=8 tx=18 done=25 left=0 retx=0 failed=0 coll=2 "
            "backoff=8 defer=53 miss=47 over=28 beacon=80 req=39 ev=538 "
            "batch=217 nodes=25 fp=6a0fe6eb97ce8fa2");

  // One unsolicited burst per forwarder, so stragglers pull. With 85 air
  // slots the queue's window is 512 slots, and every poll after the first
  // waits at least 2 * (4 * 85 + 8) = 696 slots: past the window.
  FleetConfig Pull;
  Pull.Link.LossRate = 0.35;
  Pull.Link.LossJitter = 0.1;
  Pull.Mac.MaxBursts = 1;
  Pull.Seed = 19;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(10, 10), 300, Pull)),
            "pk=13 bytes=404 hops=18 tx=91 done=100 left=0 retx=1885 failed=0 "
            "coll=162 backoff=56 defer=0 miss=0 over=349 beacon=360 req=146 "
            "ev=2776 batch=1187 nodes=100 fp=68c83a606a7e56c4");

  // The former fleet-scale bench's sub-8192-node scenarios: a 256-byte
  // script over a 1000-node line and a 32x32 grid, ideal and contended.
  FleetConfig Harsh;
  Harsh.Link.LossRate = 0.2;
  Harsh.Link.LossJitter = 0.1;
  Harsh.Duty.PeriodSeconds = 0.1;
  Harsh.Duty.OnFraction = 0.5;
  Harsh.Mac.MaxBursts = 6;
  EXPECT_EQ(pinOf(simulateFlood(Topology::line(1000), 256, FleetConfig())),
            "pk=11 bytes=344 hops=999 tx=999 done=1000 left=0 retx=0 failed=0 "
            "coll=0 backoff=0 defer=0 miss=0 over=998 beacon=1998 req=0 "
            "ev=8990 batch=5929 nodes=1000 fp=10d923b2f5f1b48b");
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(32, 32), 256, FleetConfig())),
            "pk=11 bytes=344 hops=63 tx=795 done=1024 left=0 retx=14190 "
            "failed=0 coll=5461 backoff=1520 defer=0 miss=0 over=1641 "
            "beacon=3968 req=267 ev=26147 batch=5404 nodes=1024 "
            "fp=f7c9603656cc9228");
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(32, 32), 256, Harsh)),
            "pk=11 bytes=344 hops=62 tx=906 done=1024 left=0 retx=50545 "
            "failed=0 coll=12300 backoff=8289 defer=9539 miss=0 over=5325 "
            "beacon=3968 req=1294 ev=75284 batch=20903 nodes=1024 "
            "fp=f0f53a2faeb1f1f1");

  // The two pins below were produced by the calendar-queue engine with
  // modulo duty-cycle arithmetic and a loss draw per awake packet.
  //
  // 209 packets in four Have words, 1390 air slots over a 100-slot
  // period: wake runs start and end inside a word.
  FleetConfig WideScript;
  WideScript.Link.LossRate = 0.1;
  WideScript.Duty.PeriodSeconds = 0.1;
  WideScript.Duty.OnFraction = 0.4;
  WideScript.Seed = 23;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(8, 8), 5000, WideScript)),
            "pk=209 bytes=6672 hops=20 tx=60 done=64 left=0 retx=39083 "
            "failed=0 coll=213 backoff=174 defer=289 miss=0 over=349 "
            "beacon=224 req=85 ev=2964 batch=1477 nodes=64 "
            "fp=be5d5d81b5788c2b");

  // Carrier sense off: every kick transmits at once, into whatever air.
  FleetConfig NoCsma;
  NoCsma.Link.LossRate = 0.1;
  NoCsma.Mac.Csma = false;
  NoCsma.Seed = 29;
  EXPECT_EQ(pinOf(simulateFlood(Topology::grid(10, 10), 900, NoCsma)),
            "pk=38 bytes=1204 hops=19 tx=85 done=100 left=0 retx=8208 "
            "failed=0 coll=688 backoff=0 defer=0 miss=0 over=170 beacon=360 "
            "req=70 ev=3139 batch=1244 nodes=100 fp=cf2acecb3a4944ba");
}

} // namespace
