//===- tests/FleetSimTest.cpp - discrete-event fleet simulator ------------===//
//
// Fleet-mode radio/MAC/duty-cycle semantics and the parallel determinism
// contract (jobs 1 vs 8 byte-identical results and net.* counters).
//
//===----------------------------------------------------------------------===//

#include "net/EventSim.h"
#include "net/Network.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstring>

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
  // Tx matches the seed model (one burst per forwarder).
  DisseminationResult Legacy = disseminate(Topology::line(10), 200);
  EXPECT_DOUBLE_EQ(R.Energy.TxJoules, Legacy.TotalTxJoules);
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

/// The determinism gate: identical results and identical `net.*`
/// counters for jobs 1 vs 8, with the threshold forced down so every
/// multi-region batch actually exercises the parallel path.
TEST(FleetSim, JobsOneVsEightAreByteIdentical) {
  auto Run = [](int Jobs, FleetResult &R, Telemetry &Tel) {
    FleetConfig Cfg;
    Cfg.Link.LossRate = 0.2;
    Cfg.Link.LossJitter = 0.1;
    Cfg.Duty.PeriodSeconds = 0.1;
    Cfg.Duty.OnFraction = 0.6;
    Cfg.Mac.MaxBursts = 6;
    Cfg.Regions = 8;
    Cfg.ParallelThreshold = 1;
    Cfg.Jobs = Jobs;
    TelemetryScope Scope(Tel);
    R = simulateFlood(Topology::grid(12, 12), 300, Cfg);
  };
  FleetResult R1, R8;
  Telemetry T1, T8;
  Run(1, R1, T1);
  Run(8, R8, T8);

  EXPECT_EQ(R1.Packets, R8.Packets);
  EXPECT_EQ(R1.MaxHops, R8.MaxHops);
  EXPECT_EQ(R1.Transmitters, R8.Transmitters);
  EXPECT_EQ(R1.NodesComplete, R8.NodesComplete);
  EXPECT_EQ(R1.Retransmissions, R8.Retransmissions);
  EXPECT_EQ(R1.FailedPackets, R8.FailedPackets);
  EXPECT_EQ(R1.Collisions, R8.Collisions);
  EXPECT_EQ(R1.Backoffs, R8.Backoffs);
  EXPECT_EQ(R1.SleepDeferrals, R8.SleepDeferrals);
  EXPECT_EQ(R1.SleepMisses, R8.SleepMisses);
  EXPECT_EQ(R1.Overheard, R8.Overheard);
  EXPECT_EQ(R1.Beacons, R8.Beacons);
  EXPECT_EQ(R1.EventsProcessed, R8.EventsProcessed);
  EXPECT_EQ(R1.Batches, R8.Batches);
  EXPECT_EQ(R1.ParallelBatches, R8.ParallelBatches);
  EXPECT_GT(R1.ParallelBatches, 0);
  // Floating-point totals must be bit-identical, not just close: the
  // merge barrier fixes the accumulation order.
  EXPECT_EQ(std::memcmp(&R1.Energy, &R8.Energy, sizeof(R1.Energy)), 0);
  ASSERT_EQ(R1.PerNodeJoules.size(), R8.PerNodeJoules.size());
  EXPECT_EQ(std::memcmp(R1.PerNodeJoules.data(), R8.PerNodeJoules.data(),
                        R1.PerNodeJoules.size() * sizeof(double)),
            0);
  EXPECT_EQ(T1.counters(), T8.counters());
  EXPECT_EQ(T1.gauges(), T8.gauges());
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

} // namespace
