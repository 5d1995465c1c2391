//===- tests/EnergyNetworkTest.cpp - energy model and dissemination -------===//

#include "energy/EnergyModel.h"
#include "net/EventSim.h"
#include "net/Network.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace ucc;

namespace {

TEST(Energy, PerCycleFromFig3Currents) {
  EnergyModel Model;
  // 8.0 mA x 3 V / 7.3728 MHz.
  EXPECT_NEAR(Model.energyPerCycle(), 8.0e-3 * 3.0 / 7.3728e6, 1e-15);
}

TEST(Energy, BitCostsThousandInstructions) {
  EnergyModel Model;
  EXPECT_NEAR(Model.energyPerBit() / Model.instrExecutionEnergy(), 1000.0,
              1e-9);
  // A 32-bit instruction word costs 32,000 ALU instructions to ship.
  EXPECT_NEAR(Model.instrTransmissionEnergy() / Model.energyPerCycle(),
              32000.0, 1e-6);
}

TEST(Energy, DiffEnergyEquation18) {
  EnergyModel Model;
  double DiffInst = 10, DiffCycle = 5, Cnt = 100;
  EXPECT_NEAR(Model.diffEnergy(DiffInst, DiffCycle, Cnt),
              DiffInst * Model.instrTransmissionEnergy() +
                  DiffCycle * Model.energyPerCycle() * Cnt,
              1e-18);
}

TEST(Energy, SavingsEquation19SignConventions) {
  EnergyModel Model;
  // UCC ships 5 fewer instructions but runs 1 cycle slower.
  double Savings = Model.energySavings(10, 0, 5, 1, /*Cnt=*/1000);
  EXPECT_GT(Savings, 0.0);
  // At enormous Cnt the extra cycle dominates.
  double HotSavings = Model.energySavings(10, 0, 5, 1, /*Cnt=*/1e9);
  EXPECT_LT(HotSavings, 0.0);
}

TEST(Energy, BreakEvenMatchesSection21Arithmetic) {
  EnergyModel Model;
  // One instruction word = 32 bits x 1000 instructions/bit.
  EXPECT_NEAR(Model.breakEvenExecutions(1.0, 1.0), 32000.0, 1e-6);
  EXPECT_TRUE(std::isinf(Model.breakEvenExecutions(1.0, 0.0)));
}

TEST(Energy, PowerTableListsFig3Modes) {
  std::string Table = EnergyModel::powerTable();
  EXPECT_NE(Table.find("CPU active"), std::string::npos);
  EXPECT_NE(Table.find("8.0 mA"), std::string::npos);
  EXPECT_NE(Table.find("21.5 mA"), std::string::npos);
  EXPECT_NE(Table.find("EEPROM write"), std::string::npos);
}

TEST(Network, LineTopologyDistances) {
  Topology T = Topology::line(5);
  std::vector<int> D = T.hopDistances();
  EXPECT_EQ(D, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Network, GridTopologyDistances) {
  Topology T = Topology::grid(3, 3);
  std::vector<int> D = T.hopDistances();
  EXPECT_EQ(D[0], 0);
  EXPECT_EQ(D[8], 4); // opposite corner: 2 + 2 hops
}

TEST(Network, StarIsOneHop) {
  Topology T = Topology::star(10);
  std::vector<int> D = T.hopDistances();
  for (int K = 1; K < 10; ++K)
    EXPECT_EQ(D[static_cast<size_t>(K)], 1);
}

TEST(Network, PacketizationRoundsUp) {
  PacketFormat Fmt;
  Fmt.PayloadBytes = 24;
  Fmt.HeaderBytes = 8;
  EXPECT_EQ(Fmt.packetsFor(0), 0);
  EXPECT_EQ(Fmt.packetsFor(1), 1);
  EXPECT_EQ(Fmt.packetsFor(24), 1);
  EXPECT_EQ(Fmt.packetsFor(25), 2);
  EXPECT_EQ(Fmt.bytesOnAir(25), 25u + 2u * 8u);
}

TEST(Network, EveryNonSinkNodeReceivesOnce) {
  Topology T = Topology::line(10);
  FleetResult R = simulateFlood(T, 100);
  // An ideal channel: each node assembles the script from the one burst
  // of its upstream neighbor, and every node except the last forwards.
  EXPECT_EQ(R.NodesComplete, 10);
  EXPECT_EQ(R.Retransmissions, 0);
  EXPECT_EQ(R.FailedPackets, 0);
  double PacketBits = static_cast<double>(R.BytesOnAir) * 8.0 / R.Packets;
  double RxScript =
      PacketBits * Mica2Power().radioRxEnergyPerBit() * R.Packets;
  for (int Node = 1; Node < 10; ++Node)
    EXPECT_GE(R.PerNodeJoules[static_cast<size_t>(Node)], RxScript * 0.999);
  EXPECT_EQ(R.Transmitters, 9); // nodes 0..8 cover their next neighbor
  EXPECT_EQ(R.MaxHops, 9);
}

TEST(Network, EnergyScalesWithScriptSize) {
  Topology T = Topology::grid(8, 8);
  FleetResult Small = simulateFlood(T, 50);
  FleetResult Large = simulateFlood(T, 500);
  EXPECT_GT(Large.totalJoules(), Small.totalJoules() * 5.0);
}

TEST(Network, StarCheaperThanLineForSameScript) {
  FleetResult Line = simulateFlood(Topology::line(64), 200);
  FleetResult Star = simulateFlood(Topology::star(64), 200);
  // The star has one transmitter; the line has 63.
  EXPECT_EQ(Star.Transmitters, 1);
  EXPECT_LT(Star.Energy.TxJoules, Line.Energy.TxJoules);
}

TEST(Network, PerfectChannelHasNoRetransmissions) {
  FleetResult R = simulateFlood(Topology::line(20), 300);
  EXPECT_EQ(R.Retransmissions, 0);
  EXPECT_EQ(R.FailedPackets, 0);
}

TEST(Network, LossyChannelCostsRetransmissionEnergy) {
  FleetConfig Lossy;
  Lossy.Link.LossRate = 0.5;
  FleetResult A = simulateFlood(Topology::line(20), 300);
  FleetResult B = simulateFlood(Topology::line(20), 300, Lossy);
  EXPECT_GT(B.Retransmissions, 0);
  EXPECT_GT(B.Energy.TxJoules, A.Energy.TxJoules * 1.5)
      << "50% loss should at least half again the transmission energy";
  EXPECT_GT(B.Energy.RxJoules, A.Energy.RxJoules)
      << "every neighbor in range hears the repeat bursts";
}

TEST(Network, LossyChannelIsDeterministicPerSeed) {
  FleetConfig Lossy;
  Lossy.Link.LossRate = 0.3;
  FleetResult A = simulateFlood(Topology::grid(6, 6), 500, Lossy);
  FleetResult B = simulateFlood(Topology::grid(6, 6), 500, Lossy);
  EXPECT_EQ(A.Retransmissions, B.Retransmissions);
  EXPECT_DOUBLE_EQ(A.totalJoules(), B.totalJoules());
}

TEST(Network, HopelessChannelReportsFailures) {
  // Loss clamps at 0.999: the bursts and pull requests run out long
  // before the far nodes hold the script.
  FleetConfig Awful;
  Awful.Link.LossRate = 1.0;
  FleetResult R = simulateFlood(Topology::line(3), 100, Awful);
  EXPECT_GT(R.NodesIncomplete, 0);
  EXPECT_GT(R.FailedPackets, 0);
}

TEST(Network, DisconnectedNodesSpendNothing) {
  Topology T;
  T.NumNodes = 3;
  T.Neighbors = {{1}, {0}, {}}; // node 2 unreachable
  FleetResult R = simulateFlood(T, 64);
  EXPECT_EQ(R.PerNodeJoules[2], 0.0);
  EXPECT_EQ(R.NodesIncomplete, 1);
}

TEST(Network, HopDistancesMarkDisconnectedComponents) {
  Topology T;
  T.NumNodes = 6;
  // 0-1-2 reachable; 3-4 an island; 5 fully isolated.
  T.Neighbors = {{1}, {0, 2}, {1}, {4}, {3}, {}};
  std::vector<int> Dist = T.hopDistances();
  EXPECT_EQ(Dist, (std::vector<int>{0, 1, 2, -1, -1, -1}));
}

TEST(Network, HopDistancesOnEmptyTopology) {
  Topology T;
  EXPECT_TRUE(T.hopDistances().empty());
}

// The satellite fix: a non-positive payload (or negative header) must not
// divide by zero or fabricate negative packet counts — it clamps and
// bumps net.bad_packet_format.
TEST(Network, PacketFormatClampsInvalidSizes) {
  Telemetry Tel;
  TelemetryScope Scope(Tel);

  PacketFormat ZeroPayload;
  ZeroPayload.PayloadBytes = 0;
  EXPECT_EQ(ZeroPayload.packetsFor(5), 5); // one byte per packet
  EXPECT_EQ(Tel.counter("net.bad_packet_format"), 1);

  PacketFormat NegativePayload;
  NegativePayload.PayloadBytes = -24;
  EXPECT_EQ(NegativePayload.packetsFor(3), 3);

  PacketFormat NegativeHeader;
  NegativeHeader.HeaderBytes = -8;
  EXPECT_EQ(NegativeHeader.bytesOnAir(100), 100u); // header clamped to 0

  // A valid format never touches the counter.
  int64_t Before = Tel.counter("net.bad_packet_format");
  PacketFormat Ok;
  EXPECT_EQ(Ok.packetsFor(100), 5);
  EXPECT_EQ(Tel.counter("net.bad_packet_format"), Before);

  // And a flood over a broken format survives end to end.
  FleetConfig Cfg;
  Cfg.Fmt = ZeroPayload;
  int64_t BeforeFlood = Tel.counter("net.bad_packet_format");
  FleetResult R = simulateFlood(Topology::line(3), 64, Cfg);
  EXPECT_EQ(R.Packets, 64);
  EXPECT_EQ(R.NodesIncomplete, 0);
  EXPECT_GT(R.totalJoules(), 0.0);
  EXPECT_GT(Tel.counter("net.bad_packet_format"), BeforeFlood);
}

} // namespace
