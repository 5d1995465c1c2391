//===- bench/bench_fleet_scale.cpp - event simulator at fleet scale -------===//
//
// Scales the discrete-event dissemination engine (net/EventSim) far past
// the workload topologies: line and grid fleets from 1k nodes up to 100k
// in the quick profile and 1M in the full profile, under ideal channels,
// lossy contended channels, and duty cycling. Reports events/sec, wall
// time, and joules per scenario, and hard-fails unless a 100k-node run is
// byte-identical between 1 worker and 8 workers (results, per-node
// joules, and every net.* counter/gauge) — the parallel determinism
// contract of docs/NETWORK.md.
//
// Deterministic metrics (completion, transmitters, retransmissions,
// collisions, event counts, joules) gate against baseline.json;
// `_seconds` metrics are wall-clock and excluded.
//
// `--smoke` runs one small lossy/duty-cycled scenario with the parallel
// path forced on and exits — CI drives it under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "net/EventSim.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

using namespace ucc;
using namespace uccbench;

namespace {

/// A contended fleet: moderate loss, CSMA on, short duty cycle.
FleetConfig harshConfig() {
  FleetConfig Cfg;
  Cfg.Link.LossRate = 0.2;
  Cfg.Link.LossJitter = 0.1;
  Cfg.Duty.PeriodSeconds = 0.1;
  Cfg.Duty.OnFraction = 0.5;
  Cfg.Mac.MaxBursts = 6;
  return Cfg;
}

/// The 100k-node determinism gate scenario (also a headline datapoint).
FleetConfig fleet100kConfig() {
  FleetConfig Cfg;
  Cfg.Link.LossRate = 0.05;
  Cfg.Mac.MaxBursts = 4;
  Cfg.Seed = 1234;
  return Cfg;
}

bool sameResult(const FleetResult &A, const FleetResult &B) {
  return A.Packets == B.Packets && A.BytesOnAir == B.BytesOnAir &&
         A.MaxHops == B.MaxHops && A.Transmitters == B.Transmitters &&
         A.NodesComplete == B.NodesComplete &&
         A.NodesIncomplete == B.NodesIncomplete &&
         A.Retransmissions == B.Retransmissions &&
         A.FailedPackets == B.FailedPackets &&
         A.Collisions == B.Collisions && A.Backoffs == B.Backoffs &&
         A.SleepDeferrals == B.SleepDeferrals &&
         A.SleepMisses == B.SleepMisses && A.Overheard == B.Overheard &&
         A.Beacons == B.Beacons && A.Requests == B.Requests &&
         A.EventsProcessed == B.EventsProcessed && A.Batches == B.Batches &&
         A.ParallelBatches == B.ParallelBatches &&
         std::memcmp(&A.Energy, &B.Energy, sizeof(A.Energy)) == 0 &&
         A.PerNodeJoules.size() == B.PerNodeJoules.size() &&
         std::memcmp(A.PerNodeJoules.data(), B.PerNodeJoules.data(),
                     A.PerNodeJoules.size() * sizeof(double)) == 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int K = 1; K < Argc; ++K)
    if (std::strcmp(Argv[K], "--smoke") == 0)
      Smoke = true;

  BenchHarness Bench(Argc, Argv, "fleet_scale");

  if (Smoke) {
    // One small contended scenario with the fan-out forced on; run it
    // under TSan with UCC_JOBS > 1 to race-check the region workers.
    FleetConfig Cfg = harshConfig();
    Cfg.Regions = 8;
    Cfg.ParallelThreshold = 1;
    FleetResult R = simulateFlood(Topology::grid(16, 16), 300, Cfg);
    std::printf("smoke: %d/%d complete, %lld events, %lld parallel "
                "batches\n", R.NodesComplete, 256,
                static_cast<long long>(R.EventsProcessed),
                static_cast<long long>(R.ParallelBatches));
    return R.NodesComplete == 256 && R.ParallelBatches > 0 ? 0 : 1;
  }

  const size_t ScriptBytes = 256;
  std::printf("Fleet-scale dissemination: %s profile, script %zu B\n\n",
              Bench.quick() ? "quick" : "full", ScriptBytes);
  std::printf("%-14s %9s %9s %11s %11s %9s %12s\n", "scenario", "nodes",
              "complete", "events", "events/s", "wall s", "joules");

  auto RunOne = [&](const char *Name, const Topology &T,
                    const FleetConfig &Cfg) {
    auto Start = std::chrono::steady_clock::now();
    FleetResult R = simulateFlood(T, ScriptBytes, Cfg);
    double Sec = secondsSince(Start);
    double Eps = Sec > 0 ? static_cast<double>(R.EventsProcessed) / Sec : 0;
    std::printf("%-14s %9d %9d %11lld %11.0f %9.3f %12.4f\n", Name,
                T.NumNodes, R.NodesComplete,
                static_cast<long long>(R.EventsProcessed), Eps, Sec,
                R.totalJoules());
    std::string Tag = Name;
    Bench.metric(Tag + "_nodes_complete",
                 static_cast<double>(R.NodesComplete));
    Bench.metric(Tag + "_transmitters", static_cast<double>(R.Transmitters));
    Bench.metric(Tag + "_retransmissions",
                 static_cast<double>(R.Retransmissions));
    Bench.metric(Tag + "_collisions", static_cast<double>(R.Collisions));
    Bench.metric(Tag + "_events", static_cast<double>(R.EventsProcessed));
    Bench.metric(Tag + "_batches", static_cast<double>(R.Batches));
    Bench.metric(Tag + "_joules", R.totalJoules());
    Bench.metric(Tag + "_wall_seconds", Sec);
    return R;
  };

  RunOne("line1k", Topology::line(1000), FleetConfig());
  RunOne("grid1k_ideal", Topology::grid(32, 32), FleetConfig());
  RunOne("grid1k_harsh", Topology::grid(32, 32), harshConfig());
  // A single-hop fleet of 100k leaves: one burst, giant event batches —
  // the best case for the parallel region workers.
  RunOne("star100k", Topology::star(100'000), FleetConfig());

  // The 100k-node multi-hop run doubles as the determinism gate: jobs 1
  // and jobs 8 must produce byte-identical results and telemetry.
  Topology Grid100k = Topology::grid(317, 317);
  FleetConfig Jobs1 = fleet100kConfig();
  Jobs1.Jobs = 1;
  FleetConfig Jobs8 = fleet100kConfig();
  Jobs8.Jobs = 8;

  Telemetry T1, T8;
  FleetResult R1, R8;
  double Sec8 = 0.0;
  {
    TelemetryScope Scope(T1);
    R1 = simulateFlood(Grid100k, ScriptBytes, Jobs1);
  }
  {
    TelemetryScope Scope(T8);
    auto Start = std::chrono::steady_clock::now();
    R8 = simulateFlood(Grid100k, ScriptBytes, Jobs8);
    Sec8 = secondsSince(Start);
  }
  double Eps = Sec8 > 0 ? static_cast<double>(R8.EventsProcessed) / Sec8 : 0;
  std::printf("%-14s %9d %9d %11lld %11.0f %9.3f %12.4f\n", "grid100k",
              Grid100k.NumNodes, R8.NodesComplete,
              static_cast<long long>(R8.EventsProcessed), Eps, Sec8,
              R8.totalJoules());

  if (!sameResult(R1, R8) || T1.counters() != T8.counters() ||
      T1.gauges() != T8.gauges()) {
    std::fprintf(stderr, "bench_fleet_scale: jobs 1 vs 8 are NOT "
                         "byte-identical on grid100k\n");
    return 1;
  }
  std::printf("%-14s jobs 1 vs 8 byte-identical (results + net.* "
              "telemetry)\n", "grid100k");

  Bench.metric("grid100k_nodes_complete",
               static_cast<double>(R8.NodesComplete));
  Bench.metric("grid100k_transmitters",
               static_cast<double>(R8.Transmitters));
  Bench.metric("grid100k_retransmissions",
               static_cast<double>(R8.Retransmissions));
  Bench.metric("grid100k_collisions", static_cast<double>(R8.Collisions));
  Bench.metric("grid100k_events",
               static_cast<double>(R8.EventsProcessed));
  Bench.metric("grid100k_batches", static_cast<double>(R8.Batches));
  Bench.metric("grid100k_parallel_batches",
               static_cast<double>(R8.ParallelBatches));
  Bench.metric("grid100k_joules", R8.totalJoules());
  Bench.metric("grid100k_wall_seconds", Sec8);
  Bench.metric("grid100k_jobs_identical", 1.0);

  if (!Bench.quick()) {
    FleetConfig MillionCfg;
    MillionCfg.Link.LossRate = 0.02;
    RunOne("grid1m", Topology::grid(1000, 1000), MillionCfg);
  }
  return 0;
}
