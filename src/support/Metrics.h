//===- support/Metrics.h - time-series metrics over Telemetry ------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The time dimension that support/Telemetry lacks: Telemetry aggregates
/// a whole run into one final document, which answers "what did this run
/// cost" but not "what is this *service* doing right now". This layer
/// adds three pieces, all built on the same registry:
///
///  - `LatencyHistogram` — a thread-safe, mergeable log-bucketed latency
///    histogram (same bucket geometry as `DurationDist`, so quantiles
///    carry the same ~3% midpoint error). serve/LoadDriver records every
///    request it issues into one per thread; p50/p95/p99 are read on
///    demand without stopping the writers.
///
///  - `MetricsSnapshotter` — periodically samples a registry's
///    counters/gauges into a bounded window of timestamped snapshots and
///    derives windowed rates (plans/sec, joules/sec) from consecutive
///    samples. Snapshots serialize as JSONL (one object per line — the
///    `uccc monitor` wire format) and as Prometheus text exposition.
///
///  - `FlightRecorder` — watches SLO thresholds (p99 latency, error
///    count) and, on breach, dumps the registry's bounded event ring as a
///    Chrome trace file: the last moments before the incident, captured
///    without tracing overhead in the steady state beyond the ring
///    buffer itself.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_METRICS_H
#define UCC_SUPPORT_METRICS_H

#include "support/Telemetry.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

namespace ucc {

/// Thread-safe log-bucketed latency histogram. Buckets are the
/// `DurationDist` geometry (16 linear sub-buckets per octave) held in a
/// dense atomic array so `record` is wait-free: one bucket increment plus
/// count/sum/min/max updates, all relaxed — the histogram is a
/// statistical instrument, not a synchronization point. Readers get a
/// consistent-enough view for monitoring; exact totals settle once
/// writers stop.
class LatencyHistogram {
public:
  LatencyHistogram();

  /// Records one latency observation (non-positive values land in the
  /// underflow bucket but still count).
  void record(double Seconds);

  uint64_t count() const;
  /// Smallest / largest recorded value, exact (0 when empty).
  double minSeconds() const;
  double maxSeconds() const;
  /// Mean of all recorded values, exact up to nanosecond rounding.
  double meanSeconds() const;
  /// Quantile \p Q in [0,1] from the bucket histogram, clamped to the
  /// exact [min, max] envelope (0 when empty).
  double quantileSeconds(double Q) const;

  /// Folds \p Other into this histogram (bucket-wise sum; min/max/count
  /// combine exactly).
  void merge(const LatencyHistogram &Other);

  /// Returns to the empty state. Not atomic with respect to concurrent
  /// writers — callers quiesce or tolerate a torn window boundary.
  void reset();

private:
  std::atomic<uint32_t> Buckets[DurationDist::NumBuckets];
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> SumNanos{0};
  std::atomic<uint64_t> MinNanos{UINT64_MAX};
  std::atomic<uint64_t> MaxNanos{0};
};

/// One timestamped sample of a registry's aggregate state.
struct MetricsSnapshot {
  double TsSeconds = 0.0; ///< seconds since the snapshotter's epoch
  std::map<std::string, int64_t> Counters;
  std::map<std::string, double> Gauges;
};

/// Samples a Telemetry registry into a bounded window of snapshots and
/// derives rates between consecutive samples. Single-threaded like the
/// registry it watches: the serving loop (or bench harness) calls
/// `sample()` at phase boundaries or on a cadence and appends
/// `lastJsonLine()` to the metrics file that `uccc monitor` tails.
class MetricsSnapshotter {
public:
  /// Watches \p T, keeping the most recent \p WindowCapacity snapshots.
  explicit MetricsSnapshotter(const Telemetry &T, size_t WindowCapacity = 128);

  /// Takes a snapshot stamped with the wall clock (seconds since the
  /// snapshotter was constructed) and returns it.
  const MetricsSnapshot &sample();
  /// Same with an injected timestamp — deterministic tests and replay.
  const MetricsSnapshot &sample(double NowSeconds);

  /// The retained window, oldest first.
  const std::deque<MetricsSnapshot> &window() const { return Window; }

  /// Rate of counter \p Name between the two most recent samples, in
  /// units/second (0 with fewer than two samples or a non-advancing
  /// clock).
  double rate(const std::string &Name) const;
  /// Same over the whole retained window (first to last sample).
  double windowRate(const std::string &Name) const;

  /// The newest snapshot as one compact JSON line:
  /// {"ts":..,"counters":{..},"gauges":{..},"rates":{..}} where `rates`
  /// holds per-second deltas for every counter that moved since the
  /// previous sample. Empty string before the first sample.
  std::string lastJsonLine() const;

  /// The newest snapshot as Prometheus text exposition: counters as
  /// `# TYPE ucc_<name> counter`, gauges as gauges; dots in metric names
  /// become underscores. Empty string before the first sample.
  std::string toPrometheus() const;

private:
  const Telemetry &Reg;
  size_t Capacity;
  std::deque<MetricsSnapshot> Window;
  double EpochSteadySeconds;
};

/// SLO thresholds and dump policy for the flight recorder. A threshold
/// left at its default is not checked.
struct SloConfig {
  double P99LatencyUs = 0.0; ///< breach when observed p99 exceeds this (>0)
  int64_t MaxErrors = -1;    ///< breach when error count exceeds this (>=0)
  std::string TracePath;     ///< where breach dumps go (required to dump)
  double CooldownSeconds = 5.0; ///< minimum spacing between dumps
  int MaxDumps = 3;             ///< lifetime dump cap
};

/// Watches SLO thresholds against a registry whose event ring is the
/// flight-recording buffer. `check` is called from the serving loop with
/// current observed values; on breach it snapshots the ring to
/// `Cfg.TracePath` (Chrome trace format) so the events leading up to the
/// breach survive for offline triage.
class FlightRecorder {
public:
  FlightRecorder(const Telemetry &T, SloConfig Cfg);

  /// Evaluates the thresholds; dumps and returns true when a breach
  /// fires (respecting cooldown and the lifetime cap). \p NowSeconds is
  /// any monotonically advancing clock.
  bool check(double P99Us, int64_t Errors, double NowSeconds);

  /// Breaches observed (including ones that hit the cooldown/cap and did
  /// not dump).
  int64_t breaches() const { return Breaches; }
  /// Dumps actually written.
  int dumps() const { return Dumps; }

private:
  const Telemetry &Reg;
  SloConfig Cfg;
  int64_t Breaches = 0;
  int Dumps = 0;
  double LastDumpSeconds = 0.0;
  bool EverDumped = false;
};

} // namespace ucc

#endif // UCC_SUPPORT_METRICS_H
