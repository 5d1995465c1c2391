//===- perfbench/src/main.cpp - the end-to-end update benchmark -----------===//
//
//   perfbench --workload <release-train|plan-storm|fleet-rollout>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--jobs <n>] [--spans <file>] [--ra <gcc|ucc>]
//
// Prints the workload's traffic dimensions as `#` lines, then one JSON
// object as the last line: end-to-end metrics with --trace 0, per-layer
// metrics (from a traced run) with --trace 1. METRICS.md documents every
// metric.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sys/resource.h>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace pb;

namespace {

constexpr rlim_t MemoryCapBytes = rlim_t(1) << 30;

struct Metric {
  std::string Name, Unit;
  double Value;
};

void printResult(const RunOutput &R, bool Correct,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t K = 0; K < Metrics.size(); ++K)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                K ? ", " : "", Metrics[K].Name.c_str(), Metrics[K].Value,
                Metrics[K].Unit.c_str());
  std::printf("}}\n");
}

/// Whether \p Workload measures the ledger metric \p Name (METRICS.md). A
/// metric a workload does not measure is reported as the constant 1, so
/// every workload carries every end-to-end metric.
bool measures(const std::string &Workload, const std::string &Name) {
  if (Workload == "release-train")
    return Name != "radio_joules";
  if (Workload == "fleet-rollout")
    return Name == "script_bytes" || Name == "radio_joules";
  return false;
}

std::vector<Metric> endToEnd(const std::string &Workload, const RunOutput &R) {
  std::vector<double> P50s;
  for (const std::vector<double> &W : R.WindowMs)
    P50s.push_back(quantile(W, 0.5));
  std::vector<Metric> Out = {
      {"setup_s", "s", quantile(R.SetupS, 0.5)},
      {"op_ms_p50", "ms", quantile(P50s, 0.5)},
      {"op_ms_p95", "ms", quantile(R.OpMs, 0.95)},
      {"ops_per_s", "1/s", quantile(R.WindowOpsPerS, 0.5)},
      {"peak_rss_mb", "MB", peakRssMb()}};
  for (Metric M : std::vector<Metric>{
           {"script_bytes", "bytes", R.L.ScriptBytes},
           {"diff_energy_mj", "mJ", R.L.UccDiffEnergyJ * 1e3},
           {"radio_joules", "J", R.L.RadioJoules}}) {
    if (!measures(Workload, M.Name))
      M.Value = 1;
    Out.push_back(M);
  }
  return Out;
}

/// Per-layer metrics, with their units (METRICS.md).
std::vector<Metric> perLayer(const RunOutput &R, bool UccRa) {
  static const std::pair<const char *, const char *> Names[] = {
      {"core.commit_ms_p50", "ms"},
      {"core.compile_cache_hit_ratio", "ratio"},
      {"core.self_ms", "ms"},
      {"frontend.parse_s", "s"},
      {"opt.opt_s", "s"},
      {"codegen.isel_s", "s"},
      {"codegen.encode_s", "s"},
      {"regalloc.ra_s", "s"},
      {"dataalloc.da_s", "s"},
      {"dataalloc.relocated_vars", "count"},
      {"dataalloc.hole_words", "count"},
      {"diff.self_ms", "ms"},
      {"diff.align_s", "s"},
      {"diff.compositions", "count"},
      {"diff.fallback_blocks", "count"},
      {"diff.apply_ms_p50", "ms"},
      {"serve.self_ms", "ms"},
      {"serve.plan_us_p50", "us"},
      {"serve.hit_ratio", "ratio"},
      {"serve.inflight_waits", "count"},
      {"serve.evictions", "count"},
      {"net.self_ms", "ms"},
      {"net.flood_ms_p50", "ms"},
      {"net.events_per_s", "1/s"},
      {"net.events", "count"},
      {"net.collisions", "count"},
      {"net.retx_ratio", "ratio"},
      {"net.requests", "count"},
      {"sim.run_ms_p50", "ms"},
      {"sim.cycles", "count"},
      {"support.trace_overhead_pct", "%"},
      {"bench.other_ms", "ms"},
      {"bench.unmapped_ms", "ms"},
      {"bench.op_ms_mean", "ms"},
      {"bench.accounted_pct", "%"},
      {"bench.ops_failed_ratio", "ratio"}};
  // Only UCC-RA and its ILP feed these; under GCC-RA they are always 0.
  static const std::pair<const char *, const char *> UccRaNames[] = {
      {"lp.ilp_s", "s"},
      {"lp.pivots", "count"},
      {"lp.bb_nodes", "count"},
      {"lp.ilp_timeouts", "count"},
      {"regalloc.ilp_windows", "count"},
      {"regalloc.window_cache_hit_ratio", "ratio"},
      {"regalloc.pref_honored_ratio", "ratio"},
      {"regalloc.inserted_movs", "count"},
      {"regalloc.spilled_vregs", "count"}};
  std::vector<Metric> Out;
  auto add = [&](const char *Name, const char *Unit) {
    auto It = R.Layer.find(Name);
    Out.push_back({Name, Unit, It == R.Layer.end() ? 0.0 : It->second});
  };
  for (const auto &[Name, Unit] : Names)
    add(Name, Unit);
  if (UccRa)
    for (const auto &[Name, Unit] : UccRaNames)
      add(Name, Unit);
  return Out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <release-train|plan-storm|"
               "fleet-rollout> --seed <n> --seconds <s> --trace <0|1> "
               "[--jobs <n>] [--spans <file>] [--ra <gcc|ucc>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  const int Hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  int Jobs = 0;
  std::string SpansPath;
  for (int K = 1; K + 1 < Argc; K += 2) {
    std::string Flag = Argv[K], Val = Argv[K + 1];
    if (Flag == "--workload")
      C.Workload = Val;
    else if (Flag == "--seed")
      C.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      C.Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      C.Trace = Val == "1";
    else if (Flag == "--jobs")
      Jobs = std::atoi(Val.c_str());
    else if (Flag == "--spans")
      SpansPath = Val;
    else if (Flag == "--ra" && (Val == "gcc" || Val == "ucc"))
      C.UccRa = Val == "ucc";
    else
      return usage();
  }
  if (C.Seconds <= 0 || (C.Workload != "release-train" &&
                         C.Workload != "plan-storm" &&
                         C.Workload != "fleet-rollout"))
    return usage();

  // Thread counts are pinned, never left to the library's defaults: library
  // calls run serially (the serve workload's parallelism is its client
  // threads). A 2000-node flood is one region of the event simulator, which
  // splits a fleet only from 8192 nodes, so more workers would sit idle.
  C.Jobs = std::clamp(Jobs > 0 ? Jobs : 1, 1, Hardware);
  ucc::ThreadPool::setDefaultJobs(C.Jobs);

  // A run must never take the host down with it: cap the address space so
  // a runaway allocation fails the run instead of exhausting memory.
  struct rlimit Cap = {MemoryCapBytes, MemoryCapBytes};
  setrlimit(RLIMIT_AS, &Cap);

  RunOutput R;
  try {
    if (C.Workload == "release-train")
      R = runReleaseTrain(C);
    else if (C.Workload == "plan-storm")
      R = runPlanStorm(C);
    else
      R = runFleetRollout(C);
  } catch (const std::exception &E) {
    // A library failure the workload could not get past (a set-up commit
    // that fails or runs out of memory): the run reports itself incorrect.
    std::printf("# run aborted: %s\n", E.what());
    R = RunOutput();
    R.Attempted = R.Failed = 1;
  }

  double FailedRatio = R.Attempted ? static_cast<double>(R.Failed) /
                                         static_cast<double>(R.Attempted)
                                   : 1.0;
  R.Layer["bench.ops_failed_ratio"] = FailedRatio;
  bool Correct = R.Attempted > 0 && R.Failed == 0 && R.SelfCheckFlagged;
  size_t Ops = R.OpMs.size() + R.TracedOpMs.size();
  std::printf("# jobs=%d ops=%zu untraced_samples=%zu traced_samples=%zu "
              "windows=%zu setup_reps=%zu failed=%llu "
              "corrupted_image_flagged=%s\n",
              C.Jobs, Ops, R.OpMs.size(), R.TracedOpMs.size(),
              R.WindowMs.size(), R.SetupS.size(),
              static_cast<unsigned long long>(R.Failed),
              R.SelfCheckFlagged ? "yes" : "NO");
  // eq. 19 is printed, not gated: a signed percentage that can sit near 0
  // takes no relative bound (METRICS.md).
  if (!C.Trace && measures(C.Workload, "diff_energy_mj"))
    std::printf("# energy_savings_pct=%.17g\n",
                R.L.GccDiffEnergyJ != 0
                    ? (R.L.GccDiffEnergyJ - R.L.UccDiffEnergyJ) /
                          R.L.GccDiffEnergyJ * 100
                    : 0.0);
  if (!SpansPath.empty() && C.Trace)
    writeSpans(R.Spans, SpansPath);
  printResult(R, Correct, C.Trace ? perLayer(R, C.UccRa) : endToEnd(C.Workload, R));
  return 0;
}
