//===- bench/BenchUtil.h - shared helpers for the experiment harness ------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure bench binaries: compile/recompile
/// wrappers over the update-case table, cycle measurement via the
/// simulator, and the BenchHarness that gives every bench a uniform
/// reporting surface (trace JSON, Chrome trace events, and the headline
/// metric report that `ucc-report` aggregates into BENCH.json). Benches
/// print tables to stdout (they are reporting tools, so the no-iostream
/// library rule does not apply to them).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_BENCH_BENCHUTIL_H
#define UCC_BENCH_BENCHUTIL_H

#include "core/Compiler.h"
#include "sim/Simulator.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace uccbench {

/// The uniform per-bench harness. Every bench constructs one at the top
/// of main() with its argv and a stable bench name, then feeds its
/// headline metrics in as it prints its table. On destruction the
/// harness writes whatever outputs were requested.
///
/// Flags (each with an environment-variable fallback so both hermetic
/// invocation by `ucc-report` and ad-hoc shell loops work):
///
///   --trace-json <file>    aggregate telemetry JSON   (UCC_TRACE_JSON)
///   --trace-events <file>  Chrome trace-event JSON    (UCC_TRACE_EVENTS)
///   --report-json <file>   headline metric report     (UCC_REPORT_JSON)
///   --quick                reduced profile for CI     (UCC_BENCH_QUICK=1)
///   --jobs <n>             worker threads for the sweep (UCC_JOBS;
///                          default hardware concurrency — deterministic
///                          metrics are identical for every value)
///
/// The report document is schema-versioned and is the unit `ucc-report`
/// aggregates (docs/OBSERVABILITY.md):
///
///   {"schema_version":1,"bench":"fig10_dissemination","profile":"full",
///    "metrics":{"diff_inst_ucc_total":57,...}}
///
/// Metric naming: lowercase snake_case. Every metric must be
/// deterministic for a given profile — `ucc-report` gates each one at the
/// baseline's tolerance — so wall-clock timings are printed, not reported.
class BenchHarness {
public:
  BenchHarness(int Argc, char **Argv, const char *BenchName)
      : Name(BenchName) {
    TracePath = optionOrEnv(Argc, Argv, "--trace-json", "UCC_TRACE_JSON");
    EventsPath =
        optionOrEnv(Argc, Argv, "--trace-events", "UCC_TRACE_EVENTS");
    ReportPath =
        optionOrEnv(Argc, Argv, "--report-json", "UCC_REPORT_JSON");
    Quick = hasFlag(Argc, Argv, "--quick") ||
            std::getenv("UCC_BENCH_QUICK") != nullptr;
    std::string JobsArg = optionOrEnv(Argc, Argv, "--jobs", "UCC_JOBS");
    if (!JobsArg.empty() && std::atoi(JobsArg.c_str()) > 0)
      ucc::ThreadPool::setDefaultJobs(std::atoi(JobsArg.c_str()));
    if (!TracePath.empty() || !EventsPath.empty()) {
      T.declareStandardCounters();
      if (!EventsPath.empty())
        T.enableEvents();
      Scope = std::make_unique<ucc::TelemetryScope>(T);
    }
  }

  ~BenchHarness() {
    Scope.reset();
    if (!TracePath.empty())
      writeText(TracePath, T.toJson() + "\n");
    if (!EventsPath.empty())
      writeText(EventsPath, T.toChromeTrace() + "\n");
    if (!ReportPath.empty()) {
      ucc::json::Value Doc = ucc::json::Value::object();
      Doc.set("schema_version", ucc::json::Value::number(1));
      Doc.set("bench", ucc::json::Value::string(Name));
      Doc.set("profile",
              ucc::json::Value::string(Quick ? "quick" : "full"));
      ucc::json::Value MetricsObj = ucc::json::Value::object();
      for (const auto &[MetricName, Value] : Metrics)
        MetricsObj.set(MetricName, ucc::json::Value::number(Value));
      Doc.set("metrics", std::move(MetricsObj));
      writeText(ReportPath, Doc.serialize() + "\n");
    }
  }

  /// Records headline metric \p MetricName (last write wins, insertion
  /// order preserved in the report).
  void metric(const std::string &MetricName, double Value) {
    for (auto &[Existing, Old] : Metrics)
      if (Existing == MetricName) {
        Old = Value;
        return;
      }
    Metrics.emplace_back(MetricName, Value);
  }

  /// True under the reduced `--quick` profile (CI uses it to keep the
  /// regression gate fast; the slow benches shrink their sweeps).
  bool quick() const { return Quick; }

  /// Worker threads for this bench's sweep (`--jobs` / UCC_JOBS /
  /// hardware concurrency). Feed to ucc::parallelFor.
  int jobs() const { return ucc::ThreadPool::defaultJobs(); }

  BenchHarness(const BenchHarness &) = delete;
  BenchHarness &operator=(const BenchHarness &) = delete;

private:
  static std::string optionOrEnv(int Argc, char **Argv, const char *Flag,
                                 const char *Env) {
    for (int K = 1; K + 1 < Argc; ++K)
      if (std::strcmp(Argv[K], Flag) == 0)
        return Argv[K + 1];
    if (const char *V = std::getenv(Env))
      return V;
    return "";
  }

  static bool hasFlag(int Argc, char **Argv, const char *Flag) {
    for (int K = 1; K < Argc; ++K)
      if (std::strcmp(Argv[K], Flag) == 0)
        return true;
    return false;
  }

  static void writeText(const std::string &Path, const std::string &Text) {
    if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
      std::fwrite(Text.data(), 1, Text.size(), F);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "bench: cannot write '%s'\n", Path.c_str());
    }
  }

  std::string Name;
  ucc::Telemetry T;
  std::unique_ptr<ucc::TelemetryScope> Scope;
  std::string TracePath, EventsPath, ReportPath;
  bool Quick = false;
  std::vector<std::pair<std::string, double>> Metrics;
};

/// Wall seconds since \p Start, a steady-clock reading.
inline double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Compiles or dies (benches have no recovery story).
inline ucc::CompileOutput compileOrDie(const std::string &Source,
                                       const ucc::CompileOptions &Opts) {
  ucc::DiagnosticEngine Diag;
  auto Out = ucc::Compiler::compile(Source, Opts, Diag);
  if (!Out) {
    std::fprintf(stderr, "bench: compilation failed:\n%s", Diag.str().c_str());
    std::exit(1);
  }
  return std::move(*Out);
}

inline ucc::CompileOutput recompileOrDie(const std::string &Source,
                                         const ucc::CompilationRecord &Old,
                                         const ucc::CompileOptions &Opts) {
  ucc::DiagnosticEngine Diag;
  auto Out = ucc::Compiler::recompile(Source, Old, Opts, Diag);
  if (!Out) {
    std::fprintf(stderr, "bench: recompilation failed:\n%s",
                 Diag.str().c_str());
    std::exit(1);
  }
  return std::move(*Out);
}

/// Baseline (update-oblivious) options: GCC-RA + GCC-DA.
inline ucc::CompileOptions baselineOptions() {
  ucc::CompileOptions Opts;
  Opts.RA = ucc::RegAllocKind::Baseline;
  Opts.DA = ucc::DataAllocKind::BaselineHash;
  return Opts;
}

/// Update-conscious options: UCC-RA + UCC-DA.
inline ucc::CompileOptions uccOptions(double Cnt = 1000.0) {
  ucc::CompileOptions Opts;
  Opts.RA = ucc::RegAllocKind::UpdateConscious;
  Opts.DA = ucc::DataAllocKind::UpdateConscious;
  Opts.Ucc.Cnt = Cnt;
  return Opts;
}

/// Cycles for a single run of an image (dies on trap).
inline uint64_t cyclesFor(const ucc::BinaryImage &Img) {
  ucc::SimOptions Opts;
  Opts.MaxSteps = 50'000'000;
  ucc::RunResult R = ucc::runImage(Img, Opts);
  if (R.Trapped) {
    std::fprintf(stderr, "bench: simulation trapped: %s\n",
                 R.TrapReason.c_str());
    std::exit(1);
  }
  return R.Cycles;
}

/// One evaluated update: both compilers applied to the same case.
struct CaseResult {
  const ucc::UpdateCase *Case = nullptr;
  int DiffInstBaseline = 0;
  int DiffInstUcc = 0;
  int64_t DiffCycleBaseline = 0;
  int64_t DiffCycleUcc = 0;
  size_t ScriptBytesBaseline = 0;
  size_t ScriptBytesUcc = 0;
  int ReusedBaseline = 0;
  int ReusedUcc = 0;
  int InsertedMovs = 0;
};

/// Runs one update case under both compilers.
inline CaseResult evaluateCase(const ucc::UpdateCase &Case,
                               double Cnt = 1000.0) {
  CaseResult R;
  R.Case = &Case;

  ucc::CompileOutput V1 = compileOrDie(Case.OldSource, baselineOptions());
  uint64_t OldCycles = cyclesFor(V1.Image);

  ucc::CompileOutput VBase =
      recompileOrDie(Case.NewSource, V1.Record, baselineOptions());
  ucc::CompileOutput VUcc =
      recompileOrDie(Case.NewSource, V1.Record, uccOptions(Cnt));

  ucc::ImageUpdate UBase = ucc::makeImageUpdate(V1.Image, VBase.Image);
  ucc::ImageUpdate UUcc = ucc::makeImageUpdate(V1.Image, VUcc.Image);
  ucc::ImageDiff DBase = ucc::diffImages(V1.Image, VBase.Image, UBase);
  ucc::ImageDiff DUcc = ucc::diffImages(V1.Image, VUcc.Image, UUcc);
  R.DiffInstBaseline = DBase.totalDiffInst();
  R.DiffInstUcc = DUcc.totalDiffInst();
  R.ReusedBaseline = DBase.totalMatched();
  R.ReusedUcc = DUcc.totalMatched();

  R.DiffCycleBaseline = static_cast<int64_t>(cyclesFor(VBase.Image)) -
                        static_cast<int64_t>(OldCycles);
  R.DiffCycleUcc = static_cast<int64_t>(cyclesFor(VUcc.Image)) -
                   static_cast<int64_t>(OldCycles);

  R.ScriptBytesBaseline = UBase.scriptBytes();
  R.ScriptBytesUcc = UUcc.scriptBytes();
  for (const ucc::UccAllocStats &S : VUcc.RegAllocStats)
    R.InsertedMovs += S.InsertedMovs;
  return R;
}

} // namespace uccbench

#endif // UCC_BENCH_BENCHUTIL_H
