//===- perfbench/src/Bench.h - shared pieces of the update benchmark ------===//
//
// Run configuration, the per-run result every workload fills, the
// benchmark's own spans (the traced run), per-layer attribution over the
// library's telemetry span tree, and the correctness checks that do not
// rely on the compiler under test.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Firmware.h"

#include "codegen/BinaryImage.h"
#include "core/Compiler.h"
#include "core/VersionStore.h"
#include "net/EventSim.h"
#include "sim/Simulator.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

/// Operations whose deterministic sums make the ledger; every run performs
/// at least this many operations, so the ledger covers the same updates
/// whatever the host speed.
constexpr int LedgerOps = 200;

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Jobs = 1;        ///< worker threads inside library calls
  /// Commit with UCC-RA (Hybrid) instead of GCC-RA. Off by default: the
  /// library's UCC-RA miscompiles this benchmark's firmware (METRICS.md),
  /// so its runs fail their checks until the allocator is fixed.
  bool UccRa = false;
};

inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> V, double Q);

/// The deterministic accounting of a set of updates (eq. 18/19 and the
/// bytes and joules of shipping them). Each workload fills only the parts
/// METRICS.md assigns to it.
struct Ledger {
  double ScriptBytes = 0;
  double UccDiffEnergyJ = 0;  ///< eq. 18 of the committed images
  double GccDiffEnergyJ = 0;  ///< eq. 18 under the GCC-RA counterfactual
  double RadioJoules = 0;
};

/// One benchmark span: a timed call into a library layer's public entry
/// point. Spans of one operation share Op; Parent indexes the recorder.
struct SpanRec {
  const char *Name;
  double Start = 0, End = 0;
  int Parent = -1;
  uint64_t Op = 0;
};

/// What one run of a workload produced.
struct RunOutput {
  std::vector<double> SetupS;      ///< one entry per set-up repetition
  std::vector<double> OpMs;        ///< untraced operation latencies
  std::vector<double> TracedOpMs;  ///< traced operation latencies
  /// Untraced latencies split into consecutive windows of the run, and
  /// the throughput of each window: op_ms_p50 and ops_per_s are medians
  /// over windows, so a passing stall on a shared host moves one window
  /// rather than the whole figure.
  std::vector<std::vector<double>> WindowMs;
  std::vector<double> WindowOpsPerS;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool SelfCheckFlagged = false;   ///< the corrupted image was caught
  Ledger L;
  std::map<std::string, double> Layer; ///< per-layer metrics (traced run)
  std::vector<SpanRec> Spans;          ///< the traced run's spans
};

RunOutput runReleaseTrain(const Config &C);
RunOutput runPlanStorm(const Config &C);
RunOutput runFleetRollout(const Config &C);

//===----------------------------------------------------------------------===//
// Traced run: the benchmark's own spans
//===----------------------------------------------------------------------===//

/// Splits a sequential run's untraced latencies into windows of \p Chunk
/// operations; a window's throughput is its operations over its busy time.
void chunkWindows(RunOutput &Out, size_t Chunk);

/// Per-thread, in-memory span store; threads' recorders are merged after
/// the join and written out when the run ends.
struct Recorder {
  std::vector<SpanRec> Spans;
  int Open = -1;
  uint64_t Op = 0;
  ucc::Telemetry Tel; ///< library spans and counters nest under ours
};

/// The recorder of the current thread while a traced operation runs.
Recorder *&currentRecorder();

/// RAII span around one public call; a single branch when not tracing.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Recorder *R;
  int Idx = -1;
};

/// Makes \p R (or nobody, when null) the thread's recorder and installs
/// its telemetry registry for the lifetime of the scope.
class TraceScope {
public:
  TraceScope(Recorder *R, uint64_t Op);
  ~TraceScope();
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

private:
  Recorder *Prev;
  std::unique_ptr<ucc::TelemetryScope> Scope;
};

/// Durations (ms) of every recorded span named \p Name.
std::vector<double> spanMs(const std::vector<SpanRec> &Spans,
                           const char *Name);

/// Per-layer metrics from the merged registry and spans of \p TracedOps
/// traced operations: each layer's self time per operation, the counters
/// and ratios the metrics doc lists, and the attribution check.
void attributeLayers(const Recorder &Merged, int TracedOps,
                     const std::vector<double> &TracedOpMs,
                     const std::vector<double> &UntracedOpMs,
                     std::map<std::string, double> &Layer);

/// Writes the spans as JSON lines to \p Path (best effort).
void writeSpans(const std::vector<SpanRec> &Spans, const std::string &Path);

//===----------------------------------------------------------------------===//
// Correctness and accounting
//===----------------------------------------------------------------------===//

/// Options of every commit: UCC-DA with GCC-RA, or with UCC-RA (Hybrid)
/// when \p UccRa.
ucc::CompileOptions commitOptions(bool UccRa, int Jobs);
/// The GCC-RA + GCC-DA counterfactual.
ucc::CompileOptions gccOptions(int Jobs);

/// The lossy, CSMA, duty-cycled radio every flood uses.
ucc::FleetConfig fleetConfig(uint64_t Seed, int Jobs);

/// The simulator's view of an image, checked to have halted cleanly.
struct SimView {
  bool Ok = false;
  uint64_t Cycles = 0;
  Observed Obs;
};
SimView simulate(const ucc::BinaryImage &Img);

inline bool sameBytes(const ucc::BinaryImage &A, const ucc::BinaryImage &B) {
  return A.serialize() == B.serialize();
}

/// The per-release check: the patched image is byte-identical to the
/// stored one, its simulator trace matches the reference evaluator on the
/// release's model, and the GCC-RA image behaves the same. Fills the
/// cycle counts for the ledger. With \p SimRec the simulator runs are
/// traced into it (under a `check` root, outside any operation).
struct ReleaseCheck {
  bool Ok = false;
  const char *Failure = nullptr; ///< the first check that failed
  uint64_t UccCycles = 0, GccCycles = 0;
};
ReleaseCheck checkRelease(const Observed &Expected,
                          const ucc::BinaryImage &Patched,
                          const ucc::BinaryImage &Stored,
                          const ucc::BinaryImage &Gcc,
                          Recorder *SimRec = nullptr);

/// Corrupts one code word of \p Img and reports whether checkRelease
/// flags it (it must).
bool corruptedImageIsFlagged(const Observed &Expected,
                             const ucc::BinaryImage &Img,
                             const ucc::BinaryImage &Gcc);

/// Facts about every version of a store built from \p Models (one per
/// version, with \p Parents[v] the version it was committed against):
/// each version passes checkRelease against its parent.
struct VersionFacts {
  std::vector<ucc::BinaryImage> Gcc; ///< the GCC-RA counterfactuals
  std::vector<bool> Ok;
  ucc::BinaryImage Patched1; ///< version 1 as patched from version 0
};
VersionFacts checkVersions(const ucc::VersionStore &Store,
                           const std::vector<Program> &Models,
                           const std::vector<int> &Parents, int Jobs,
                           Recorder *SimRec);

/// A served plan is byte-identical to the quiesced store's plan and
/// patches its source image into its target image.
bool servedPlanIsExact(const ucc::VersionStore &Store, int From, int To,
                       const ucc::UpdatePlan *Served);

/// Adds one update of \p Bytes on air from \p Old to \p New to \p L:
/// eq. 18 under UCC and under the GCC-RA counterfactual \p Gcc of the new
/// version.
void addToLedger(Ledger &L, const ucc::BinaryImage &Old, uint64_t OldCycles,
                 const ucc::BinaryImage &New, uint64_t NewCycles,
                 const ucc::BinaryImage &Gcc, uint64_t GccCycles,
                 size_t Bytes, int Jobs);

/// Peak resident set of this process, MB.
double peakRssMb();

} // namespace pb

#endif // PERFBENCH_BENCH_H
