//===- support/Telemetry.h - unified compilation telemetry ----------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement substrate of the library: one registry of named
/// counters, gauges, hierarchical timed spans and (opt-in) structured
/// trace events that every subsystem reports into, replacing the
/// scattered ad-hoc statistics structs as the single export path. The
/// paper's whole argument is quantitative (edit script bytes vs. ILP
/// solve cost vs. energy, Figs. 9-16), so every phase of the pipeline can
/// account for itself here and one JSON document captures a full
/// sink-to-sensor flow.
///
/// Two granularities, two exports:
///  - the *aggregate* view (counters/gauges/spans, `toJson()`) answers
///    "what did this run cost in total";
///  - the *event* view (`enableEvents()` + `toChromeTrace()`) answers
///    "what happened when, on which node" — per-node packet events and
///    energy timelines from the network/simulator, loadable in Perfetto.
/// Events live in a bounded ring buffer and cost nothing unless a
/// consumer enabled them.
///
/// The registry is *ambient*: instrumentation sites call the free helpers
/// (`telemetryCount`, `telemetryGauge`, `ScopedSpan`) which resolve the
/// thread-current registry installed by a `TelemetryScope`. When no scope
/// is active — the default — every helper reduces to a single branch on a
/// thread-local pointer and touches nothing else; this is the zero-overhead
/// no-op mode, so the library can stay instrumented unconditionally.
///
/// Naming conventions (the full schema is documented in
/// docs/OBSERVABILITY.md):
///  - counters/gauges use dotted lowercase paths: `lp.pivots`,
///    `ra.pref_honored`, `diff.bytes.insert`;
///  - spans use bare phase names (`parse`, `opt`, `isel`, `ra`, `da`,
///    `diff`, `sim`) and nest by runtime call structure; re-entering a
///    name under the same parent accumulates into one node.
///
/// Typical use:
/// \code
///   Telemetry T;
///   {
///     TelemetryScope Scope(T);
///     auto Out = Compiler::compile(Source, Opts, Diag);   // instrumented
///   }
///   writeFile("trace.json", T.toJson());
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_TELEMETRY_H
#define UCC_SUPPORT_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ucc {

/// A log-bucketed duration distribution with bounded memory: the one
/// latency histogram of the library, behind span durations and the
/// serving load driver's per-request latencies. Values map to log-linear
/// buckets (16 linear sub-buckets per power-of-two octave, so a bucket's
/// representative value is within ~3% of anything that landed in it)
/// stored sparsely: a span that only ever sees a handful of distinct
/// magnitudes holds a handful of (bucket, count) pairs, and even a
/// pathological input saturates at NumBuckets entries — multi-minute
/// serving runs cannot grow it without limit. Beside the buckets it keeps
/// the exact [min, max] envelope. Merging two distributions is a join on
/// bucket indices plus the envelope's min/max, so per-item telemetry and
/// per-thread latencies fold losslessly. Not thread-safe: concurrent
/// writers each record into their own and merge after the join.
struct DurationDist {
  /// (bucket index, entry count), sorted ascending by bucket index.
  std::vector<std::pair<uint16_t, uint32_t>> Buckets;
  uint64_t Count = 0;      ///< total recorded entries
  double MinSeconds = 0.0; ///< smallest recorded value, exact (0 if empty)
  double MaxSeconds = 0.0; ///< largest recorded value, exact (0 if empty)

  static constexpr int SubBuckets = 16; ///< linear steps per octave
  static constexpr int MinExp = -64;    ///< ~5e-20 s floor
  static constexpr int MaxExp = 63;     ///< ~9e18 s ceiling
  /// Bucket 0 catches non-positive values; the rest cover the exponent
  /// range at SubBuckets per octave.
  static constexpr int NumBuckets = 1 + (MaxExp - MinExp + 1) * SubBuckets;

  /// The bucket \p Seconds falls into.
  static uint16_t bucketFor(double Seconds);
  /// The representative (midpoint) value of \p Bucket.
  static double valueFor(uint16_t Bucket);

  void record(double Seconds);
  void merge(const DurationDist &Other);
  /// Quantile \p Q in [0,1] as the representative value of the bucket the
  /// Q-th entry falls into, clamped to the exact [MinSeconds, MaxSeconds]
  /// envelope (0 when empty).
  double quantileSeconds(double Q) const;
};

/// One node of the span tree: an accumulated wall-clock phase. Entering
/// the same name again under the same parent adds to Seconds/Count rather
/// than growing the tree, so per-function loops aggregate naturally.
///
/// Beyond the running total, every entry's individual duration feeds a
/// DurationDist (exact min/max plus a bounded log-bucket histogram) from
/// which p50/p95 are estimated. Repeated phases — per-function RA,
/// per-round dissemination — therefore report how their cost is
/// distributed, not just how it sums, at fixed memory per node.
struct TelemetrySpan {
  std::string Name;
  double Seconds = 0.0; ///< total wall time across all entries
  int64_t Count = 0;    ///< times the span was entered
  std::vector<std::unique_ptr<TelemetrySpan>> Children;

  /// Per-entry durations: exact envelope, log-bucketed quantiles.
  DurationDist Dist;

  /// Duration quantile \p Q in [0,1] (0 when the span never closed).
  double quantileSeconds(double Q) const { return Dist.quantileSeconds(Q); }

  /// Child with \p Name, or null.
  const TelemetrySpan *find(const std::string &ChildName) const;
};

/// A request-scoped trace identity: every span/event recorded while a
/// context is installed is attributable to one logical request (a
/// PlanService::plan call, one campaign cohort), even when the work fans
/// out across worker threads. SpanId names the fan-out edge that carried
/// the context to this thread (the flow id in the Chrome trace export).
struct TraceContext {
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
};

/// The thread-current trace context, or null when none is installed.
const TraceContext *currentTraceContext();

/// Mints a process-unique trace id (never 0).
uint64_t nextTraceId();

/// RAII installer for a TraceContext (thread-local; scopes nest).
class TraceContextScope {
public:
  explicit TraceContextScope(TraceContext Ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope &) = delete;
  TraceContextScope &operator=(const TraceContextScope &) = delete;

private:
  TraceContext Ctx;
  const TraceContext *Prev;
};

/// One entry of the bounded event trace: a timestamped point (or
/// begin/end/counter-sample) on a per-node track. Phase mirrors the
/// Chrome trace-event `ph` field so the export is a direct mapping.
struct TelemetryEvent {
  enum class Phase : uint8_t {
    Instant,   ///< a point in time (`ph:"i"`)
    Begin,     ///< opens a duration (`ph:"B"`)
    End,       ///< closes the innermost open duration (`ph:"E"`)
    Counter,   ///< a sampled value on a counter track (`ph:"C"`)
    FlowStart, ///< opens a flow arrow (`ph:"s"`), paired by FlowId
    FlowEnd    ///< closes a flow arrow (`ph:"f"`, binds to the enclosing
               ///< slice), paired by FlowId
  };
  Phase Ph = Phase::Instant;
  double TsMicros = 0.0; ///< microseconds since the registry's trace epoch
  int32_t Track = 0;     ///< Chrome `tid`: 0 = the pipeline, N = node N
  uint64_t FlowId = 0;   ///< pairs FlowStart/FlowEnd across tracks
  std::string Category;  ///< subsystem prefix (`net`, `sim`, `span`, ...)
  std::string Name;
  /// Numeric payload, rendered as the Chrome `args` object.
  std::vector<std::pair<std::string, double>> Args;
};

/// The registry. Not thread-safe by design: the compilation pipeline is
/// single-threaded and each thread installs its own scope.
class Telemetry {
public:
  Telemetry();

  /// Adds \p Delta to counter \p Name (creating it at zero).
  void addCounter(const std::string &Name, int64_t Delta = 1);

  /// Sets gauge \p Name to \p Value (last write wins).
  void setGauge(const std::string &Name, double Value);

  /// Adds \p Delta to gauge \p Name (for accumulated quantities like
  /// solve seconds).
  void addGauge(const std::string &Name, double Delta);

  /// Creates counter \p Name at zero if absent. Lets a driver pin the
  /// documented schema keys into the output even when the code path that
  /// would bump them never runs (e.g. `lp.*` under the greedy strategy).
  void declareCounter(const std::string &Name);

  /// Declares the whole documented counter schema at zero (see
  /// docs/OBSERVABILITY.md). Drivers that promise the stable schema —
  /// `uccc --trace-json`, the bench harness — call this once after
  /// installing the registry.
  void declareStandardCounters();

  /// Opens a child span of the currently open span (top level when none).
  void beginSpan(const std::string &Name);

  /// Closes the innermost open span, folding its wall time into the tree.
  void endSpan();

  /// \name Event trace
  /// The structured event layer (docs/OBSERVABILITY.md): a ring buffer of
  /// timestamped events that subsystems append to only when a consumer
  /// asked for them. Disabled by default so the counter/span-only paths
  /// pay nothing; when enabled, beginSpan/endSpan additionally record
  /// Begin/End events so phase durations appear on the trace timeline.
  /// @{

  /// Turns event recording on with a ring buffer of \p Capacity events.
  /// Once the buffer is full the oldest events are overwritten and
  /// eventsDropped() counts the loss.
  void enableEvents(size_t Capacity = DefaultEventCapacity);

  /// True when events are being recorded.
  bool eventsEnabled() const { return EventsOn; }

  /// Appends one event (no-op unless eventsEnabled()); the timestamp is
  /// taken here, so events are monotone in buffer order. \p FlowId is
  /// meaningful only for FlowStart/FlowEnd phases.
  void recordEvent(TelemetryEvent::Phase Ph, const std::string &Category,
                   const std::string &Name, int32_t Track = 0,
                   std::vector<std::pair<std::string, double>> Args = {},
                   uint64_t FlowId = 0);

  /// The track span Begin/End events (and other default-track emission)
  /// land on. 0 — the pipeline — by default; parallelFor points each
  /// worker's per-item registry at its worker track so a multi-threaded
  /// trace shows per-thread timelines.
  void setDefaultTrack(int32_t Track) { DefaultTrack = Track; }
  int32_t defaultTrack() const { return DefaultTrack; }

  /// Tracks at and above this value render as "worker N" rows in the
  /// Chrome trace export (N = Track - WorkerTrackBase); below it they are
  /// the pipeline (0) and per-node tracks.
  static constexpr int32_t WorkerTrackBase = 1 << 20;

  /// The retained events, oldest first.
  std::vector<const TelemetryEvent *> eventsInOrder() const;

  /// Events lost to ring-buffer wraparound.
  uint64_t eventsDropped() const { return EventsDropped; }

  /// Serializes the retained events as a Chrome trace-event JSON document
  /// (the "JSON object format": {"traceEvents":[...],...}), loadable in
  /// Perfetto / chrome://tracing. Includes thread-name metadata so tracks
  /// read as "node N".
  std::string toChromeTrace() const;

  static constexpr size_t DefaultEventCapacity = 1 << 16;
  /// @}

  int64_t counter(const std::string &Name) const;
  double gauge(const std::string &Name) const;
  const std::map<std::string, int64_t> &counters() const { return Counters; }
  const std::map<std::string, double> &gauges() const { return Gauges; }

  /// Root of the span forest (Name empty, Seconds unused).
  const TelemetrySpan &spans() const { return Root; }

  /// Serializes the whole registry as one JSON document:
  /// {"version":1,"counters":{...},"gauges":{...},"spans":[...]}.
  std::string toJson() const;

  /// Folds \p Child into this registry (the parallel-merge primitive used
  /// by support/ThreadPool): counters and gauges accumulate, the child's
  /// span forest is grafted under the innermost open span of this
  /// registry (top level when none), and — when both registries record
  /// events — the child's events are appended with timestamps re-based
  /// onto this registry's trace epoch, then the whole buffer is re-sorted
  /// by timestamp so the merged trace reads chronologically. Merging is
  /// commutative over counters/gauges and, because span trees fold by
  /// name, the aggregate view is independent of which worker ran which
  /// item; callers that need full determinism merge per-item registries
  /// in item order. \p Child must have no open spans.
  void mergeChild(const Telemetry &Child);

  /// Drops every counter, gauge, span (open spans included) and event,
  /// returning the registry to its just-constructed state (event
  /// recording off, trace epoch reset).
  void clear();

private:
  double microsSinceEpoch() const;

  std::map<std::string, int64_t> Counters;
  std::map<std::string, double> Gauges;
  TelemetrySpan Root;
  /// Innermost-last stack of open spans with their entry timestamps.
  std::vector<std::pair<TelemetrySpan *, std::chrono::steady_clock::time_point>>
      Open;

  /// Event ring buffer: Events grows to EventCapacity, then EventHead
  /// marks the oldest slot and new events overwrite in rotation.
  std::vector<TelemetryEvent> Events;
  size_t EventCapacity = 0;
  size_t EventHead = 0;
  uint64_t EventsDropped = 0;
  bool EventsOn = false;
  int32_t DefaultTrack = 0;
  std::chrono::steady_clock::time_point TraceEpoch;
};

/// The thread-current registry, or null when telemetry is off.
Telemetry *currentTelemetry();

/// RAII installer: makes \p T the thread-current registry for its lifetime
/// and restores the previous one (scopes nest).
class TelemetryScope {
public:
  explicit TelemetryScope(Telemetry &T);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope &) = delete;
  TelemetryScope &operator=(const TelemetryScope &) = delete;

private:
  Telemetry *Prev;
};

/// Bumps \p Name on the current registry; no-op without one.
inline void telemetryCount(const std::string &Name, int64_t Delta = 1) {
  if (Telemetry *T = currentTelemetry())
    T->addCounter(Name, Delta);
}

/// Sets gauge \p Name on the current registry; no-op without one.
inline void telemetryGauge(const std::string &Name, double Value) {
  if (Telemetry *T = currentTelemetry())
    T->setGauge(Name, Value);
}

/// Accumulates into gauge \p Name on the current registry; no-op without
/// one.
inline void telemetryGaugeAdd(const std::string &Name, double Delta) {
  if (Telemetry *T = currentTelemetry())
    T->addGauge(Name, Delta);
}

/// Opens a span on the current registry; no-op without one. Pair with
/// telemetryEndSpan() when RAII scoping is inconvenient (the section does
/// not coincide with a block); both sides resolve the registry at call
/// time, so an unbalanced pair can only arise from mismatched call sites.
inline void telemetryBeginSpan(const char *Name) {
  if (Telemetry *T = currentTelemetry())
    T->beginSpan(Name);
}

/// Closes the innermost open span; no-op without a registry.
inline void telemetryEndSpan() {
  if (Telemetry *T = currentTelemetry())
    T->endSpan();
}

/// The registry to record events into, or null when nobody is listening.
/// Emission sites with non-trivial argument lists hoist this check so
/// that, with no scope installed, the whole site stays the single
/// pointer-load-and-branch no-op:
/// \code
///   if (Telemetry *T = eventTelemetry())
///     T->recordEvent(TelemetryEvent::Phase::Instant, "net", "packet.tx",
///                    Node, {{"round", Round}});
/// \endcode
inline Telemetry *eventTelemetry() {
  Telemetry *T = currentTelemetry();
  return T && T->eventsEnabled() ? T : nullptr;
}

/// Records an argument-free instant event; no-op without an event-enabled
/// registry.
inline void telemetryInstant(const char *Category, const char *Name,
                             int32_t Track = 0) {
  if (Telemetry *T = eventTelemetry())
    T->recordEvent(TelemetryEvent::Phase::Instant, Category, Name, Track);
}

/// RAII timed span on the current registry. Constructed with no registry
/// installed it does nothing at all (one pointer load + branch).
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : T(currentTelemetry()) {
    if (T)
      T->beginSpan(Name);
  }
  ~ScopedSpan() {
    if (T)
      T->endSpan();
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Telemetry *T;
};

} // namespace ucc

#endif // UCC_SUPPORT_TELEMETRY_H
