//===- support/Telemetry.cpp - unified compilation telemetry --------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry implementation and the JSON serializer. The serializer emits a
/// single self-contained document (no external JSON dependency; built on
/// support/Format) whose schema is documented in docs/OBSERVABILITY.md and
/// pinned by tests/TelemetryTest.cpp.
///
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

using namespace ucc;

uint16_t DurationDist::bucketFor(double Seconds) {
  if (!(Seconds > 0.0))
    return 0;
  int Exp = 0;
  double Frac = std::frexp(Seconds, &Exp); // Frac in [0.5, 1)
  if (Exp < MinExp)
    return 1; // underflow clamps into the lowest octave
  if (Exp > MaxExp) {
    Exp = MaxExp;
    Frac = 1.0; // overflow clamps into the highest sub-bucket
  }
  int Sub = static_cast<int>((Frac - 0.5) * 2.0 * SubBuckets);
  if (Sub >= SubBuckets)
    Sub = SubBuckets - 1;
  return static_cast<uint16_t>(1 + (Exp - MinExp) * SubBuckets + Sub);
}

double DurationDist::valueFor(uint16_t Bucket) {
  if (Bucket == 0)
    return 0.0;
  int Idx = Bucket - 1;
  int Exp = MinExp + Idx / SubBuckets;
  int Sub = Idx % SubBuckets;
  // The linear midpoint of the sub-bucket within its [0.5, 1) octave.
  double Frac = 0.5 + (Sub + 0.5) / (2.0 * SubBuckets);
  return std::ldexp(Frac, Exp);
}

void DurationDist::record(double Seconds) {
  MinSeconds = Count == 0 ? Seconds : std::min(MinSeconds, Seconds);
  MaxSeconds = Count == 0 ? Seconds : std::max(MaxSeconds, Seconds);
  uint16_t B = bucketFor(Seconds);
  auto It = std::lower_bound(
      Buckets.begin(), Buckets.end(), B,
      [](const std::pair<uint16_t, uint32_t> &E, uint16_t Key) {
        return E.first < Key;
      });
  if (It != Buckets.end() && It->first == B)
    ++It->second;
  else
    Buckets.insert(It, {B, 1});
  ++Count;
}

void DurationDist::merge(const DurationDist &Other) {
  if (Other.Count == 0)
    return;
  MinSeconds = Count == 0 ? Other.MinSeconds
                          : std::min(MinSeconds, Other.MinSeconds);
  MaxSeconds = Count == 0 ? Other.MaxSeconds
                          : std::max(MaxSeconds, Other.MaxSeconds);
  // Merge-join the two sorted bucket lists.
  std::vector<std::pair<uint16_t, uint32_t>> Out;
  Out.reserve(Buckets.size() + Other.Buckets.size());
  size_t A = 0, B = 0;
  while (A < Buckets.size() || B < Other.Buckets.size()) {
    if (B == Other.Buckets.size() ||
        (A < Buckets.size() && Buckets[A].first < Other.Buckets[B].first)) {
      Out.push_back(Buckets[A++]);
    } else if (A == Buckets.size() ||
               Other.Buckets[B].first < Buckets[A].first) {
      Out.push_back(Other.Buckets[B++]);
    } else {
      Out.push_back({Buckets[A].first,
                     Buckets[A].second + Other.Buckets[B].second});
      ++A;
      ++B;
    }
  }
  Buckets = std::move(Out);
  Count += Other.Count;
}

double DurationDist::quantileSeconds(double Q) const {
  if (Count == 0)
    return 0.0;
  double Clamped = std::min(std::max(Q, 0.0), 1.0);
  // The (0-based) rank of the requested entry, nearest-rank style.
  uint64_t Rank = static_cast<uint64_t>(
      Clamped * static_cast<double>(Count - 1) + 0.5);
  uint64_t Seen = 0;
  double V = valueFor(Buckets.back().first);
  for (const auto &[Bucket, N] : Buckets) {
    Seen += N;
    if (Seen > Rank) {
      V = valueFor(Bucket);
      break;
    }
  }
  // The bucket midpoint can stick out past the exact envelope by a
  // half-bucket; clamp so min <= p50 <= p95 <= max always holds.
  return std::min(std::max(V, MinSeconds), MaxSeconds);
}

const TelemetrySpan *TelemetrySpan::find(const std::string &ChildName) const {
  for (const std::unique_ptr<TelemetrySpan> &C : Children)
    if (C->Name == ChildName)
      return C.get();
  return nullptr;
}

Telemetry::Telemetry() : TraceEpoch(std::chrono::steady_clock::now()) {}

void Telemetry::addCounter(const std::string &Name, int64_t Delta) {
  Counters[Name] += Delta;
}

void Telemetry::setGauge(const std::string &Name, double Value) {
  Gauges[Name] = Value;
}

void Telemetry::addGauge(const std::string &Name, double Delta) {
  Gauges[Name] += Delta;
}

void Telemetry::declareCounter(const std::string &Name) {
  Counters.emplace(Name, 0);
}

void Telemetry::declareStandardCounters() {
  static const char *Standard[] = {
      // lp: the solver substrate (Figs. 13-15).
      "lp.solves", "lp.pivots", "lp.ilp_solves", "lp.bb_nodes",
      "lp.warm_solves", "lp.ilp_timeouts",
      // ra: UCC-RA (section 3).
      "ra.functions", "ra.total_instrs", "ra.matched_instrs",
      "ra.chunks_changed", "ra.chunks_unchanged", "ra.anchor_occurrences",
      "ra.pref_honored", "ra.pref_broken", "ra.inserted_movs",
      "ra.spilled_vregs", "ra.ilp_windows", "ra.ilp_binaries",
      "ra.ilp_constraints", "ra.window_cache_hits",
      "ra.window_cache_misses",
      // compile: the incremental-recompilation cache (core/CompileCache).
      "compile.cache_hits", "compile.cache_misses",
      "compile.cache_evictions",
      // da: UCC-DA (section 4).
      "da.regions", "da.holes_filled", "da.hole_words", "da.relocated_vars",
      "da.region_words",
      // diff: edit scripts (section 2.2) and their composition.
      "diff.scripts", "diff.prims", "diff.script_bytes", "diff.bytes.copy",
      "diff.bytes.remove", "diff.bytes.insert", "diff.bytes.replace",
      "diff.compositions",
      // store: the sink-side version chain and its update planner.
      "store.commits", "store.loads", "store.plans", "store.plans_direct",
      "store.plans_chained",
      // serve: the request-serving front end over the store.
      "serve.plans", "serve.cache_hits", "serve.cache_misses",
      "serve.rejected", "serve.evictions", "serve.inflight_waits",
      "serve.batches", "serve.batch_deduped", "serve.precomputed",
      "serve.commits",
      // sim: the SAVR simulator (section 5.1's Avrora stand-in).
      "sim.runs", "sim.steps", "sim.cycles", "sim.radio_packets",
      "sim.radio_words",
      // net: multi-hop dissemination (section 2.2).
      "net.floods", "net.packets", "net.bytes_on_air", "net.transmitters",
      "net.retransmissions", "net.failed_packets", "net.campaigns",
      "net.cohorts", "net.bad_packet_format",
      // net.event: the discrete-event fleet simulator (net/EventSim).
      "net.event.processed", "net.event.batches", "net.collisions",
      "net.backoffs", "net.sleep.defers", "net.sleep.misses",
      "net.overheard", "net.beacons", "net.requests",
      "net.nodes_incomplete"};
  for (const char *Name : Standard)
    declareCounter(Name);
}

void Telemetry::beginSpan(const std::string &Name) {
  TelemetrySpan *Parent = Open.empty() ? &Root : Open.back().first;
  TelemetrySpan *Node =
      const_cast<TelemetrySpan *>(Parent->find(Name));
  if (!Node) {
    Parent->Children.push_back(std::make_unique<TelemetrySpan>());
    Node = Parent->Children.back().get();
    Node->Name = Name;
  }
  ++Node->Count;
  if (EventsOn) {
    // Attribute the slice to the active request: the trace id rides in
    // the args, so Perfetto queries can pull one request's lifeline out
    // of a multi-request, multi-thread timeline.
    std::vector<std::pair<std::string, double>> Args;
    if (const TraceContext *Ctx = currentTraceContext())
      Args.push_back({"trace", static_cast<double>(Ctx->TraceId)});
    recordEvent(TelemetryEvent::Phase::Begin, "span", Name, DefaultTrack,
                std::move(Args));
  }
  Open.emplace_back(Node, std::chrono::steady_clock::now());
}

void Telemetry::endSpan() {
  assert(!Open.empty() && "endSpan without a matching beginSpan");
  if (Open.empty())
    return;
  auto [Node, Start] = Open.back();
  Open.pop_back();
  double D =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Node->Seconds += D;
  Node->Dist.record(D);
  if (EventsOn)
    recordEvent(TelemetryEvent::Phase::End, "span", Node->Name,
                DefaultTrack);
}

namespace {

/// Folds \p From into \p Into: totals add, the duration distributions
/// merge, children merge recursively by name.
void mergeSpanInto(TelemetrySpan &Into, const TelemetrySpan &From) {
  Into.Seconds += From.Seconds;
  Into.Count += From.Count;
  Into.Dist.merge(From.Dist);
  for (const std::unique_ptr<TelemetrySpan> &FromChild : From.Children) {
    TelemetrySpan *IntoChild =
        const_cast<TelemetrySpan *>(Into.find(FromChild->Name));
    if (!IntoChild) {
      Into.Children.push_back(std::make_unique<TelemetrySpan>());
      IntoChild = Into.Children.back().get();
      IntoChild->Name = FromChild->Name;
    }
    mergeSpanInto(*IntoChild, *FromChild);
  }
}

} // namespace

void Telemetry::mergeChild(const Telemetry &Child) {
  assert(Child.Open.empty() && "merging a registry with open spans");
  for (const auto &[Name, Value] : Child.Counters)
    Counters[Name] += Value;
  for (const auto &[Name, Value] : Child.Gauges)
    Gauges[Name] += Value;

  // Graft the child's span forest under the innermost open span: a
  // parallel region started inside `ra` folds its per-item spans where
  // the serial loop would have put them.
  TelemetrySpan *Graft = Open.empty() ? &Root : Open.back().first;
  for (const std::unique_ptr<TelemetrySpan> &FromChild : Child.Root.Children) {
    TelemetrySpan *IntoChild =
        const_cast<TelemetrySpan *>(Graft->find(FromChild->Name));
    if (!IntoChild) {
      Graft->Children.push_back(std::make_unique<TelemetrySpan>());
      IntoChild = Graft->Children.back().get();
      IntoChild->Name = FromChild->Name;
    }
    mergeSpanInto(*IntoChild, *FromChild);
  }

  if (!EventsOn || !Child.EventsOn || Child.Events.empty())
    return;
  // Both clocks are steady_clock, so the epoch difference re-bases the
  // child's event timestamps onto this registry's timeline.
  double Offset = std::chrono::duration<double, std::micro>(
                      Child.TraceEpoch - TraceEpoch)
                      .count();
  for (const TelemetryEvent *E : Child.eventsInOrder()) {
    TelemetryEvent Copy = *E;
    Copy.TsMicros += Offset;
    if (Events.size() < EventCapacity) {
      Events.push_back(std::move(Copy));
      continue;
    }
    Events[EventHead] = std::move(Copy);
    EventHead = (EventHead + 1) % EventCapacity;
    ++EventsDropped;
  }
  EventsDropped += Child.EventsDropped;
  // Re-sort the retained buffer chronologically (stable: ties keep their
  // merge order, so repeated merges stay deterministic).
  std::vector<TelemetryEvent> InOrder;
  InOrder.reserve(Events.size());
  for (size_t K = 0; K < Events.size(); ++K)
    InOrder.push_back(std::move(Events[(EventHead + K) % Events.size()]));
  std::stable_sort(InOrder.begin(), InOrder.end(),
                   [](const TelemetryEvent &A, const TelemetryEvent &B) {
                     return A.TsMicros < B.TsMicros;
                   });
  Events = std::move(InOrder);
  EventHead = 0;
}

int64_t Telemetry::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

double Telemetry::gauge(const std::string &Name) const {
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? 0.0 : It->second;
}

void Telemetry::clear() {
  Counters.clear();
  Gauges.clear();
  Root.Children.clear();
  Open.clear();
  Events.clear();
  EventCapacity = 0;
  EventHead = 0;
  EventsDropped = 0;
  EventsOn = false;
  DefaultTrack = 0;
  TraceEpoch = std::chrono::steady_clock::now();
}

void Telemetry::enableEvents(size_t Capacity) {
  assert(Capacity > 0 && "event ring buffer needs at least one slot");
  EventsOn = true;
  EventCapacity = Capacity;
  Events.reserve(std::min<size_t>(Capacity, 1024));
}

double Telemetry::microsSinceEpoch() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - TraceEpoch)
      .count();
}

void Telemetry::recordEvent(TelemetryEvent::Phase Ph,
                            const std::string &Category,
                            const std::string &Name, int32_t Track,
                            std::vector<std::pair<std::string, double>> Args,
                            uint64_t FlowId) {
  if (!EventsOn)
    return;
  TelemetryEvent E;
  E.Ph = Ph;
  E.TsMicros = microsSinceEpoch();
  E.Track = Track;
  E.FlowId = FlowId;
  E.Category = Category;
  E.Name = Name;
  E.Args = std::move(Args);
  if (Events.size() < EventCapacity) {
    Events.push_back(std::move(E));
    return;
  }
  // Full: overwrite the oldest slot and advance the ring head.
  Events[EventHead] = std::move(E);
  EventHead = (EventHead + 1) % EventCapacity;
  ++EventsDropped;
}

std::vector<const TelemetryEvent *> Telemetry::eventsInOrder() const {
  std::vector<const TelemetryEvent *> Out;
  Out.reserve(Events.size());
  for (size_t K = 0; K < Events.size(); ++K)
    Out.push_back(&Events[(EventHead + K) % Events.size()]);
  return Out;
}

namespace {

void spanToJson(const TelemetrySpan &Span, std::string &Out) {
  Out += format("{\"name\":\"%s\",\"seconds\":%.9f,\"count\":%lld,"
                "\"dist\":{\"min\":%.9f,\"p50\":%.9f,\"p95\":%.9f,"
                "\"max\":%.9f},\"children\":[",
                json::escape(Span.Name).c_str(), Span.Seconds,
                static_cast<long long>(Span.Count), Span.Dist.MinSeconds,
                Span.quantileSeconds(0.50), Span.quantileSeconds(0.95),
                Span.Dist.MaxSeconds);
  for (size_t K = 0; K < Span.Children.size(); ++K) {
    if (K != 0)
      Out += ",";
    spanToJson(*Span.Children[K], Out);
  }
  Out += "]}";
}

} // namespace

std::string Telemetry::toJson() const {
  std::string Out = "{\"version\":1,\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    if (!First)
      Out += ",";
    First = false;
    Out += format("\"%s\":%lld", json::escape(Name).c_str(),
                  static_cast<long long>(Value));
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, Value] : Gauges) {
    if (!First)
      Out += ",";
    First = false;
    Out += format("\"%s\":%.9g", json::escape(Name).c_str(), Value);
  }
  Out += "},\"spans\":[";
  for (size_t K = 0; K < Root.Children.size(); ++K) {
    if (K != 0)
      Out += ",";
    spanToJson(*Root.Children[K], Out);
  }
  Out += "]}";
  return Out;
}

std::string Telemetry::toChromeTrace() const {
  // The Chrome trace-event "JSON object format". Every event carries
  // pid 1 (one process: the toolchain) and tid = its track, so per-node
  // events land on per-node rows in Perfetto / chrome://tracing.
  std::string Out = format("{\"displayTimeUnit\":\"ms\","
                           "\"otherData\":{\"producer\":\"ucc\","
                           "\"dropped_events\":%llu},\"traceEvents\":[",
                           static_cast<unsigned long long>(EventsDropped));
  bool First = true;
  auto append = [&](const std::string &Event) {
    if (!First)
      Out += ",";
    First = false;
    Out += Event;
  };
  // Thread-name metadata: one row label per distinct track.
  std::vector<int32_t> Tracks;
  for (const TelemetryEvent *E : eventsInOrder())
    if (std::find(Tracks.begin(), Tracks.end(), E->Track) == Tracks.end())
      Tracks.push_back(E->Track);
  std::sort(Tracks.begin(), Tracks.end());
  append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"ucc\"}}");
  for (int32_t Track : Tracks) {
    // Worker rows are labeled by worker index so a Perfetto timeline
    // reads "pipeline / node 3 / worker 0 / worker 1", not bare tids.
    std::string Label = Track == 0 ? std::string("pipeline")
                        : Track >= Telemetry::WorkerTrackBase
                            ? format("worker %d",
                                     Track - Telemetry::WorkerTrackBase)
                            : format("node %d", Track);
    append(format("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  Track, Label.c_str()));
  }
  for (const TelemetryEvent *E : eventsInOrder()) {
    char Ph = 'i';
    switch (E->Ph) {
    case TelemetryEvent::Phase::Instant:
      Ph = 'i';
      break;
    case TelemetryEvent::Phase::Begin:
      Ph = 'B';
      break;
    case TelemetryEvent::Phase::End:
      Ph = 'E';
      break;
    case TelemetryEvent::Phase::Counter:
      Ph = 'C';
      break;
    case TelemetryEvent::Phase::FlowStart:
      Ph = 's';
      break;
    case TelemetryEvent::Phase::FlowEnd:
      Ph = 'f';
      break;
    }
    std::string Ev = format(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
        "\"pid\":1,\"tid\":%d",
        json::escape(E->Name).c_str(), json::escape(E->Category).c_str(), Ph,
        E->TsMicros, E->Track);
    if (E->Ph == TelemetryEvent::Phase::Instant)
      Ev += ",\"s\":\"t\""; // thread-scoped instant marker
    if (E->Ph == TelemetryEvent::Phase::FlowStart ||
        E->Ph == TelemetryEvent::Phase::FlowEnd) {
      Ev += format(",\"id\":%llu",
                   static_cast<unsigned long long>(E->FlowId));
      // Bind the arrow head to the enclosing slice rather than the next
      // one, so the flow lands on the worker's task slice itself.
      if (E->Ph == TelemetryEvent::Phase::FlowEnd)
        Ev += ",\"bp\":\"e\"";
    }
    if (!E->Args.empty() || E->Ph == TelemetryEvent::Phase::Counter) {
      Ev += ",\"args\":{";
      for (size_t K = 0; K < E->Args.size(); ++K) {
        if (K != 0)
          Ev += ",";
        Ev += format("\"%s\":%.9g", json::escape(E->Args[K].first).c_str(),
                     E->Args[K].second);
      }
      Ev += "}";
    }
    Ev += "}";
    append(Ev);
  }
  Out += "]}";
  return Out;
}

namespace {
thread_local Telemetry *CurrentTelemetry = nullptr;
thread_local const TraceContext *CurrentTraceContext = nullptr;
std::atomic<uint64_t> TraceIdCounter{1};
} // namespace

Telemetry *ucc::currentTelemetry() { return CurrentTelemetry; }

TelemetryScope::TelemetryScope(Telemetry &T) : Prev(CurrentTelemetry) {
  CurrentTelemetry = &T;
}

TelemetryScope::~TelemetryScope() { CurrentTelemetry = Prev; }

const TraceContext *ucc::currentTraceContext() {
  return CurrentTraceContext;
}

uint64_t ucc::nextTraceId() {
  return TraceIdCounter.fetch_add(1, std::memory_order_relaxed);
}

TraceContextScope::TraceContextScope(TraceContext C)
    : Ctx(C), Prev(CurrentTraceContext) {
  CurrentTraceContext = &Ctx;
}

TraceContextScope::~TraceContextScope() { CurrentTraceContext = Prev; }
