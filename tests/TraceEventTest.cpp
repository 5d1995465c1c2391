//===- tests/TraceEventTest.cpp - structured event trace layer ------------===//
//
// Pins the event half of the telemetry registry: the bounded ring buffer,
// the disabled-by-default / no-scope no-op contracts, the Chrome
// trace-event export (must parse, timestamps must be monotone, B/E pairs
// must nest), and the simulator/network emission sites.
//
//===----------------------------------------------------------------------===//

#include "codegen/SAVR.h"
#include "net/Network.h"
#include "sim/Simulator.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ucc;

namespace {

TEST(TraceEvent, DisabledByDefault) {
  Telemetry T;
  EXPECT_FALSE(T.eventsEnabled());
  T.recordEvent(TelemetryEvent::Phase::Instant, "x", "dropped");
  EXPECT_TRUE(T.eventsInOrder().empty());
  EXPECT_EQ(T.eventsDropped(), 0u);
}

TEST(TraceEvent, NoScopeEmissionIsANoOp) {
  // With no scope installed the ambient helpers must not crash and must
  // record nothing anywhere.
  EXPECT_EQ(eventTelemetry(), nullptr);
  telemetryInstant("net", "packet.tx", 3);
}

TEST(TraceEvent, ScopeWithoutEventsStaysQuiet) {
  Telemetry T;
  TelemetryScope Scope(T);
  // Counters/spans are on, but nobody asked for events.
  EXPECT_EQ(eventTelemetry(), nullptr);
  telemetryInstant("sim", "halt");
  EXPECT_TRUE(T.eventsInOrder().empty());
}

TEST(TraceEvent, RecordsInOrderWithArgs) {
  Telemetry T;
  T.enableEvents();
  T.recordEvent(TelemetryEvent::Phase::Instant, "net", "packet.tx", 2,
                {{"round", 1.0}, {"attempts", 3.0}});
  T.recordEvent(TelemetryEvent::Phase::Counter, "net", "energy/node2", 2,
                {{"joules", 0.5}});
  auto Events = T.eventsInOrder();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0]->Name, "packet.tx");
  EXPECT_EQ(Events[0]->Category, "net");
  EXPECT_EQ(Events[0]->Track, 2);
  ASSERT_EQ(Events[0]->Args.size(), 2u);
  EXPECT_EQ(Events[0]->Args[0].first, "round");
  EXPECT_EQ(Events[0]->Args[0].second, 1.0);
  EXPECT_EQ(Events[1]->Ph, TelemetryEvent::Phase::Counter);
  EXPECT_LE(Events[0]->TsMicros, Events[1]->TsMicros);
}

TEST(TraceEvent, RingBufferBoundsAndCountsDrops) {
  auto Name = [](int K) {
    std::string N = "e";
    N += std::to_string(K);
    return N;
  };
  Telemetry T;
  T.enableEvents(/*Capacity=*/8);
  for (int K = 0; K < 20; ++K)
    T.recordEvent(TelemetryEvent::Phase::Instant, "t", Name(K));
  auto Events = T.eventsInOrder();
  ASSERT_EQ(Events.size(), 8u);
  EXPECT_EQ(T.eventsDropped(), 12u);
  // Oldest-first order: the survivors are the last 8, in emission order.
  for (int K = 0; K < 8; ++K)
    EXPECT_EQ(Events[static_cast<size_t>(K)]->Name, Name(12 + K));
}

TEST(TraceEvent, ClearResetsEventState) {
  Telemetry T;
  T.enableEvents(4);
  for (int K = 0; K < 9; ++K)
    T.recordEvent(TelemetryEvent::Phase::Instant, "t", "e");
  T.clear();
  EXPECT_TRUE(T.eventsInOrder().empty());
  EXPECT_EQ(T.eventsDropped(), 0u);
  EXPECT_FALSE(T.eventsEnabled());
}

TEST(TraceEvent, SpansMirrorAsBeginEndEvents) {
  Telemetry T;
  T.enableEvents();
  T.beginSpan("compile");
  T.beginSpan("ra");
  T.endSpan();
  T.endSpan();
  auto Events = T.eventsInOrder();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events[0]->Ph, TelemetryEvent::Phase::Begin);
  EXPECT_EQ(Events[0]->Name, "compile");
  EXPECT_EQ(Events[1]->Name, "ra");
  EXPECT_EQ(Events[2]->Ph, TelemetryEvent::Phase::End);
  EXPECT_EQ(Events[3]->Ph, TelemetryEvent::Phase::End);
}

/// Parses a Chrome trace document and applies the structural checks every
/// export must satisfy: top-level object with a traceEvents array, each
/// event carrying name/ph/ts/pid/tid, timestamps monotone non-decreasing
/// in array order, and B/E events well-nested per track.
void checkChromeTrace(const std::string &Trace) {
  auto Doc = json::parse(Trace);
  ASSERT_TRUE(Doc.has_value()) << Trace;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, json::Value::Array);

  double LastTs = -1.0;
  std::map<double, int> OpenPerTrack;
  for (const auto &E : Events->Arr) {
    ASSERT_NE(E.find("name"), nullptr);
    ASSERT_NE(E.find("ph"), nullptr);
    ASSERT_NE(E.find("pid"), nullptr);
    const std::string &Ph = E.find("ph")->Str;
    if (Ph == "M")
      continue; // metadata records carry no timestamp/track contract
    ASSERT_NE(E.find("tid"), nullptr);
    ASSERT_NE(E.find("ts"), nullptr);
    double Ts = E.find("ts")->Num;
    EXPECT_GE(Ts, LastTs) << "timestamps must be monotone";
    LastTs = Ts;
    double Tid = E.find("tid")->Num;
    if (Ph == "B")
      ++OpenPerTrack[Tid];
    else if (Ph == "E") {
      EXPECT_GT(OpenPerTrack[Tid], 0) << "E without a matching B";
      --OpenPerTrack[Tid];
    }
  }
  for (const auto &[Tid, Open] : OpenPerTrack)
    EXPECT_EQ(Open, 0) << "unclosed B event on track " << Tid;
}

TEST(TraceEvent, ChromeTraceParsesAndNests) {
  Telemetry T;
  T.enableEvents();
  T.beginSpan("update");
  T.recordEvent(TelemetryEvent::Phase::Instant, "net", "packet.tx", 1,
                {{"round", 1.0}});
  T.recordEvent(TelemetryEvent::Phase::Counter, "net", "energy/node1", 1,
                {{"joules", 1e-3}});
  T.beginSpan("diff");
  T.endSpan();
  T.endSpan();
  checkChromeTrace(T.toChromeTrace());
}

TEST(TraceEvent, ChromeTraceNamesNodeTracks) {
  Telemetry T;
  T.enableEvents();
  T.recordEvent(TelemetryEvent::Phase::Instant, "net", "packet.rx", 5);
  T.recordEvent(TelemetryEvent::Phase::Instant, "net", "flood.done", 0);
  std::string Trace = T.toChromeTrace();
  EXPECT_NE(Trace.find("\"node 5\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"pipeline\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"dropped_events\""), std::string::npos);
}

TEST(TraceEvent, EmptyTraceIsStillValidJson) {
  Telemetry T;
  T.enableEvents();
  checkChromeTrace(T.toChromeTrace());
}

TEST(TraceEvent, ChromeTraceCarriesProcessAndWorkerMetadata) {
  Telemetry T;
  T.enableEvents();
  T.recordEvent(TelemetryEvent::Phase::Instant, "task", "on-worker",
                Telemetry::WorkerTrackBase + 3);
  std::string Trace = T.toChromeTrace();
  EXPECT_NE(Trace.find("\"process_name\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"thread_name\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"worker 3\""), std::string::npos)
      << "worker tracks must render a human label, not a bare tid";
  checkChromeTrace(Trace);
}

TEST(TraceEvent, FlowEventsPairAcrossTracksById) {
  Telemetry T;
  T.enableEvents();
  // A fan-out shaped by hand: the pipeline starts a flow that terminates
  // inside a worker's task slice.
  T.recordEvent(TelemetryEvent::Phase::FlowStart, "flow", "task", 0, {},
                /*FlowId=*/77);
  int32_t Worker = Telemetry::WorkerTrackBase;
  T.recordEvent(TelemetryEvent::Phase::Begin, "task", "task", Worker);
  T.recordEvent(TelemetryEvent::Phase::FlowEnd, "flow", "task", Worker, {},
                /*FlowId=*/77);
  T.recordEvent(TelemetryEvent::Phase::End, "task", "task", Worker);

  std::string Trace = T.toChromeTrace();
  auto Doc = json::parse(Trace);
  ASSERT_TRUE(Doc.has_value()) << Trace;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);

  double StartId = -1.0, EndId = -2.0;
  double StartTid = -1.0, EndTid = -1.0;
  bool SawBindingPoint = false;
  for (const auto &E : Events->Arr) {
    const std::string &Ph = E.find("ph")->Str;
    if (Ph == "s") {
      ASSERT_NE(E.find("id"), nullptr);
      StartId = E.find("id")->Num;
      StartTid = E.find("tid")->Num;
    } else if (Ph == "f") {
      ASSERT_NE(E.find("id"), nullptr);
      EndId = E.find("id")->Num;
      EndTid = E.find("tid")->Num;
      SawBindingPoint = E.find("bp") != nullptr && E.find("bp")->Str == "e";
    }
  }
  EXPECT_EQ(StartId, 77.0);
  EXPECT_EQ(EndId, StartId) << "s/f must share the flow id";
  EXPECT_NE(StartTid, EndTid) << "the flow must cross tracks";
  EXPECT_TRUE(SawBindingPoint)
      << "f events bind to the enclosing slice (bp:e)";
  checkChromeTrace(Trace);
}

TEST(TraceEvent, SpanBeginCarriesActiveTraceId) {
  Telemetry T;
  T.enableEvents();
  {
    TelemetryScope Scope(T);
    TraceContextScope Trace(TraceContext{42, 0});
    ScopedSpan Span("serve.plan");
  }
  bool SawTraceArg = false;
  for (const TelemetryEvent *E : T.eventsInOrder())
    if (E->Ph == TelemetryEvent::Phase::Begin && E->Name == "serve.plan")
      for (const auto &Arg : E->Args)
        if (Arg.first == "trace") {
          SawTraceArg = true;
          EXPECT_EQ(Arg.second, 42.0);
        }
  EXPECT_TRUE(SawTraceArg)
      << "span Begin events must be taggable back to their request";
}

TEST(TraceEvent, TraceContextScopeNestsAndRestores) {
  EXPECT_EQ(currentTraceContext(), nullptr);
  {
    TraceContextScope Outer(TraceContext{7, 0});
    ASSERT_NE(currentTraceContext(), nullptr);
    EXPECT_EQ(currentTraceContext()->TraceId, 7u);
    {
      TraceContextScope Inner(TraceContext{7, 3});
      EXPECT_EQ(currentTraceContext()->SpanId, 3u);
    }
    EXPECT_EQ(currentTraceContext()->SpanId, 0u);
  }
  EXPECT_EQ(currentTraceContext(), nullptr);

  uint64_t A = nextTraceId();
  uint64_t B = nextTraceId();
  EXPECT_GT(B, A) << "trace ids are process-unique and increasing";
}

uint32_t enc(MOp Op, int A = 0, int B = 0, uint16_t Imm = 0) {
  EncodedInstr E;
  E.Op = Op;
  E.A = static_cast<uint8_t>(A);
  E.B = static_cast<uint8_t>(B);
  E.Imm = Imm;
  return E.pack();
}

BinaryImage radioImage() {
  BinaryImage Img;
  Img.Functions = {{"main", 0, 6}};
  Img.Code = {
      enc(MOp::LDI, 0, 0, 42),
      enc(MOp::OUT, 0, 0, PortRadioData),
      enc(MOp::LDI, 1, 0, 1),
      enc(MOp::OUT, 1, 0, PortRadioSend), // one packet of one word
      enc(MOp::OUT, 0, 0, PortDebug),
      enc(MOp::HALT),
  };
  Img.EntryFunc = 0;
  return Img;
}

TEST(TraceEvent, SimulatorEmitsPacketAndLifecycleEvents) {
  Telemetry T;
  T.enableEvents();
  SimOptions Opts;
  Opts.NodeId = 7;
  RunResult R;
  {
    TelemetryScope Scope(T);
    R = runImage(radioImage(), Opts);
  }
  ASSERT_FALSE(R.Trapped) << R.TrapReason;

  bool SawTx = false, SawFinalEnergy = false, SawHalt = false;
  for (const TelemetryEvent *E : T.eventsInOrder()) {
    if (E->Category != "sim")
      continue;
    if (E->Name == "packet.tx") {
      SawTx = true;
      EXPECT_EQ(E->Track, 7);
      ASSERT_FALSE(E->Args.empty());
      EXPECT_EQ(E->Args[0].first, "words");
      EXPECT_EQ(E->Args[0].second, 1.0);
    }
    if (E->Name == "energy/node7" &&
        E->Ph == TelemetryEvent::Phase::Counter) {
      SawFinalEnergy = true;
      ASSERT_FALSE(E->Args.empty());
      EXPECT_GT(E->Args[0].second, 0.0) << "joules must accumulate";
    }
    if (E->Name == "halt")
      SawHalt = true;
  }
  EXPECT_TRUE(SawTx);
  EXPECT_TRUE(SawFinalEnergy);
  EXPECT_TRUE(SawHalt);
  checkChromeTrace(T.toChromeTrace());
}

TEST(TraceEvent, SimulatorSamplesEnergyTimeline) {
  // A long-running countdown loop must produce periodic energy samples,
  // not just the final one.
  BinaryImage Img;
  Img.Functions = {{"main", 0, 7}};
  Img.Code = {
      enc(MOp::LDI, 0, 0, 1000), // counter
      enc(MOp::LDI, 1, 0, 1),    // decrement
      enc(MOp::LDI, 2, 0, 0),    // zero
      enc(MOp::SUB, 0, 0, 1),    // loop:
      enc(MOp::CMP, 0, 2),
      enc(MOp::BNE, 0, 0, 3),
      enc(MOp::HALT),
  };
  Img.EntryFunc = 0;

  Telemetry T;
  T.enableEvents();
  SimOptions Opts;
  Opts.EnergySampleCycles = 500; // several samples across the ~3k cycles
  int Samples = 0;
  {
    TelemetryScope Scope(T);
    RunResult R = runImage(Img, Opts);
    ASSERT_FALSE(R.Trapped) << R.TrapReason;
  }
  double LastJoules = -1.0;
  for (const TelemetryEvent *E : T.eventsInOrder())
    if (E->Ph == TelemetryEvent::Phase::Counter && E->Category == "sim") {
      ++Samples;
      ASSERT_FALSE(E->Args.empty());
      EXPECT_GE(E->Args[0].second, LastJoules)
          << "energy timeline must be non-decreasing";
      LastJoules = E->Args[0].second;
    }
  EXPECT_GE(Samples, 3) << "periodic sampling plus the final sample";
}

TEST(TraceEvent, DisseminationEmitsPerNodeAndProgressEvents) {
  Telemetry T;
  T.enableEvents();
  DisseminationResult R;
  {
    TelemetryScope Scope(T);
    R = disseminate(Topology::line(4), 100);
  }
  int Tx = 0, Rx = 0, Progress = 0;
  double LastReached = 0.0;
  for (const TelemetryEvent *E : T.eventsInOrder()) {
    if (E->Category != "net")
      continue;
    if (E->Name == "packet.tx") {
      ++Tx;
      EXPECT_GT(E->Track, -1);
    }
    if (E->Name == "packet.rx")
      ++Rx;
    if (E->Name == "net.progress") {
      ++Progress;
      EXPECT_EQ(E->Track, 0) << "progress lives on the pipeline track";
      ASSERT_EQ(E->Args.size(), 2u);
      EXPECT_GT(E->Args[1].second, LastReached)
          << "reached-node count must grow every round";
      LastReached = E->Args[1].second;
    }
  }
  EXPECT_EQ(Tx, 3 * R.Packets) << "3 forwarding nodes on a 4-line";
  EXPECT_EQ(Rx, 3) << "one rx event per covered node";
  EXPECT_EQ(Progress, R.MaxHops);
  EXPECT_EQ(static_cast<int>(LastReached), 4);
  checkChromeTrace(T.toChromeTrace());
}

TEST(TraceEvent, DisseminationQuietWithoutEvents) {
  // The aggregate results must be identical with and without the event
  // layer: instrumentation must not perturb the RNG-driven outcomes.
  RadioChannel Lossy;
  Lossy.LossRate = 0.3;
  DisseminationResult Plain = disseminate(Topology::grid(5, 5), 300,
                                          PacketFormat(), Mica2Power(),
                                          Lossy);
  Telemetry T;
  T.enableEvents();
  DisseminationResult Traced;
  {
    TelemetryScope Scope(T);
    Traced = disseminate(Topology::grid(5, 5), 300, PacketFormat(),
                         Mica2Power(), Lossy);
  }
  EXPECT_EQ(Plain.Retransmissions, Traced.Retransmissions);
  EXPECT_DOUBLE_EQ(Plain.totalJoules(), Traced.totalJoules());
  EXPECT_FALSE(T.eventsInOrder().empty());
}

} // namespace
