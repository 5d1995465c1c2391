//===- tests/TelemetryTest.cpp - the telemetry registry and its JSON ------===//
//
// Pins the behavior docs/OBSERVABILITY.md documents: counter/gauge
// accounting, span nesting and accumulation, the ambient-scope no-op mode,
// and the serialized schema (version/counters/gauges/spans).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace ucc;

namespace {

TEST(Telemetry, CountersAndGauges) {
  Telemetry T;
  EXPECT_EQ(T.counter("lp.pivots"), 0); // absent reads as zero

  T.addCounter("lp.pivots", 3);
  T.addCounter("lp.pivots");
  EXPECT_EQ(T.counter("lp.pivots"), 4);

  T.setGauge("ra.seconds.main", 1.5);
  T.setGauge("ra.seconds.main", 2.5); // last write wins
  EXPECT_DOUBLE_EQ(T.gauge("ra.seconds.main"), 2.5);

  T.addGauge("lp.lp_seconds", 1.0);
  T.addGauge("lp.lp_seconds", 0.25); // accumulates
  EXPECT_DOUBLE_EQ(T.gauge("lp.lp_seconds"), 1.25);

  T.clear();
  EXPECT_EQ(T.counter("lp.pivots"), 0);
  EXPECT_DOUBLE_EQ(T.gauge("lp.lp_seconds"), 0.0);
}

TEST(Telemetry, DeclaredCountersAppearAtZero) {
  Telemetry T;
  T.declareStandardCounters();
  // Declaration creates the keys without disturbing existing values.
  EXPECT_NE(T.counters().find("lp.bb_nodes"), T.counters().end());
  EXPECT_EQ(T.counter("lp.bb_nodes"), 0);

  T.addCounter("lp.bb_nodes", 7);
  T.declareCounter("lp.bb_nodes"); // re-declaration must not reset
  EXPECT_EQ(T.counter("lp.bb_nodes"), 7);
}

TEST(Telemetry, SpansNestByCallStructureAndAccumulate) {
  Telemetry T;
  T.beginSpan("compile");
  T.beginSpan("ra");
  T.endSpan();
  T.beginSpan("ra"); // re-entry under the same parent: same node
  T.endSpan();
  T.beginSpan("da");
  T.endSpan();
  T.endSpan();

  const TelemetrySpan &Root = T.spans();
  ASSERT_EQ(Root.Children.size(), 1u);
  const TelemetrySpan *Compile = Root.find("compile");
  ASSERT_NE(Compile, nullptr);
  EXPECT_EQ(Compile->Count, 1);
  ASSERT_EQ(Compile->Children.size(), 2u);

  const TelemetrySpan *Ra = Compile->find("ra");
  ASSERT_NE(Ra, nullptr);
  EXPECT_EQ(Ra->Count, 2); // accumulated, not duplicated
  EXPECT_GE(Ra->Seconds, 0.0);
  const TelemetrySpan *Da = Compile->find("da");
  ASSERT_NE(Da, nullptr);
  EXPECT_EQ(Da->Count, 1);
}

TEST(Telemetry, ScopeInstallsAndRestoresTheAmbientRegistry) {
  EXPECT_EQ(currentTelemetry(), nullptr);
  {
    Telemetry Outer;
    TelemetryScope OuterScope(Outer);
    EXPECT_EQ(currentTelemetry(), &Outer);
    {
      Telemetry Inner;
      TelemetryScope InnerScope(Inner);
      EXPECT_EQ(currentTelemetry(), &Inner);
      telemetryCount("x");
      EXPECT_EQ(Inner.counter("x"), 1);
      EXPECT_EQ(Outer.counter("x"), 0);
    }
    EXPECT_EQ(currentTelemetry(), &Outer); // scopes nest and restore
  }
  EXPECT_EQ(currentTelemetry(), nullptr);
}

TEST(Telemetry, HelpersAreNoOpsWithoutAScope) {
  ASSERT_EQ(currentTelemetry(), nullptr);
  // None of these may crash or observably do anything.
  telemetryCount("lp.pivots", 10);
  telemetryGauge("g", 1.0);
  telemetryGaugeAdd("g", 1.0);
  telemetryBeginSpan("phase");
  telemetryEndSpan();
  { ScopedSpan Span("phase"); }

  // A registry installed *afterwards* must not see any of it.
  Telemetry T;
  TelemetryScope Scope(T);
  EXPECT_EQ(T.counter("lp.pivots"), 0);
  EXPECT_TRUE(T.spans().Children.empty());
}

TEST(Telemetry, ScopedSpanBindsTheRegistryAtConstruction) {
  Telemetry T;
  TelemetryScope Scope(T);
  {
    ScopedSpan Span("outer");
    { ScopedSpan Nested("inner"); }
  }
  const TelemetrySpan *Outer = T.spans().find("outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_NE(Outer->find("inner"), nullptr);
}

TEST(Telemetry, JsonRoundTrip) {
  Telemetry T;
  T.addCounter("diff.script_bytes", 23);
  T.addCounter("lp.pivots", 143);
  T.setGauge("lp.ilp_seconds", 0.25);
  T.beginSpan("recompile");
  T.beginSpan("ra");
  T.endSpan();
  T.endSpan();
  T.beginSpan("diff");
  T.endSpan();

  auto Doc = json::parse(T.toJson());
  ASSERT_TRUE(Doc.has_value()) << T.toJson();

  const json::Value *Version = Doc->find("version");
  ASSERT_NE(Version, nullptr);
  EXPECT_EQ(Version->Num, 1.0);

  const json::Value *Counters = Doc->find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("diff.script_bytes"), nullptr);
  EXPECT_EQ(Counters->find("diff.script_bytes")->Num, 23.0);
  EXPECT_EQ(Counters->find("lp.pivots")->Num, 143.0);

  const json::Value *Gauges = Doc->find("gauges");
  ASSERT_NE(Gauges, nullptr);
  ASSERT_NE(Gauges->find("lp.ilp_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(Gauges->find("lp.ilp_seconds")->Num, 0.25);

  const json::Value *Spans = Doc->find("spans");
  ASSERT_NE(Spans, nullptr);
  ASSERT_EQ(Spans->K, json::Value::Array);
  ASSERT_EQ(Spans->Arr.size(), 2u); // recompile, diff — in entry order
  const json::Value &Recompile = Spans->Arr[0];
  EXPECT_EQ(Recompile.find("name")->Str, "recompile");
  EXPECT_EQ(Recompile.find("count")->Num, 1.0);
  EXPECT_GE(Recompile.find("seconds")->Num, 0.0);
  ASSERT_EQ(Recompile.find("children")->Arr.size(), 1u);
  EXPECT_EQ(Recompile.find("children")->Arr[0].find("name")->Str, "ra");
  EXPECT_EQ(Spans->Arr[1].find("name")->Str, "diff");
}

TEST(Telemetry, SpanDurationDistribution) {
  Telemetry T;
  // Five entries of one span name under the root.
  for (int K = 0; K < 5; ++K) {
    T.beginSpan("ra");
    T.endSpan();
  }
  const TelemetrySpan *Ra = T.spans().find("ra");
  ASSERT_NE(Ra, nullptr);
  EXPECT_EQ(Ra->Count, 5);
  EXPECT_EQ(Ra->Dist.Count, 5u);
  EXPECT_GE(Ra->Dist.MinSeconds, 0.0);
  EXPECT_GE(Ra->Dist.MaxSeconds, Ra->Dist.MinSeconds);
  double P50 = Ra->quantileSeconds(0.5);
  double P95 = Ra->quantileSeconds(0.95);
  EXPECT_GE(P50, Ra->Dist.MinSeconds);
  EXPECT_GE(P95, P50);
  EXPECT_LE(P95, Ra->Dist.MaxSeconds);
}

TEST(Telemetry, SpanDistributionSerializedInJson) {
  Telemetry T;
  T.beginSpan("diff");
  T.endSpan();
  auto Doc = json::parse(T.toJson());
  ASSERT_TRUE(Doc.has_value()) << T.toJson();
  const json::Value *Spans = Doc->find("spans");
  ASSERT_NE(Spans, nullptr);
  ASSERT_EQ(Spans->Arr.size(), 1u);
  const json::Value *Dist = Spans->Arr[0].find("dist");
  ASSERT_NE(Dist, nullptr) << "span JSON should carry the duration "
                              "distribution";
  for (const char *Key : {"min", "p50", "p95", "max"})
    ASSERT_NE(Dist->find(Key), nullptr) << Key;
  EXPECT_LE(Dist->find("min")->Num, Dist->find("max")->Num);
}

TEST(Telemetry, DurationStorageStaysBounded) {
  Telemetry T;
  const int Entries = 5000;
  for (int K = 0; K < Entries; ++K) {
    T.beginSpan("hot");
    T.endSpan();
  }
  const TelemetrySpan *Hot = T.spans().find("hot");
  ASSERT_NE(Hot, nullptr);
  // Every entry is counted, but storage is log-bucketed: the bucket list
  // can never exceed the fixed bucket universe, and in practice a tight
  // loop of near-identical durations lands in a handful of buckets.
  EXPECT_EQ(Hot->Dist.Count, static_cast<uint64_t>(Entries));
  EXPECT_EQ(Hot->Count, static_cast<int64_t>(Entries));
  EXPECT_LE(Hot->Dist.Buckets.size(),
            static_cast<size_t>(DurationDist::NumBuckets));
  EXPECT_LT(Hot->Dist.Buckets.size(), static_cast<size_t>(Entries));
  // Quantiles stay clamped inside the exact [min, max] envelope.
  double P50 = Hot->quantileSeconds(0.5);
  double P99 = Hot->quantileSeconds(0.99);
  EXPECT_GE(P50, Hot->Dist.MinSeconds);
  EXPECT_LE(P99, Hot->Dist.MaxSeconds);
  EXPECT_LE(P50, P99);
}

TEST(Telemetry, DurationDistBucketsRoundTrip) {
  // bucketFor/valueFor agree within the ~3% sub-bucket resolution across
  // many orders of magnitude.
  for (double S : {1e-9, 3.7e-6, 1e-3, 0.25, 1.0, 17.5, 3600.0}) {
    uint16_t B = DurationDist::bucketFor(S);
    double Mid = DurationDist::valueFor(B);
    EXPECT_NEAR(Mid, S, S * 0.05) << "seconds=" << S;
  }

  DurationDist D;
  for (int K = 0; K < 90; ++K)
    D.record(0.001);
  for (int K = 0; K < 10; ++K)
    D.record(1.0);
  // 90% of the mass is at ~1ms; the p50 must sit there and the p99 must
  // reach the 1s outliers.
  EXPECT_NEAR(D.quantileSeconds(0.5), 0.001, 0.001 * 0.05);
  EXPECT_NEAR(D.quantileSeconds(0.99), 1.0, 1.0 * 0.05);

  DurationDist Other;
  for (int K = 0; K < 100; ++K)
    Other.record(1.0);
  D.merge(Other);
  EXPECT_EQ(D.Count, 200u);
  // After the merge, more than half the mass is at 1s.
  EXPECT_NEAR(D.quantileSeconds(0.5), 1.0, 1.0 * 0.05);
}

TEST(DurationDist, RecordsExactEnvelopeAndBucketedQuantiles) {
  DurationDist H;
  EXPECT_EQ(H.Count, 0u);
  EXPECT_EQ(H.quantileSeconds(0.5), 0.0);

  for (int K = 0; K < 90; ++K)
    H.record(0.001);
  for (int K = 0; K < 10; ++K)
    H.record(0.1);

  EXPECT_EQ(H.Count, 100u);
  EXPECT_EQ(H.MinSeconds, 0.001);
  EXPECT_EQ(H.MaxSeconds, 0.1);
  // p50 sits in the 1ms mass; p99 reaches the 100ms outliers.
  EXPECT_NEAR(H.quantileSeconds(0.50), 0.001, 0.001 * 0.05);
  EXPECT_NEAR(H.quantileSeconds(0.99), 0.1, 0.1 * 0.05);
  // Quantiles never escape the exact [min, max] envelope.
  EXPECT_GE(H.quantileSeconds(0.0), H.MinSeconds);
  EXPECT_LE(H.quantileSeconds(1.0), H.MaxSeconds);

  // A single entry reads back exactly, not as its bucket's midpoint.
  DurationDist One;
  One.record(0.0123);
  EXPECT_EQ(One.quantileSeconds(0.5), 0.0123);
}

TEST(DurationDist, MergeCombinesEnvelopes) {
  DurationDist A, B, Empty;
  for (int K = 0; K < 10; ++K)
    A.record(0.001);
  for (int K = 0; K < 30; ++K)
    B.record(1.0);

  A.merge(B);
  EXPECT_EQ(A.Count, 40u);
  EXPECT_EQ(A.MinSeconds, 0.001);
  EXPECT_EQ(A.MaxSeconds, 1.0);
  // 75% of the merged mass is at 1s, so the median moved there.
  EXPECT_NEAR(A.quantileSeconds(0.5), 1.0, 1.0 * 0.05);

  // Merging an empty distribution changes nothing; merging into one
  // takes the other's envelope as is.
  A.merge(Empty);
  EXPECT_EQ(A.Count, 40u);
  EXPECT_EQ(A.MinSeconds, 0.001);
  Empty.merge(B);
  EXPECT_EQ(Empty.MinSeconds, 1.0);
  EXPECT_EQ(Empty.MaxSeconds, 1.0);
}

TEST(Telemetry, JsonEscapesAwkwardNames) {
  Telemetry T;
  T.addCounter("weird\"name\\with\nstuff", 1);
  auto Doc = json::parse(T.toJson());
  ASSERT_TRUE(Doc.has_value()) << T.toJson();
  const json::Value *Counters = Doc->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_NE(Counters->find("weird\"name\\with\nstuff"), nullptr);
}

} // namespace
