//===- tests/MetricsTest.cpp - time-series metrics over Telemetry ---------===//
//
// Contract of support/Metrics: a snapshotter whose rates and JSONL lines
// are deterministic under an injected clock, and a flight recorder that
// honors its threshold, cooldown, and lifetime-cap policy.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <unistd.h>

using namespace ucc;

namespace {

TEST(MetricsSnapshotter, WindowedRatesUnderInjectedClock) {
  Telemetry T;
  MetricsSnapshotter S(T, /*WindowCapacity=*/4);
  EXPECT_EQ(S.lastJsonLine(), "");

  T.addCounter("serve.plans", 100);
  S.sample(1.0);
  EXPECT_EQ(S.rate("serve.plans"), 0.0) << "one sample has no rate";

  T.addCounter("serve.plans", 50);
  S.sample(2.0);
  EXPECT_DOUBLE_EQ(S.rate("serve.plans"), 50.0);

  T.addCounter("serve.plans", 200);
  S.sample(4.0);
  EXPECT_DOUBLE_EQ(S.rate("serve.plans"), 100.0); // 200 over 2s

  // The window is bounded: after two more samples the t=1 snapshot ages
  // out.
  S.sample(5.0);
  S.sample(6.0);
  EXPECT_EQ(S.window().size(), 4u);
  EXPECT_DOUBLE_EQ(S.window().front().TsSeconds, 2.0);
}

TEST(MetricsSnapshotter, JsonLineCarriesCountersGaugesAndMovedRates) {
  Telemetry T;
  MetricsSnapshotter S(T);
  T.addCounter("serve.plans", 10);
  T.addCounter("serve.misses", 3);
  T.setGauge("serve.p99_us", 420.5);
  S.sample(1.0);
  T.addCounter("serve.plans", 10); // misses stays put
  S.sample(2.0);

  auto Doc = testjson::parse(S.lastJsonLine());
  ASSERT_TRUE(Doc.has_value()) << S.lastJsonLine();
  EXPECT_DOUBLE_EQ(Doc->get("ts")->Num, 2.0);
  ASSERT_NE(Doc->get("counters"), nullptr);
  EXPECT_DOUBLE_EQ(Doc->get("counters")->get("serve.plans")->Num, 20.0);
  ASSERT_NE(Doc->get("gauges"), nullptr);
  EXPECT_DOUBLE_EQ(Doc->get("gauges")->get("serve.p99_us")->Num, 420.5);
  const testjson::Value *Rates = Doc->get("rates");
  ASSERT_NE(Rates, nullptr);
  ASSERT_NE(Rates->get("serve.plans"), nullptr);
  EXPECT_DOUBLE_EQ(Rates->get("serve.plans")->Num, 10.0);
  EXPECT_EQ(Rates->get("serve.misses"), nullptr)
      << "counters that did not move carry no rate entry";
}

TEST(FlightRecorder, DumpsOnBreachWithCooldownAndCap) {
  char Template[] = "/tmp/ucc-flight-XXXXXX";
  ASSERT_NE(mkdtemp(Template), nullptr);
  std::string TracePath = std::string(Template) + "/flight.json";

  Telemetry T;
  T.enableEvents();
  T.recordEvent(TelemetryEvent::Phase::Instant, "test", "breach-marker", 0);

  SloConfig Cfg;
  Cfg.P99LatencyUs = 1000.0;
  Cfg.TracePath = TracePath;
  Cfg.CooldownSeconds = 5.0;
  Cfg.MaxDumps = 2;
  FlightRecorder R(T, Cfg);

  EXPECT_FALSE(R.check(/*P99Us=*/500.0, /*Errors=*/0, /*Now=*/0.0));
  EXPECT_EQ(R.breaches(), 0);

  // First breach dumps immediately.
  EXPECT_TRUE(R.check(2000.0, 0, 1.0));
  EXPECT_EQ(R.breaches(), 1);
  EXPECT_EQ(R.dumps(), 1);
  {
    std::ifstream In(TracePath, std::ios::binary);
    std::string Trace((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    EXPECT_NE(Trace.find("breach-marker"), std::string::npos)
        << "the dump must carry the registry's event ring";
    EXPECT_NE(Trace.find("traceEvents"), std::string::npos);
  }

  // Inside the cooldown: the breach counts but does not dump.
  EXPECT_FALSE(R.check(2000.0, 0, 3.0));
  EXPECT_EQ(R.breaches(), 2);
  EXPECT_EQ(R.dumps(), 1);

  // Past the cooldown: second (and last allowed) dump.
  EXPECT_TRUE(R.check(2000.0, 0, 7.0));
  EXPECT_EQ(R.dumps(), 2);

  // Lifetime cap: no third dump no matter how far apart.
  EXPECT_FALSE(R.check(2000.0, 0, 100.0));
  EXPECT_EQ(R.breaches(), 4);
  EXPECT_EQ(R.dumps(), 2);

  std::remove(TracePath.c_str());
  rmdir(Template);
}

TEST(FlightRecorder, ErrorThresholdAndDisabledThresholds) {
  Telemetry T;
  SloConfig Cfg; // no TracePath: breaches are counted, never dumped
  Cfg.MaxErrors = 2;
  FlightRecorder R(T, Cfg);

  EXPECT_FALSE(R.check(1e9, 2, 1.0)) << "p99 threshold left disabled";
  EXPECT_EQ(R.breaches(), 0);
  EXPECT_FALSE(R.check(0.0, 3, 2.0)) << "no trace path, so no dump";
  EXPECT_EQ(R.breaches(), 1);
  EXPECT_EQ(R.dumps(), 0);
}

} // namespace
