//===- support/Metrics.cpp - time-series metrics over Telemetry ----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Json.h"

#include <chrono>
#include <fstream>

using namespace ucc;

//===----------------------------------------------------------------------===//
// MetricsSnapshotter
//===----------------------------------------------------------------------===//

static double steadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MetricsSnapshotter::MetricsSnapshotter(const Telemetry &T,
                                       size_t WindowCapacity)
    : Reg(T), Capacity(WindowCapacity == 0 ? 1 : WindowCapacity),
      EpochSteadySeconds(steadyNowSeconds()) {}

const MetricsSnapshot &MetricsSnapshotter::sample() {
  return sample(steadyNowSeconds() - EpochSteadySeconds);
}

const MetricsSnapshot &MetricsSnapshotter::sample(double NowSeconds) {
  MetricsSnapshot S;
  S.TsSeconds = NowSeconds;
  S.Counters = Reg.counters();
  S.Gauges = Reg.gauges();
  Window.push_back(std::move(S));
  while (Window.size() > Capacity)
    Window.pop_front();
  return Window.back();
}

static double rateBetween(const MetricsSnapshot &A, const MetricsSnapshot &B,
                          const std::string &Name) {
  double Dt = B.TsSeconds - A.TsSeconds;
  if (!(Dt > 0.0))
    return 0.0;
  auto FindOrZero = [&](const MetricsSnapshot &S) -> int64_t {
    auto It = S.Counters.find(Name);
    return It == S.Counters.end() ? 0 : It->second;
  };
  return static_cast<double>(FindOrZero(B) - FindOrZero(A)) / Dt;
}

double MetricsSnapshotter::rate(const std::string &Name) const {
  if (Window.size() < 2)
    return 0.0;
  return rateBetween(Window[Window.size() - 2], Window.back(), Name);
}

std::string MetricsSnapshotter::lastJsonLine() const {
  if (Window.empty())
    return "";
  const MetricsSnapshot &S = Window.back();
  json::Value Doc = json::Value::object();
  Doc.set("ts", json::Value::number(S.TsSeconds));
  json::Value Counters = json::Value::object();
  for (const auto &KV : S.Counters)
    Counters.set(KV.first,
                 json::Value::number(static_cast<double>(KV.second)));
  Doc.set("counters", std::move(Counters));
  json::Value Gauges = json::Value::object();
  for (const auto &KV : S.Gauges)
    Gauges.set(KV.first, json::Value::number(KV.second));
  Doc.set("gauges", std::move(Gauges));
  json::Value Rates = json::Value::object();
  if (Window.size() >= 2) {
    const MetricsSnapshot &Prev = Window[Window.size() - 2];
    for (const auto &KV : S.Counters) {
      double R = rateBetween(Prev, S, KV.first);
      if (R != 0.0)
        Rates.set(KV.first, json::Value::number(R));
    }
  }
  Doc.set("rates", std::move(Rates));
  return Doc.serialize();
}

//===----------------------------------------------------------------------===//
// FlightRecorder
//===----------------------------------------------------------------------===//

FlightRecorder::FlightRecorder(const Telemetry &T, SloConfig C)
    : Reg(T), Cfg(std::move(C)) {}

bool FlightRecorder::check(double P99Us, int64_t Errors, double NowSeconds) {
  bool Breached = false;
  if (Cfg.P99LatencyUs > 0.0 && P99Us > Cfg.P99LatencyUs)
    Breached = true;
  if (Cfg.MaxErrors >= 0 && Errors > Cfg.MaxErrors)
    Breached = true;
  if (!Breached)
    return false;
  ++Breaches;
  if (Cfg.TracePath.empty() || Dumps >= Cfg.MaxDumps)
    return false;
  if (EverDumped && NowSeconds - LastDumpSeconds < Cfg.CooldownSeconds)
    return false;
  std::ofstream Out(Cfg.TracePath, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Reg.toChromeTrace();
  Out.close();
  ++Dumps;
  EverDumped = true;
  LastDumpSeconds = NowSeconds;
  return true;
}
