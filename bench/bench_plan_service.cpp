//===- bench/bench_plan_service.cpp - serving throughput and latency ------===//
//
// Measures the serve/PlanService layer under a realistic fleet-version
// request mix: a long release lineage committed to a VersionStore, then a
// Zipf-skewed stream of plan(from, head) requests (most of the fleet runs
// the release just behind the head, a long tail lags several back, and a
// sprinkling of arbitrary pairs models cross-version queries). Prints
// cache-cold vs cache-warm plans/sec and p95/p99 latency, replays the
// whole stream as one batch over the warm cache, pins LRU's behaviour
// under a one-pass scan, and checks the correctness anchor: every served
// plan is byte-identical to the direct VersionStore::plan result, with
// the cache on and off. The bench hard-fails if the cache-warm speedup
// drops below 5x cold or any plan diverges.
//
// Latency percentiles are DurationDist quantiles (log buckets, about 3%
// resolution). The timings are printed only; the reported metrics
// (request mix, hit/miss accounting, route choices, script bytes, the
// scripted eviction and scan scenarios) are deterministic for a given
// profile and regression-gated.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/VersionStore.h"
#include "serve/PlanService.h"
#include "support/Format.h"
#include "support/RNG.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

using namespace ucc;
using namespace uccbench;

namespace {

/// Shared runtime every release keeps (sampling and fixed-point helpers).
const char *Prelude = R"(
int sys_ticks;
int prev_sample;
int history[8];
int hist_pos;
int report_count;

int clamp8(int v) {
  return v & 0xff;
}

int smooth_sample(int raw) {
  int cur = clamp8(raw);
  int sm = (prev_sample * 3 + cur) >> 2;
  history[hist_pos] = sm;
  hist_pos = (hist_pos + 1) & 7;
  prev_sample = sm;
  return sm;
}
)";

/// Release \p V of a firmware lineage that accretes one feature handler
/// per release and retunes a threshold — function-level growth plus
/// statement-level churn, the paper's frequent-update regime.
std::string releaseSource(int V) {
  std::string S = Prelude;
  for (int F = 0; F < V; ++F)
    S += format(R"(
int feature_%d(int x) {
  int acc = x + %d;
  acc = acc ^ (x << %d);
  if (acc > %d) {
    acc = acc - (x >> 1);
  }
  return acc & 0x7fff;
}
)",
                F, 17 + F * 13, 1 + (F % 3), 900 - F * 31);
  S += format(R"(
void main() {
  int ticks = 0;
  int acc = 0;
  while (ticks < %d) {
    sys_ticks = __in(3);
    int sm = smooth_sample(__in(4));
    acc = acc + sm;
)",
              40 + V);
  for (int F = 0; F < V; ++F)
    S += format("    acc = acc + feature_%d(acc);\n", F);
  S += format(R"(
    if (acc > %d) {
      __out(1, acc & 0xff);
      report_count = report_count + 1;
    }
    ticks = ticks + 1;
  }
  __out(15, report_count);
  __halt();
}
)",
              300 - V * 7);
  return S;
}

VersionStore buildStore(int Versions) {
  VersionStore Store;
  DiagnosticEngine Diag;
  for (int V = 0; V < Versions; ++V) {
    int Id = V == 0
                 ? Store.addInitial(releaseSource(0), uccOptions(), Diag)
                 : Store.addUpdate(releaseSource(V), uccOptions(), Diag);
    if (Id != V) {
      std::fprintf(stderr, "bench_plan_service: %s\n", Diag.str().c_str());
      std::exit(1);
    }
  }
  return Store;
}

PlanServiceOptions serveOpts(size_t Capacity) {
  PlanServiceOptions Opts;
  Opts.CacheCapacity = Capacity;
  return Opts;
}

/// Plans the first \p Requests pairs of \p Stream one at a time, records
/// each one's latency into \p Latency, and returns plans/sec. Hard-fails
/// the bench on the first request the service answers null.
double timedPlans(const PlanService &Svc,
                  const std::vector<std::pair<int, int>> &Stream, int Requests,
                  DurationDist &Latency, const char *Phase) {
  using Clock = std::chrono::steady_clock;
  auto Seconds = [](Clock::time_point Begin) {
    return std::chrono::duration<double>(Clock::now() - Begin).count();
  };
  Clock::time_point Begin = Clock::now();
  for (int K = 0; K < Requests; ++K) {
    const auto &[From, To] = Stream[static_cast<size_t>(K)];
    Clock::time_point T0 = Clock::now();
    bool Ok = Svc.plan(From, To) != nullptr;
    Latency.record(Seconds(T0));
    if (!Ok) {
      std::fprintf(stderr, "bench_plan_service: %s plan %d -> %d failed\n",
                   Phase, From, To);
      std::exit(1);
    }
  }
  return Requests / Seconds(Begin);
}

double quantileUs(const DurationDist &H, double Q) {
  return H.quantileSeconds(Q) * 1e6;
}

} // namespace

int main(int Argc, char **Argv) {
  uccbench::BenchHarness Bench(Argc, Argv, "plan_service");

  const int Versions = Bench.quick() ? 6 : 10;
  const int Requests = Bench.quick() ? 1500 : 12000;
  const int ColdRequests = Bench.quick() ? 40 : 150;
  const int WarmSeqRequests = Bench.quick() ? 1000 : 2000;
  const int Head = Versions - 1;
  const double ZipfS = 1.2;

  std::printf("Plan service: %d releases, %d requests, zipf s=%.1f, "
              "target v%d\n\n",
              Versions, Requests, ZipfS, Head);

  // Two identical chains: one stays a raw store (the byte-identity
  // reference), one becomes the service under test.
  VersionStore Reference = buildStore(Versions);
  PlanService Service(buildStore(Versions), serveOpts(512));

  // The request stream: Zipf-ranked stale versions against the head
  // (rank 1 = the release just behind it), plus every 7th request an
  // arbitrary cross-version pair for diversity. Seeded, so the stream —
  // and every deterministic metric below — is identical across runs.
  std::vector<int> Candidates;
  for (int Id = 0; Id < Versions; ++Id)
    if (Id != Head)
      Candidates.push_back(Id);
  std::sort(Candidates.begin(), Candidates.end(),
            [&](int L, int R) { return Head - L < Head - R; });

  RNG Rng(0x5eed1);
  ZipfSampler Zipf(Candidates.size(), ZipfS);
  std::vector<std::pair<int, int>> Stream;
  Stream.reserve(static_cast<size_t>(Requests));
  std::vector<int> Fleet(1, Head); // node 0: the sink
  for (int K = 0; K < Requests; ++K) {
    if (K % 7 == 6) {
      int From = static_cast<int>(Rng.below(static_cast<uint64_t>(
          Versions)));
      int To = static_cast<int>(Rng.below(static_cast<uint64_t>(
          Versions)));
      if (From == To)
        To = (From + 1) % Versions;
      Stream.push_back({From, To});
    } else {
      int From = Candidates[Zipf.sample(Rng) - 1];
      Stream.push_back({From, Head});
      Fleet.push_back(From);
    }
  }

  std::vector<std::pair<int, int>> Unique;
  for (const auto &P : Stream)
    if (std::find(Unique.begin(), Unique.end(), P) == Unique.end())
      Unique.push_back(P);

  // The byte-identity oracle: the raw store's answer for every distinct
  // pair the stream touches. Every serving configuration below — cache on
  // or off — must reproduce these bytes exactly, so the route and
  // script-byte metrics read them here.
  std::map<std::pair<int, int>, std::vector<uint8_t>> RefBytes;
  int ChainedRoutes = 0;
  size_t TotalScriptBytes = 0;
  for (const auto &[From, To] : Unique) {
    auto Direct = Reference.plan(From, To);
    if (!Direct) {
      std::fprintf(stderr, "bench_plan_service: reference plan failed\n");
      return 1;
    }
    RefBytes[{From, To}] = Direct->Update.serialize();
    TotalScriptBytes += Direct->ScriptBytes;
    if (Direct->Route == UpdatePlan::RouteKind::Chained)
      ++ChainedRoutes;
  }
  // Byte identity is the acceptance anchor, so any divergence hard-fails.
  auto verifyService = [&](const PlanService &Svc) {
    int Bad = 0;
    for (const auto &[From, To] : Unique) {
      auto P = Svc.plan(From, To);
      if (!P || P->Update.serialize() != RefBytes[{From, To}]) {
        std::fprintf(stderr,
                     "bench_plan_service: plan %d -> %d diverges from "
                     "the direct store plan\n",
                     From, To);
        ++Bad;
      }
    }
    return Bad;
  };

  // --- Cache-cold: capacity 0 disables caching, every request pays the
  // full direct-diff + chain-compose planning cost.
  PlanService Cold(buildStore(Versions), serveOpts(0));
  DurationDist ColdLatency;
  double ColdPlansPerSec =
      timedPlans(Cold, Stream, ColdRequests, ColdLatency, "cold");
  int Mismatches = verifyService(Cold); // byte identity with caching off
  double ColdP95Us = quantileUs(ColdLatency, 0.95);
  double ColdP99Us = quantileUs(ColdLatency, 0.99);

  // --- Cache-warm: precompute from the observed fleet histogram, prefill
  // the long tail with one batch, then measure pure served traffic.
  int Warmed = Service.warm(Fleet, Head, Bench.jobs());
  Service.planBatch(Unique, Bench.jobs()); // prefill the diverse pairs
  PlanServiceStats Before = Service.stats();

  DurationDist WarmLatency;
  double WarmPlansPerSec =
      timedPlans(Service, Stream, WarmSeqRequests, WarmLatency, "warm");
  double WarmP95Us = quantileUs(WarmLatency, 0.95);
  double WarmP99Us = quantileUs(WarmLatency, 0.99);

  // The whole stream as one batch, untimed: it feeds the hit/miss
  // accounting below.
  for (const auto &P : Service.planBatch(Stream, Bench.jobs()))
    if (!P) {
      std::fprintf(stderr, "bench_plan_service: a batched plan failed\n");
      return 1;
    }
  PlanServiceStats After = Service.stats();

  uint64_t MeasuredHits = After.Hits - Before.Hits;
  uint64_t MeasuredMisses = After.Misses - Before.Misses;
  double Speedup = WarmPlansPerSec / ColdPlansPerSec;

  Mismatches += verifyService(Service); // byte identity after warm traffic

  // --- Scan-thrash: a hot pair of plans accessed repeatedly, then a
  // one-pass scan over every other stale version. LRU lets the scan evict
  // the hot set: two extra misses when it returns. Deterministic, so the
  // gate pins the count.
  uint64_t ScanHotMissesLru = 0;
  {
    PlanService Svc(buildStore(Versions), serveOpts(2));
    for (int K = 0; K < 3; ++K) {
      Svc.plan(0, Head);
      Svc.plan(1, Head);
    }
    for (int From = 2; From < Head; ++From)
      Svc.plan(From, Head); // the scan
    uint64_t Mid = Svc.stats().Misses;
    Svc.plan(0, Head);
    Svc.plan(1, Head);
    ScanHotMissesLru = Svc.stats().Misses - Mid;
  }

  // --- A scripted eviction scenario the regression gate can pin: a
  // capacity-2 cache walked through three pairs evicts the LRU pair, and
  // that pair's return misses and evicts again — two evictions total.
  uint64_t Cap2Evictions;
  {
    PlanService Tiny(buildStore(Versions), serveOpts(2));
    Tiny.plan(0, Head);
    Tiny.plan(1, Head);
    Tiny.plan(2, Head); // evicts (0, Head)
    Tiny.plan(0, Head); // misses again, evicts (1, Head)
    Cap2Evictions = Tiny.stats().Evictions;
  }

  std::printf("%-28s %12s %12s\n", "", "cold", "warm");
  std::printf("%-28s %12.0f %12.0f\n", "plans/sec", ColdPlansPerSec,
              WarmPlansPerSec);
  std::printf("%-28s %12.1f %12.1f\n", "p95 latency (us)", ColdP95Us,
              WarmP95Us);
  std::printf("%-28s %12.1f %12.1f\n", "p99 latency (us)", ColdP99Us,
              WarmP99Us);
  std::printf("\nwarm speedup over cold:      %.1fx\n", Speedup);
  std::printf("distinct pairs in stream:    %zu (%d chained routes, "
              "%zu script bytes)\n",
              Unique.size(), ChainedRoutes, TotalScriptBytes);
  std::printf("warmed pairs:                %d\n", Warmed);
  std::printf("measured hits/misses:        %llu / %llu\n",
              static_cast<unsigned long long>(MeasuredHits),
              static_cast<unsigned long long>(MeasuredMisses));

  std::printf("\nscan-thrash hot misses:      %llu (lru)\n",
              static_cast<unsigned long long>(ScanHotMissesLru));
  std::printf("capacity-2 evictions:        %llu\n",
              static_cast<unsigned long long>(Cap2Evictions));
  std::printf("byte-identical to store:     %s\n",
              Mismatches == 0 ? "yes" : "NO");

  Bench.metric("versions", Versions);
  Bench.metric("requests", Requests);
  Bench.metric("unique_pairs", static_cast<double>(Unique.size()));
  Bench.metric("warmed_pairs", Warmed);
  Bench.metric("measured_hits", static_cast<double>(MeasuredHits));
  Bench.metric("measured_misses", static_cast<double>(MeasuredMisses));
  Bench.metric("chained_routes", ChainedRoutes);
  Bench.metric("total_script_bytes",
               static_cast<double>(TotalScriptBytes));
  Bench.metric("cap2_evictions", static_cast<double>(Cap2Evictions));
  Bench.metric("scan_hot_misses_lru",
               static_cast<double>(ScanHotMissesLru));
  Bench.metric("byte_identical", Mismatches == 0 ? 1.0 : 0.0);

  if (Mismatches != 0)
    return 1;
  if (Speedup < 5.0) {
    std::fprintf(stderr,
                 "bench_plan_service: warm speedup %.1fx is below the "
                 "5x acceptance floor\n",
                 Speedup);
    return 1;
  }
  return 0;
}
