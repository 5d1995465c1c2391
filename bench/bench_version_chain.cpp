//===- bench/bench_version_chain.cpp - multi-version update pipeline ------===//
//
// Drives a firmware lineage (a sense-and-report app growing features over
// five releases) through the VersionStore under UCC-RA and under the
// update-oblivious GCC-RA baseline, then plans a mixed-version fleet
// campaign. Reports the cumulative over-the-air edit-script cost of the
// whole chain, the direct-vs-composed planner decision for the oldest
// stragglers, and the dissemination energy of bringing a line fleet to the
// head release.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/VersionStore.h"
#include "net/EventSim.h"
#include "net/Network.h"
#include "serve/PlanService.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ucc;
using namespace uccbench;

namespace {

/// Shared runtime the whole lineage keeps: sampling, smoothing, and a
/// little fixed-point math, TinyOS-style.
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

int checksum16(int a, int b) {
  int s = a + b;
  int folded = (s & 0xff) + ((s >> 8) & 0xff);
  return folded & 0xff;
}
)";

/// The release lineage. Each step is a realistic maintenance update:
///   v0  raw sampling, report every tick
///   v1  smooth the samples before reporting       (statement level)
///   v2  add a threshold alarm handler             (function level)
///   v3  checksum the report, retune the threshold (statement level)
///   v4  duty-cycle reports by history energy      (structure level)
std::vector<std::string> releaseChain() {
  std::vector<std::string> Chain;

  Chain.push_back(std::string(Prelude) + R"(
void report(int value) {
  __out(1, value & 0xff);
  report_count = report_count + 1;
}

void main() {
  int ticks = 0;
  while (ticks < 48) {
    sys_ticks = __in(3);
    int raw = __in(4);
    report(raw & 0xff);
    ticks = ticks + 1;
  }
  __out(15, report_count);
  __halt();
}
)");

  Chain.push_back(std::string(Prelude) + R"(
void report(int value) {
  __out(1, value & 0xff);
  report_count = report_count + 1;
}

void main() {
  int ticks = 0;
  while (ticks < 48) {
    sys_ticks = __in(3);
    int raw = __in(4);
    int sm = smooth_sample(raw);
    report(sm);
    ticks = ticks + 1;
  }
  __out(15, report_count);
  __halt();
}
)");

  Chain.push_back(std::string(Prelude) + R"(
int alarm_count;

void report(int value) {
  __out(1, value & 0xff);
  report_count = report_count + 1;
}

void check_alarm(int sm) {
  if (sm > 200) {
    __out(2, sm & 0xff);
    alarm_count = alarm_count + 1;
  }
}

void main() {
  int ticks = 0;
  while (ticks < 48) {
    sys_ticks = __in(3);
    int raw = __in(4);
    int sm = smooth_sample(raw);
    check_alarm(sm);
    report(sm);
    ticks = ticks + 1;
  }
  __out(15, report_count + alarm_count);
  __halt();
}
)");

  Chain.push_back(std::string(Prelude) + R"(
int alarm_count;

void report(int value) {
  int code = checksum16(value, sys_ticks);
  __out(1, value & 0xff);
  __out(3, code);
  report_count = report_count + 1;
}

void check_alarm(int sm) {
  if (sm > 180) {
    __out(2, sm & 0xff);
    alarm_count = alarm_count + 1;
  }
}

void main() {
  int ticks = 0;
  while (ticks < 48) {
    sys_ticks = __in(3);
    int raw = __in(4);
    int sm = smooth_sample(raw);
    check_alarm(sm);
    report(sm);
    ticks = ticks + 1;
  }
  __out(15, report_count + alarm_count);
  __halt();
}
)");

  Chain.push_back(std::string(Prelude) + R"(
int alarm_count;

int history_energy() {
  int acc = 0;
  int i;
  for (i = 0; i < 8; i = i + 1) {
    int h = history[i];
    acc = acc + ((h * h) >> 4);
  }
  return acc & 0x7fff;
}

void report(int value) {
  int code = checksum16(value, sys_ticks);
  __out(1, value & 0xff);
  __out(3, code);
  report_count = report_count + 1;
}

void check_alarm(int sm) {
  if (sm > 180) {
    __out(2, sm & 0xff);
    alarm_count = alarm_count + 1;
  }
}

void main() {
  int ticks = 0;
  while (ticks < 48) {
    sys_ticks = __in(3);
    int raw = __in(4);
    int sm = smooth_sample(raw);
    check_alarm(sm);
    if ((ticks & 3) == 0 || history_energy() > 512) {
      report(sm);
    }
    ticks = ticks + 1;
  }
  __out(15, report_count + alarm_count);
  __halt();
}
)");

  return Chain;
}

VersionStore buildStore(const std::vector<std::string> &Chain,
                        const CompileOptions &Opts) {
  VersionStore Store;
  DiagnosticEngine Diag;
  if (Store.addInitial(Chain.front(), Opts, Diag) != 0) {
    std::fprintf(stderr, "bench_version_chain: %s\n", Diag.str().c_str());
    std::exit(1);
  }
  for (size_t V = 1; V < Chain.size(); ++V) {
    if (Store.addUpdate(Chain[V], Opts, Diag) != static_cast<int>(V)) {
      std::fprintf(stderr, "bench_version_chain: %s\n", Diag.str().c_str());
      std::exit(1);
    }
  }
  return Store;
}

size_t cumulativeScriptBytes(const VersionStore &Store) {
  size_t Total = 0;
  for (const auto &V : Store.versions())
    if (V->Parent >= 0)
      Total += V->FromParent.scriptBytes();
  return Total;
}

} // namespace

int main(int Argc, char **Argv) {
  uccbench::BenchHarness Bench(Argc, Argv, "version_chain");

  std::vector<std::string> Chain = releaseChain();
  const int FleetNodes = Bench.quick() ? 12 : 40;
  if (Bench.quick())
    Chain.resize(3);
  const int Head = static_cast<int>(Chain.size()) - 1;

  std::printf("Version chain: %zu releases through the VersionStore, "
              "line(%d) fleet\n\n", Chain.size(), FleetNodes);

  VersionStore Ucc = buildStore(Chain, uccOptions());
  VersionStore Gcc = buildStore(Chain, baselineOptions());

  std::printf("%4s  %10s  %10s  %6s  %6s\n", "step", "UCC bytes",
              "GCC bytes", "code", "data");
  for (int V = 1; V <= Head; ++V)
    std::printf("v%d>v%d  %10zu  %10zu  %6zu  %6d\n", V - 1, V,
                Ucc.find(V)->FromParent.scriptBytes(),
                Gcc.find(V)->FromParent.scriptBytes(),
                Ucc.find(V)->Image.Code.size(),
                Ucc.find(V)->Record.GlobalLayout.Words);

  size_t CumUcc = cumulativeScriptBytes(Ucc);
  size_t CumGcc = cumulativeScriptBytes(Gcc);
  double Reduction =
      CumGcc > 0 ? 100.0 * (static_cast<double>(CumGcc) -
                            static_cast<double>(CumUcc)) /
                       static_cast<double>(CumGcc)
                 : 0.0;
  std::printf("%4s  %10zu  %10zu  (%.1f%% fewer bytes over the air)\n\n",
              "sum", CumUcc, CumGcc, Reduction);

  // The planner's call for the oldest straggler: ship the composed
  // stepwise chain or a fresh endpoint diff?
  auto Plan = Ucc.plan(0, Head);
  if (!Plan) {
    std::fprintf(stderr, "bench_version_chain: plan(0, %d) failed\n", Head);
    return 1;
  }
  std::printf("plan v0 -> v%d: direct %zu bytes, composed chain %zu bytes "
              "(%d steps) -> %s\n\n", Head, Plan->DirectBytes,
              Plan->ChainedBytes, Plan->ChainSteps,
              Plan->Route == UpdatePlan::RouteKind::Chained ? "chained"
                                                            : "direct");

  // Mixed-version fleet: deployed versions cycle through the lineage, the
  // sink already runs the head release.
  Topology T = Topology::line(FleetNodes);
  std::vector<int> Deployed(static_cast<size_t>(FleetNodes));
  Deployed[0] = Head;
  for (int N = 1; N < FleetNodes; ++N)
    Deployed[static_cast<size_t>(N)] = N % (Head + 1);

  FleetConfig Cfg;
  Cfg.Link.LossRate = 0.1;
  Cfg.Seed = 42;
  DiagnosticEngine Diag;
  // The campaign runs through the serving layer, like the uccc tool and
  // a real long-lived sink would; plans (and so every campaign metric)
  // are byte-identical to the store-backed path.
  PlanService Service(std::move(Ucc));
  auto Campaign = planFleetCampaign(Service, T, Deployed, Head, Diag, Cfg);
  if (!Campaign) {
    std::fprintf(stderr, "bench_version_chain: %s\n", Diag.str().c_str());
    return 1;
  }
  std::printf("campaign to v%d: %zu cohorts, %d node(s) updated, "
              "%d already current\n", Head, Campaign->Cohorts.size(),
              Campaign->NodesUpdated, Campaign->NodesCurrent);
  int IncompleteCohorts = 0;
  for (const UpdateCohort &C : Campaign->Cohorts) {
    std::printf("  from v%d: %zu node(s), %zu script bytes, %.4f J, "
                "%d node(s) incomplete\n",
                C.FromVersion, C.Nodes.size(), C.ScriptBytes,
                C.Flood.totalJoules(), C.Flood.NodesIncomplete);
    IncompleteCohorts += C.Flood.NodesIncomplete > 0;
  }
  std::printf("  total: %zu bytes on air, %.4f J\n",
              Campaign->totalBytesOnAir(), Campaign->totalJoules());
  if (IncompleteCohorts > 0) {
    std::fprintf(stderr,
                 "bench_version_chain: %d cohort flood(s) left nodes "
                 "incomplete\n",
                 IncompleteCohorts);
    return 1;
  }

  Bench.metric("chain_steps", static_cast<double>(Head));
  Bench.metric("cum_script_bytes_ucc", static_cast<double>(CumUcc));
  Bench.metric("cum_script_bytes_gcc", static_cast<double>(CumGcc));
  Bench.metric("reduction_pct", Reduction);
  Bench.metric("plan_direct_bytes",
               static_cast<double>(Plan->DirectBytes));
  Bench.metric("plan_chained_bytes",
               static_cast<double>(Plan->ChainedBytes));
  Bench.metric("plan_route_chained",
               Plan->Route == UpdatePlan::RouteKind::Chained ? 1.0 : 0.0);
  Bench.metric("campaign_cohorts",
               static_cast<double>(Campaign->Cohorts.size()));
  Bench.metric("campaign_bytes_on_air",
               static_cast<double>(Campaign->totalBytesOnAir()));
  Bench.metric("campaign_joules", Campaign->totalJoules());
  return 0;
}
