//===- perfbench/src/Bench.cpp - shared pieces of the update benchmark ----===//

#include "Bench.h"

#include "diff/ImageDiff.h"
#include "energy/EnergyModel.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <sys/resource.h>

namespace pb {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

void chunkWindows(RunOutput &Out, size_t Chunk) {
  for (size_t K = 0; K + Chunk <= Out.OpMs.size(); K += Chunk) {
    std::vector<double> W(Out.OpMs.begin() + static_cast<long>(K),
                          Out.OpMs.begin() + static_cast<long>(K + Chunk));
    double Busy = 0;
    for (double Ms : W)
      Busy += Ms / 1e3;
    Out.WindowOpsPerS.push_back(static_cast<double>(Chunk) / Busy);
    Out.WindowMs.push_back(std::move(W));
  }
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

Recorder *&currentRecorder() {
  thread_local Recorder *R = nullptr;
  return R;
}

Span::Span(const char *Name) : R(currentRecorder()) {
  if (!R)
    return;
  Idx = static_cast<int>(R->Spans.size());
  R->Spans.push_back({Name, nowS(), 0, R->Open, R->Op});
  R->Open = Idx;
  R->Tel.beginSpan(Name);
}

Span::~Span() {
  if (!R)
    return;
  R->Tel.endSpan();
  R->Spans[static_cast<size_t>(Idx)].End = nowS();
  R->Open = R->Spans[static_cast<size_t>(Idx)].Parent;
}

TraceScope::TraceScope(Recorder *R, uint64_t Op) : Prev(currentRecorder()) {
  currentRecorder() = R;
  if (R) {
    R->Op = Op;
    Scope = std::make_unique<ucc::TelemetryScope>(R->Tel);
  }
}

TraceScope::~TraceScope() {
  Scope.reset();
  currentRecorder() = Prev;
}

std::vector<double> spanMs(const std::vector<SpanRec> &Spans,
                           const char *Name) {
  std::vector<double> Out;
  std::string N = Name;
  for (const SpanRec &S : Spans)
    if (N == S.Name)
      Out.push_back((S.End - S.Start) * 1e3);
  return Out;
}

void writeSpans(const std::vector<SpanRec> &Spans, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  for (size_t K = 0; K < Spans.size(); ++K) {
    const SpanRec &S = Spans[K];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"op\":%llu}\n",
                 K, S.Name, S.Start, S.End, S.Parent,
                 static_cast<unsigned long long>(S.Op));
  }
  std::fclose(F);
}

namespace {

/// The layer that owns a span: the benchmark's own spans name the public
/// entry point they wrap, the library's spans name a pipeline phase.
std::string layerOf(const std::string &Name) {
  static const std::map<std::string, std::string> Layers = {
      {"op", "bench"},
      {"PlanService::commit", "serve"},
      {"PlanService::plan", "serve"},
      {"applyUpdate", "diff"},
      {"simulateFlood", "net"},
      {"runImage", "sim"},
      {"serve.commit", "serve"},
      {"serve.plan", "serve"},
      {"serve.batch", "serve"},
      {"compile", "core"},
      {"recompile", "core"},
      {"verify", "core"},
      {"store.plan", "core"},
      {"parse", "frontend"},
      {"opt", "opt"},
      {"isel", "codegen"},
      {"encode", "codegen"},
      {"ra", "regalloc"},
      {"da", "dataalloc"},
      {"diff", "diff"},
      {"net", "net"},
      {"campaign", "net"},
      {"sim", "sim"}};
  auto It = Layers.find(Name);
  return It == Layers.end() ? "unmapped" : It->second;
}

/// Self time (seconds) of every span under \p S, by span name.
void selfTimes(const ucc::TelemetrySpan &S, std::map<std::string, double> &Out) {
  double Kids = 0;
  for (const auto &C : S.Children) {
    Kids += C->Seconds;
    selfTimes(*C, Out);
  }
  Out[S.Name] += S.Seconds - Kids;
}

} // namespace

void attributeLayers(const Recorder &Merged, int TracedOps,
                     const std::vector<double> &TracedOpMs,
                     const std::vector<double> &UntracedOpMs,
                     std::map<std::string, double> &Layer) {
  const ucc::Telemetry &T = Merged.Tel;
  double Ops = std::max(1, TracedOps);
  auto ctr = [&](const char *N) { return static_cast<double>(T.counter(N)); };
  auto perOp = [&](const char *N) { return ctr(N) / Ops; };
  auto ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };

  // Self times of everything under the operation roots.
  std::map<std::string, double> ByName;
  if (const ucc::TelemetrySpan *Op = T.spans().find("op"))
    selfTimes(*Op, ByName);
  std::map<std::string, double> ByLayer;
  for (const auto &[Name, Sec] : ByName)
    ByLayer[layerOf(Name)] += Sec;
  // The ILP engine runs inside register allocation; split it out.
  double Ilp = T.gauge("lp.ilp_seconds");
  Ilp = std::min(Ilp, ByName["ra"]);
  double Ra = ByName["ra"] - Ilp;

  Layer["frontend.parse_s"] = ByName["parse"] / Ops;
  Layer["opt.opt_s"] = ByName["opt"] / Ops;
  Layer["codegen.isel_s"] = ByName["isel"] / Ops;
  Layer["codegen.encode_s"] = ByName["encode"] / Ops;
  Layer["regalloc.ra_s"] = Ra / Ops;
  Layer["lp.ilp_s"] = Ilp / Ops;
  Layer["dataalloc.da_s"] = ByName["da"] / Ops;
  Layer["diff.align_s"] = ByName["diff"] / Ops;
  for (const char *L : {"core", "serve", "diff", "net"})
    Layer[std::string(L) + ".self_ms"] = ByLayer[L] * 1e3 / Ops;
  Layer["bench.other_ms"] = ByLayer["bench"] * 1e3 / Ops;
  Layer["bench.unmapped_ms"] = ByLayer["unmapped"] * 1e3 / Ops;

  double Accounted = 0;
  for (const auto &[L, Sec] : ByLayer)
    Accounted += Sec;
  double OpMean = 0;
  for (double V : TracedOpMs)
    OpMean += V;
  OpMean /= std::max<size_t>(1, TracedOpMs.size());
  Layer["bench.op_ms_mean"] = OpMean;
  Layer["bench.accounted_pct"] = ratio(Accounted * 1e3 / Ops, OpMean) * 100;
  double P50Untraced = quantile(UntracedOpMs, 0.5);
  Layer["support.trace_overhead_pct"] =
      P50Untraced > 0 ? (quantile(TracedOpMs, 0.5) / P50Untraced - 1) * 100
                      : 0;

  Layer["core.commit_ms_p50"] =
      quantile(spanMs(Merged.Spans, "PlanService::commit"), 0.5);
  Layer["core.compile_cache_hit_ratio"] =
      ratio(ctr("compile.cache_hits"),
            ctr("compile.cache_hits") + ctr("compile.cache_misses"));

  Layer["lp.pivots"] = perOp("lp.pivots");
  Layer["lp.bb_nodes"] = perOp("lp.bb_nodes");
  Layer["lp.ilp_timeouts"] = perOp("lp.ilp_timeouts");
  Layer["regalloc.ilp_windows"] = perOp("ra.ilp_windows");
  Layer["regalloc.window_cache_hit_ratio"] =
      ratio(ctr("ra.window_cache_hits"),
            ctr("ra.window_cache_hits") + ctr("ra.window_cache_misses"));
  Layer["regalloc.pref_honored_ratio"] =
      ratio(ctr("ra.pref_honored"),
            ctr("ra.pref_honored") + ctr("ra.pref_broken"));
  Layer["regalloc.inserted_movs"] = perOp("ra.inserted_movs");
  Layer["regalloc.spilled_vregs"] = perOp("ra.spilled_vregs");
  Layer["dataalloc.relocated_vars"] = perOp("da.relocated_vars");
  Layer["dataalloc.hole_words"] = perOp("da.hole_words");

  Layer["diff.compositions"] = perOp("diff.compositions");
  Layer["diff.fallback_blocks"] = perOp("diff.fallback_blocks");
  Layer["diff.apply_ms_p50"] = quantile(spanMs(Merged.Spans, "applyUpdate"), 0.5);

  Layer["serve.plan_us_p50"] =
      quantile(spanMs(Merged.Spans, "PlanService::plan"), 0.5) * 1e3;
  Layer["serve.hit_ratio"] = ratio(ctr("serve.cache_hits"), ctr("serve.plans"));
  Layer["serve.inflight_waits"] = perOp("serve.inflight_waits");
  Layer["serve.evictions"] = perOp("serve.evictions");

  std::vector<double> Floods = spanMs(Merged.Spans, "simulateFlood");
  double FloodS = 0;
  for (double V : Floods)
    FloodS += V / 1e3;
  Layer["net.flood_ms_p50"] = quantile(Floods, 0.5);
  Layer["net.events_per_s"] = ratio(ctr("net.event.processed"), FloodS);
  Layer["net.events"] = perOp("net.event.processed");
  Layer["net.collisions"] = perOp("net.collisions");
  Layer["net.requests"] = perOp("net.requests");
  if (!Layer.count("net.retx_ratio"))
    Layer["net.retx_ratio"] = 0;

  Layer["sim.run_ms_p50"] = quantile(spanMs(Merged.Spans, "runImage"), 0.5);
  Layer["sim.cycles"] = ratio(ctr("sim.cycles"), ctr("sim.runs"));
}

//===----------------------------------------------------------------------===//
// Correctness and accounting
//===----------------------------------------------------------------------===//

ucc::CompileOptions commitOptions(bool UccRa, int Jobs) {
  ucc::CompileOptions O;
  O.RA = UccRa ? ucc::RegAllocKind::UpdateConscious
               : ucc::RegAllocKind::Baseline;
  O.DA = ucc::DataAllocKind::UpdateConscious;
  O.Ucc.Strategy = ucc::UccStrategy::Hybrid;
  O.Jobs = Jobs;
  return O;
}

ucc::CompileOptions gccOptions(int Jobs) {
  ucc::CompileOptions O;
  O.RA = ucc::RegAllocKind::Baseline;
  O.DA = ucc::DataAllocKind::BaselineHash;
  O.Jobs = Jobs;
  return O;
}

ucc::FleetConfig fleetConfig(uint64_t Seed, int Jobs) {
  ucc::FleetConfig C;
  C.Link.LossRate = 0.10;
  C.Link.LossJitter = 0.05;
  C.Link.Asymmetry = 0.05;
  C.Mac.Csma = true;
  C.Duty.PeriodSeconds = 0.25;
  C.Duty.OnFraction = 0.5;
  C.Seed = Seed;
  C.Jobs = Jobs;
  return C;
}

SimView simulate(const ucc::BinaryImage &Img) {
  Span S("runImage");
  ucc::RunResult R = ucc::runImage(Img);
  SimView V;
  V.Ok = R.Halted && !R.Trapped;
  V.Cycles = R.Cycles;
  V.Obs.Led = std::move(R.LedTrace);
  V.Obs.Debug = std::move(R.DebugTrace);
  V.Obs.Packets = std::move(R.Packets);
  return V;
}

ReleaseCheck checkRelease(const Observed &Expected,
                          const ucc::BinaryImage &Patched,
                          const ucc::BinaryImage &Stored,
                          const ucc::BinaryImage &Gcc, Recorder *SimRec) {
  ReleaseCheck C;
  SimView U, G;
  {
    TraceScope TS(SimRec, 0);
    Span S("check");
    U = simulate(Patched);
    G = simulate(Gcc);
  }
  C.UccCycles = U.Cycles;
  C.GccCycles = G.Cycles;
  if (!sameBytes(Patched, Stored))
    C.Failure = "patched image differs from the stored image";
  else if (!U.Ok)
    C.Failure = "patched image did not halt cleanly";
  else if (!(U.Obs == Expected)) {
    C.Failure = "patched image trace differs from the reference evaluator";
  }
  else if (!G.Ok || !(G.Obs == U.Obs))
    C.Failure = "GCC-RA image behaves differently";
  C.Ok = C.Failure == nullptr;
  return C;
}

bool corruptedImageIsFlagged(const Observed &Expected,
                             const ucc::BinaryImage &Img,
                             const ucc::BinaryImage &Gcc) {
  ucc::BinaryImage Bad = Img;
  if (Bad.Code.empty())
    return false;
  Bad.Code[Bad.Code.size() / 2] ^= 0x00010000u;
  return !checkRelease(Expected, Bad, Img, Gcc).Ok;
}

namespace {

/// eq. 18 (Diff_energy, joules) of taking \p From to \p To.
double diffEnergyJ(const ucc::BinaryImage &From, uint64_t FromCycles,
                   const ucc::BinaryImage &To, uint64_t ToCycles, int Jobs) {
  static const ucc::EnergyModel Model;
  constexpr double Cnt = 1000.0; // executions before the code retires
  double DiffInst = ucc::diffImages(From, To, Jobs).totalDiffInst();
  double DiffCycle =
      static_cast<double>(ToCycles) - static_cast<double>(FromCycles);
  return Model.diffEnergy(DiffInst, DiffCycle, Cnt);
}

} // namespace

VersionFacts checkVersions(const ucc::VersionStore &Store,
                           const std::vector<Program> &Models,
                           const std::vector<int> &Parents, int Jobs,
                           Recorder *SimRec) {
  VersionFacts F;
  for (size_t V = 0; V < Models.size(); ++V) {
    const ucc::StoredVersion &New = *Store.find(static_cast<int>(V));
    std::string Src = render(Models[V]);
    ucc::DiagnosticEngine D;
    ucc::BinaryImage Patched = New.Image;
    std::optional<ucc::CompileOutput> Gcc;
    bool Ok = true;
    if (Parents[V] < 0) {
      Gcc = ucc::Compiler::compile(Src, gccOptions(Jobs), D);
    } else {
      const ucc::StoredVersion &Old = *Store.find(Parents[V]);
      Gcc = ucc::Compiler::recompile(Src, Old.Record, gccOptions(Jobs), D);
      auto Plan = Store.plan(Parents[V], static_cast<int>(V));
      Ok = Plan && ucc::applyUpdate(Old.Image, Plan->Update, Patched);
    }
    if (!Gcc)
      throw std::runtime_error("GCC-RA counterfactual failed to compile");
    ReleaseCheck RC = checkRelease(evaluate(Models[V]), Patched, New.Image,
                                   Gcc->Image, SimRec);
    if (!RC.Ok)
      std::fprintf(stderr, "version %zu: %s\n", V,
                   Ok ? RC.Failure : "parent plan does not apply");
    F.Ok.push_back(Ok && RC.Ok);
    F.Gcc.push_back(std::move(Gcc->Image));
    if (V == 1)
      F.Patched1 = std::move(Patched);
  }
  return F;
}

bool servedPlanIsExact(const ucc::VersionStore &Store, int From, int To,
                       const ucc::UpdatePlan *Served) {
  auto Ref = Store.plan(From, To);
  ucc::BinaryImage Patched;
  return Served && Ref && Served->ScriptBytes == Ref->ScriptBytes &&
         Served->Update.serialize() == Ref->Update.serialize() &&
         ucc::applyUpdate(Store.find(From)->Image, Served->Update, Patched) &&
         sameBytes(Patched, Store.find(To)->Image);
}

void addToLedger(Ledger &L, const ucc::BinaryImage &Old, uint64_t OldCycles,
                 const ucc::BinaryImage &New, uint64_t NewCycles,
                 const ucc::BinaryImage &Gcc, uint64_t GccCycles,
                 size_t Bytes, int Jobs) {
  L.ScriptBytes += static_cast<double>(Bytes);
  L.UccDiffEnergyJ += diffEnergyJ(Old, OldCycles, New, NewCycles, Jobs);
  L.GccDiffEnergyJ += diffEnergyJ(Old, OldCycles, Gcc, GccCycles, Jobs);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

} // namespace pb
