//===- tools/ucc-report.cpp - bench aggregation & regression gate ---------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregates the per-bench report JSONs (written by the bench binaries'
/// `--report-json` flag, schema in docs/OBSERVABILITY.md) into one
/// schema-versioned BENCH.json, and optionally diffs it against a
/// checked-in baseline with per-metric tolerances:
///
///   ucc-report --bench-dir build/bench --out BENCH.json
///   ucc-report r1.json r2.json --out BENCH.json
///   ucc-report --bench-dir build/bench --quick
///              --baseline bench/baseline.json --report report.md
///   ucc-report --bench-dir build/bench --baseline bench/baseline.json
///              --update-baseline
///
/// Run mode (`--bench-dir`) executes every known bench binary with
/// `--report-json` (plus `--quick` when requested) and ingests every report
/// that got written — a bench whose own self-check fails still reports
/// its metrics, and the rest of the suite still runs; ingest mode takes
/// already-written report files as positional arguments.
/// Every metric a bench reports — pivot counts, branch-and-bound nodes,
/// edit-script bytes — is deterministic by construction (the solver and
/// the telemetry merge are scheduling-independent, so `--jobs 8` reports
/// the same values as `--jobs 1`; wall-clock timing lives in perfbench)
/// and is therefore gated with zero tolerance unless the baseline's
/// `tolerances` section explicitly loosens a metric.
///
/// Exit code: 0 on success, 1 when a baseline comparison found a
/// regression, 2 on usage or I/O errors or when a bench exited non-zero
/// (reported after the comparison, naming every such bench; a failed run
/// never rewrites the baseline).
///
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>

using namespace ucc;

namespace {

/// The full bench suite, in presentation order. Binary names are
/// `bench_<name>`; report JSONs carry the bare name in their "bench" field.
const char *const BenchNames[] = {
    "fig03_power_model",        "fig09_update_cases",
    "fig10_dissemination",      "fig11_code_quality",
    "fig12_energy_savings",     "fig13_constraints",
    "fig14_iterations",         "fig15_solve_time",
    "fig16_data_alloc",         "ablation_chunk_threshold",
    "ablation_minlp_vs_ilp",    "ablation_splits",
    "version_chain",            "plan_service",
    "compile_commits"};

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "ucc-report: %s\n", Message.c_str());
  std::exit(2);
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: ucc-report [report.json ...] [options]\n"
      "  --bench-dir <dir>     run every bench binary found in <dir>\n"
      "                        (bench_fig03_power_model, ...) and ingest\n"
      "                        its --report-json output\n"
      "  --quick               pass --quick to the benches (reduced\n"
      "                        sweeps); compares against the baseline's\n"
      "                        'quick' profile section\n"
      "  --out <file>          write the aggregated BENCH.json\n"
      "  --baseline <file>     compare against this baseline; exit 1 on\n"
      "                        any regression beyond tolerance\n"
      "  --report <file>       write a markdown regression report\n"
      "  --update-baseline     rewrite the --baseline file's section for\n"
      "                        this profile from the current run\n");
  std::exit(2);
}

std::string readTextFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot open '" + Path + "'");
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeTextFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    die("cannot write '" + Path + "'");
  Out << Text;
}

json::Value loadJsonFile(const std::string &Path) {
  std::optional<json::Value> V = json::parse(readTextFile(Path));
  if (!V)
    die("'" + Path + "' is not valid JSON");
  return std::move(*V);
}

/// One aggregated bench: its name plus insertion-ordered metrics.
struct BenchResult {
  std::string Name;
  std::vector<std::pair<std::string, double>> Metrics;
};

/// Validates and ingests one per-bench report document.
BenchResult ingestReport(const json::Value &Doc, const std::string &From) {
  if (Doc.numberOr("schema_version", 0) != 1)
    die("'" + From + "': unsupported report schema_version");
  BenchResult R;
  R.Name = Doc.stringOr("bench", "");
  if (R.Name.empty())
    die("'" + From + "': missing \"bench\" field");
  const json::Value *Metrics = Doc.find("metrics");
  if (!Metrics || Metrics->K != json::Value::Object)
    die("'" + From + "': missing \"metrics\" object");
  for (const auto &[Key, Val] : Metrics->Obj)
    if (Val.K == json::Value::Number)
      R.Metrics.emplace_back(Key, Val.Num);
  return R;
}

/// Runs one bench binary with --report-json and ingests its report when
/// it wrote one, whatever its exit status. A non-zero exit is appended to
/// \p Failed.
std::optional<BenchResult> runBench(const std::string &BenchDir,
                                    const std::string &Name, bool Quick,
                                    const std::string &ScratchDir,
                                    std::vector<std::string> &Failed) {
  std::string Binary = BenchDir + "/bench_" + Name;
  std::string ReportPath = ScratchDir + "/" + Name + ".json";
  std::string Cmd = "'" + Binary + "' --report-json '" + ReportPath + "'" +
                    (Quick ? " --quick" : "") + " > /dev/null";
  std::fprintf(stderr, "ucc-report: running bench_%s%s\n", Name.c_str(),
               Quick ? " (quick)" : "");
  int Rc = std::system(Cmd.c_str());
  if (Rc != 0) {
    int Status = WIFEXITED(Rc) ? WEXITSTATUS(Rc) : Rc;
    Failed.push_back(format("bench_%s (exit status %d)", Name.c_str(), Status));
    std::fprintf(stderr, "ucc-report: %s\n", Failed.back().c_str());
  }
  if (!std::ifstream(ReportPath))
    return std::nullopt;
  return ingestReport(loadJsonFile(ReportPath), ReportPath);
}

/// Per-metric comparison tolerances, resolved from the baseline document.
struct Tolerances {
  double DefaultPct = 0.0; // deterministic metrics: exact match required
  double DefaultAbs = 0.0;
  /// "<bench>.<metric>" -> {pct, abs} overrides.
  std::vector<std::pair<std::string, std::pair<double, double>>> Overrides;

  void resolve(const std::string &Bench, const std::string &Metric,
               double &Pct, double &Abs) const {
    Pct = DefaultPct;
    Abs = DefaultAbs;
    std::string Key = Bench + "." + Metric;
    for (const auto &[K, V] : Overrides)
      if (K == Key) {
        Pct = V.first;
        Abs = V.second;
        return;
      }
  }
};

Tolerances parseTolerances(const json::Value &Baseline) {
  Tolerances T;
  const json::Value *Tol = Baseline.find("tolerances");
  if (!Tol)
    return T;
  T.DefaultPct = Tol->numberOr("default_pct", T.DefaultPct);
  T.DefaultAbs = Tol->numberOr("default_abs", T.DefaultAbs);
  if (const json::Value *Metrics = Tol->find("metrics"))
    for (const auto &[Key, Spec] : Metrics->Obj)
      T.Overrides.emplace_back(
          Key, std::make_pair(Spec.numberOr("pct", T.DefaultPct),
                              Spec.numberOr("abs", T.DefaultAbs)));
  return T;
}

/// One row of the comparison: a metric's baseline/current pair + verdict.
struct Delta {
  std::string Bench, Metric;
  double Base = 0.0, Cur = 0.0, Allowed = 0.0;
  enum Status { Pass, Regressed, MissingInCurrent, NewInCurrent } St = Pass;
};

/// Compares the current run against the baseline's section for \p Profile.
/// Returns all per-metric rows; regressions make the process exit 1.
std::vector<Delta> compare(const std::vector<BenchResult> &Current,
                           const json::Value &Baseline,
                           const std::string &Profile,
                           const Tolerances &Tol) {
  const json::Value *Profiles = Baseline.find("profiles");
  const json::Value *Section =
      Profiles ? Profiles->find(Profile) : nullptr;
  const json::Value *Benches = Section ? Section->find("benches") : nullptr;
  if (!Benches)
    die("baseline has no profiles." + Profile +
        ".benches section (re-baseline with --update-baseline)");

  std::vector<Delta> Rows;
  for (const BenchResult &B : Current) {
    const json::Value *Entry = Benches->find(B.Name);
    const json::Value *BaseMetrics =
        Entry ? Entry->find("metrics") : nullptr;
    for (const auto &[Name, Cur] : B.Metrics) {
      Delta D;
      D.Bench = B.Name;
      D.Metric = Name;
      D.Cur = Cur;
      const json::Value *Base =
          BaseMetrics ? BaseMetrics->find(Name) : nullptr;
      if (!Base || Base->K != json::Value::Number) {
        D.St = Delta::NewInCurrent;
        Rows.push_back(D);
        continue;
      }
      D.Base = Base->Num;
      double Pct = 0.0, Abs = 0.0;
      Tol.resolve(B.Name, Name, Pct, Abs);
      D.Allowed = std::max(Abs, std::fabs(D.Base) * Pct / 100.0);
      D.St = std::fabs(D.Cur - D.Base) > D.Allowed ? Delta::Regressed
                                                   : Delta::Pass;
      Rows.push_back(D);
    }
    // Baseline metrics the current run no longer reports are regressions
    // too: a silently vanished metric must not pass the gate.
    if (BaseMetrics)
      for (const auto &[Name, Val] : BaseMetrics->Obj) {
        if (Val.K != json::Value::Number)
          continue;
        bool Present = false;
        for (const auto &[CurName, CurVal] : B.Metrics)
          if (CurName == Name)
            Present = true;
        if (!Present) {
          Delta D;
          D.Bench = B.Name;
          D.Metric = Name;
          D.Base = Val.Num;
          D.St = Delta::MissingInCurrent;
          Rows.push_back(D);
        }
      }
  }
  return Rows;
}

std::string statusLabel(Delta::Status St) {
  switch (St) {
  case Delta::Pass:
    return "ok";
  case Delta::Regressed:
    return "**REGRESSED**";
  case Delta::MissingInCurrent:
    return "**MISSING**";
  case Delta::NewInCurrent:
    return "new";
  }
  return "?";
}

/// The "top movers" digest: the metrics with the largest percent change
/// against the baseline, so a reviewer does not have to eyeball the full
/// per-bench tables.
std::string renderTopMovers(const std::vector<Delta> &Rows, size_t Limit) {
  struct Mover {
    const Delta *D;
    double Pct;
  };
  std::vector<Mover> Movers;
  for (const Delta &D : Rows) {
    if (D.St == Delta::NewInCurrent || D.St == Delta::MissingInCurrent)
      continue;
    if (D.Base == 0.0 || D.Cur == D.Base)
      continue;
    Movers.push_back({&D, (D.Cur - D.Base) / std::fabs(D.Base) * 100.0});
  }
  if (Movers.empty())
    return "";
  std::stable_sort(Movers.begin(), Movers.end(),
                   [](const Mover &A, const Mover &B) {
                     return std::fabs(A.Pct) > std::fabs(B.Pct);
                   });
  if (Movers.size() > Limit)
    Movers.resize(Limit);
  std::string Md = "## Top movers\n\n";
  Md += "| bench | metric | baseline | current | change | status |\n";
  Md += "|---|---|---:|---:|---:|---|\n";
  for (const Mover &M : Movers)
    Md += "| " + M.D->Bench + " | " + M.D->Metric + " | " +
          format("%.6g", M.D->Base) + " | " + format("%.6g", M.D->Cur) +
          " | " + format("%+.1f%%", M.Pct) + " | " + statusLabel(M.D->St) +
          " |\n";
  Md += "\n";
  return Md;
}

/// Markdown regression report: the top-movers digest, one table per
/// bench, then a verdict line.
std::string renderMarkdown(const std::vector<Delta> &Rows,
                           const std::string &Profile, int Regressions) {
  std::string Md = "# ucc-report: bench comparison\n\n";
  Md += "Profile: `" + Profile + "`\n\n";
  Md += renderTopMovers(Rows, 8);
  std::string LastBench;
  for (const Delta &D : Rows) {
    if (D.Bench != LastBench) {
      Md += "\n## " + D.Bench + "\n\n";
      Md += "| metric | baseline | current | allowed delta | status |\n";
      Md += "|---|---:|---:|---:|---|\n";
      LastBench = D.Bench;
    }
    auto Num = [](double V) { return format("%.6g", V); };
    std::string BaseStr =
        D.St == Delta::NewInCurrent ? "-" : Num(D.Base);
    std::string CurStr =
        D.St == Delta::MissingInCurrent ? "-" : Num(D.Cur);
    std::string AllowedStr =
        D.St == Delta::Pass || D.St == Delta::Regressed ? Num(D.Allowed)
                                                        : "-";
    Md += "| " + D.Metric + " | " + BaseStr + " | " + CurStr + " | " +
          AllowedStr + " | " + statusLabel(D.St) + " |\n";
  }
  Md += Regressions == 0
            ? "\n**Verdict: PASS** — no metric moved beyond tolerance.\n"
            : format("\n**Verdict: FAIL** — %d metric(s) regressed or "
                     "went missing.\n",
                     Regressions);
  return Md;
}

/// The aggregated BENCH.json document.
json::Value renderBenchJson(const std::vector<BenchResult> &Current,
                            const std::string &Profile) {
  json::Value Doc = json::Value::object();
  Doc.set("schema_version", json::Value::number(1));
  Doc.set("tool", json::Value::string("ucc-report"));
  Doc.set("profile", json::Value::string(Profile));
  json::Value Benches = json::Value::object();
  for (const BenchResult &B : Current) {
    json::Value Entry = json::Value::object();
    json::Value Metrics = json::Value::object();
    for (const auto &[Name, Val] : B.Metrics)
      Metrics.set(Name, json::Value::number(Val));
    Entry.set("metrics", std::move(Metrics));
    Benches.set(B.Name, std::move(Entry));
  }
  Doc.set("benches", std::move(Benches));
  return Doc;
}

/// Rewrites the baseline's profiles.<Profile> section from \p Current,
/// preserving everything else (tolerances, the other profile's section).
void updateBaseline(const std::string &Path,
                    const std::vector<BenchResult> &Current,
                    const std::string &Profile) {
  json::Value Doc;
  std::ifstream Probe(Path);
  if (Probe.good()) {
    Probe.close();
    Doc = loadJsonFile(Path);
  } else {
    Doc = json::Value::object();
    Doc.set("schema_version", json::Value::number(1));
    json::Value Tol = json::Value::object();
    Tol.set("default_pct", json::Value::number(0.0));
    Tol.set("default_abs", json::Value::number(0.0));
    Tol.set("metrics", json::Value::object());
    Doc.set("tolerances", std::move(Tol));
    Doc.set("profiles", json::Value::object());
  }
  json::Value *Profiles = Doc.find("profiles");
  if (!Profiles) {
    Doc.set("profiles", json::Value::object());
    Profiles = Doc.find("profiles");
  }
  json::Value Section = json::Value::object();
  json::Value Benches = json::Value::object();
  for (const BenchResult &B : Current) {
    json::Value Entry = json::Value::object();
    json::Value Metrics = json::Value::object();
    for (const auto &[Name, Val] : B.Metrics)
      Metrics.set(Name, json::Value::number(Val));
    Entry.set("metrics", std::move(Metrics));
    Benches.set(B.Name, std::move(Entry));
  }
  Section.set("benches", std::move(Benches));
  Profiles->set(Profile, std::move(Section));
  writeTextFile(Path, Doc.serialize(2) + "\n");
  std::fprintf(stderr, "ucc-report: baseline '%s' section '%s' updated\n",
               Path.c_str(), Profile.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string BenchDir, OutPath, BaselinePath, ReportPath;
  bool Quick = false, DoUpdateBaseline = false;
  std::vector<std::string> ReportFiles;
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    auto value = [&]() -> std::string {
      if (K + 1 >= Argc)
        usage();
      return Argv[++K];
    };
    if (Arg == "--bench-dir")
      BenchDir = value();
    else if (Arg == "--out")
      OutPath = value();
    else if (Arg == "--baseline")
      BaselinePath = value();
    else if (Arg == "--report")
      ReportPath = value();
    else if (Arg == "--quick")
      Quick = true;
    else if (Arg == "--update-baseline")
      DoUpdateBaseline = true;
    else if (Arg == "--help" || Arg == "-h")
      usage();
    else if (!Arg.empty() && Arg[0] == '-')
      die("unknown flag '" + Arg + "' (see --help)");
    else
      ReportFiles.push_back(Arg);
  }
  if (BenchDir.empty() && ReportFiles.empty())
    usage();
  if (DoUpdateBaseline && BaselinePath.empty())
    die("--update-baseline requires --baseline");

  std::string Profile = Quick ? "quick" : "full";
  std::vector<BenchResult> Current;
  std::vector<std::string> FailedBenches;
  if (!BenchDir.empty()) {
    char ScratchTemplate[] = "/tmp/ucc-report-XXXXXX";
    const char *Scratch = mkdtemp(ScratchTemplate);
    if (!Scratch)
      die("cannot create scratch directory");
    for (const char *Name : BenchNames)
      if (std::optional<BenchResult> R =
              runBench(BenchDir, Name, Quick, Scratch, FailedBenches))
        Current.push_back(std::move(*R));
  }
  // Called once every report is ingested and compared: a failed bench
  // fails the run, but never hides the other benches' results.
  auto dieIfBenchFailed = [&] {
    if (FailedBenches.empty())
      return;
    std::string Names;
    for (const std::string &F : FailedBenches)
      Names += (Names.empty() ? "" : ", ") + F;
    die(format("%zu bench(es) exited non-zero: %s", FailedBenches.size(),
               Names.c_str()));
  };
  for (const std::string &Path : ReportFiles)
    Current.push_back(ingestReport(loadJsonFile(Path), Path));

  if (!OutPath.empty()) {
    writeTextFile(OutPath,
                  renderBenchJson(Current, Profile).serialize(2) + "\n");
    std::fprintf(stderr, "ucc-report: wrote %s (%zu benches)\n",
                 OutPath.c_str(), Current.size());
  }

  if (DoUpdateBaseline) {
    dieIfBenchFailed();
    updateBaseline(BaselinePath, Current, Profile);
    return 0;
  }

  if (BaselinePath.empty()) {
    dieIfBenchFailed();
    return 0;
  }

  json::Value Baseline = loadJsonFile(BaselinePath);
  if (Baseline.numberOr("schema_version", 0) != 1)
    die("'" + BaselinePath + "': unsupported baseline schema_version");
  Tolerances Tol = parseTolerances(Baseline);
  std::vector<Delta> Rows = compare(Current, Baseline, Profile, Tol);
  int Regressions = 0;
  for (const Delta &D : Rows)
    if (D.St == Delta::Regressed || D.St == Delta::MissingInCurrent) {
      ++Regressions;
      std::fprintf(stderr,
                   "ucc-report: REGRESSION %s.%s: baseline %.6g, current "
                   "%.6g (allowed delta %.6g)\n",
                   D.Bench.c_str(), D.Metric.c_str(), D.Base,
                   D.St == Delta::MissingInCurrent ? NAN : D.Cur,
                   D.Allowed);
    }
  std::string Md = renderMarkdown(Rows, Profile, Regressions);
  for (const std::string &F : FailedBenches)
    Md += "\n**Bench exited non-zero:** " + F + "\n";
  if (!ReportPath.empty())
    writeTextFile(ReportPath, Md);
  else
    std::fputs(Md.c_str(), stdout);
  if (Regressions > 0)
    std::fprintf(stderr, "ucc-report: FAIL (%d regression(s))\n",
                 Regressions);
  else
    std::fprintf(stderr, "ucc-report: PASS (%zu metric rows)\n",
                 Rows.size());
  dieIfBenchFailed();
  return Regressions > 0 ? 1 : 0;
}
