//===- bench/bench_compile_commits.cpp - incremental recompile rate -------===//
//
// Measures the function-level compile cache (core/CompileCache) on the
// workload it was built for: a firmware with many substantial functions
// committed through a version store as a long chain of small releases,
// each touching only 1-3 functions; every third release also declares a
// new global ahead of the others, so every global's index moves while
// the functions that read them keep their text. Cache-off, every commit
// pays parse -> lower -> optimize -> isel -> RA -> frame layout for every
// function; cache-on, unchanged functions are served from the cache (the
// front half from its table of the previous commit's optimized IR, the
// back half from its LRU) and only the touched ones recompile.
// The bench sweeps jobs {1, 8} x cache {off, on}, reports commits/sec per
// configuration, and hard-fails unless (a) all four configurations produce
// byte-identical images, parent scripts and serialized records for every
// version and (b) the warm-over-cold speedup at jobs=1 clears the 3x
// acceptance floor.
//
// The commits/sec table is printed for people to read; the reported
// metrics (function/commit counts, cache hit/miss/eviction accounting,
// front-half hits and misses, script bytes, byte identity, and the
// distinct machine-code objects the store holds) are deterministic for a
// given profile and regression-gated.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/CompileCache.h"
#include "core/VersionStore.h"
#include "support/Format.h"
#include "support/RNG.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ucc;
using namespace uccbench;

namespace {

/// One sensor-processing stage. Deliberately heavyweight — a dozen live
/// locals, a loop, and branches — so the per-function back half (isel,
/// UCC register allocation, frame layout) dominates a function's compile
/// cost. \p Rev is the stage's revision: editing a stage bumps its
/// revision, which perturbs constants in the body the way a threshold
/// retune does. \p Cal, when non-negative, names the calibration global
/// `cal_<Cal>` the stage adds in before returning.
std::string stageSource(int F, int Rev, int Cal) {
  int Salt = 17 + F * 13 + Rev * 101;
  std::string Calibrate =
      Cal < 0 ? std::string() : format("  acc = acc + cal_%d;\n", Cal);
  return format(R"(
int stage_%d(int x) {
  int acc = x + %d;
  int a0 = x ^ %d;
  int a1 = (x << 1) + %d;
  int a2 = a0 + a1;
  int a3 = x - (a1 >> 2);
  int a4 = a2 ^ a3;
  int a5 = a4 + %d;
  int i = 0;
  while (i < 6) {
    acc = acc + (a0 ^ i);
    a1 = a1 + (acc >> 1);
    a2 = a2 ^ (a1 + i);
    a3 = a3 + (a2 & 0xff);
    a4 = a4 + (a3 ^ acc);
    a5 = (a5 << 1) ^ a4;
    if (acc > %d) {
      acc = acc - (a2 >> 2);
      a0 = a0 + 3;
    }
    if (a5 > a3) {
      a5 = a5 - a3;
    }
    i = i + 1;
  }
  acc = acc + a0 + a1;
  acc = acc ^ (a2 + a3);
  acc = acc + (a4 ^ a5);
%s  return acc & 0x7fff;
}
)",
                F, Salt, Salt * 3 + 7, Salt & 0xff, 5 + (F % 9),
                600 + Salt % 257, Calibrate.c_str());
}

/// One release of the firmware: per stage, its revision and the
/// calibration global it reads (-1: none), plus how many calibration
/// globals the release declares.
struct Firmware {
  std::vector<int> Revs;
  std::vector<int> Cals;
  int NumCals = 0;
};

/// The firmware at one release: the calibration globals (newest first,
/// so each new one is declared ahead of every other global), every stage,
/// and a main loop that keeps them all live. Only the edited stages' text
/// changes between releases — exactly the regime where a function-level
/// cache should skip everything else, whatever index a declaration moves
/// to.
std::string firmwareSource(const Firmware &FW) {
  std::string S;
  for (int C = FW.NumCals - 1; C >= 0; --C)
    S += format("int cal_%d;\n", C);
  S += "int sys_ticks;\nint report_count;\n";
  for (size_t F = 0; F < FW.Revs.size(); ++F)
    S += stageSource(static_cast<int>(F), FW.Revs[F], FW.Cals[F]);
  S += "\nvoid main() {\n  int ticks = 0;\n  int acc = 0;\n"
       "  while (ticks < 50) {\n    sys_ticks = __in(3);\n"
       "    acc = acc + __in(4);\n";
  for (size_t F = 0; F < FW.Revs.size(); ++F)
    S += format("    acc = acc + stage_%zu(acc);\n", F);
  S += "    if (acc > 900) {\n      __out(1, acc & 0xff);\n"
       "      report_count = report_count + 1;\n    }\n"
       "    ticks = ticks + 1;\n  }\n"
       "  __out(15, report_count);\n  __halt();\n}\n";
  return S;
}

/// Untimed commits at the head of the chain before the measured window
/// opens. Version 0 compiles with no old record, so its cache keys carry
/// no old slice; the first update then rewrites every function against
/// that record. Both are all-miss transients under any configuration —
/// steady state (misses = touched functions plus last commit's ripples)
/// starts at the second update, so the clock starts there too.
constexpr int WarmupCommits = 2;

/// Every StructuralEvery-th release is also structural: it declares a
/// new calibration global ahead of all the others, which moves every
/// global's index, and its last touched stage reads it from then on.
constexpr int StructuralEvery = 3;

/// The release chain: source 0 is the initial firmware; each later release
/// bumps the revision of 1-3 stages (seeded, so every configuration
/// commits the identical chain).
std::vector<std::string> releaseChain(int Stages, int Commits) {
  std::vector<std::string> Sources;
  Firmware FW;
  FW.Revs.assign(static_cast<size_t>(Stages), 0);
  FW.Cals.assign(static_cast<size_t>(Stages), -1);
  Sources.push_back(firmwareSource(FW));
  RNG Rng(0xc0117);
  for (int C = 0; C < Commits + WarmupCommits; ++C) {
    int Touched = 1 + static_cast<int>(Rng.below(3));
    size_t Stage = 0;
    for (int T = 0; T < Touched; ++T) {
      Stage = static_cast<size_t>(Rng.below(static_cast<uint64_t>(Stages)));
      ++FW.Revs[Stage];
    }
    if (C % StructuralEvery == StructuralEvery - 1)
      FW.Cals[Stage] = FW.NumCals++;
    Sources.push_back(firmwareSource(FW));
  }
  return Sources;
}

/// What one (jobs, cache) configuration produced: wall time for the
/// steady-state update commits (initial compile and warm-up transients
/// excluded) plus everything the identity check compares.
struct ChainResult {
  double UpdateSeconds = 0.0;
  std::vector<std::vector<uint8_t>> Images; ///< image bytes per version
  std::vector<std::vector<uint8_t>> Records; ///< record bytes per version
  std::vector<size_t> ScriptBytes; ///< script-from-parent per version
  size_t StoredFunctions = 0;      ///< VersionStore::storedFunctions()
  CompileCacheStats Cache;         ///< zeros when the cache was off
  CompileCacheStats CacheBefore;   ///< snapshot when the clock started
  CompileCacheStats Front;         ///< the front half's reuse
};

/// Commits the whole chain into a fresh store under the given jobs/cache
/// configuration. Cache-on points Opts.Cache at a chain-local
/// CompileCache; cache-off leaves it null — the exact code path minus the
/// lookup.
ChainResult runChain(const std::vector<std::string> &Sources, int Jobs,
                     bool WithCache) {
  ChainResult R;
  CompileOptions Opts = uccOptions();
  Opts.Jobs = Jobs;
  CompileCache Cache;
  if (WithCache)
    Opts.Cache = &Cache;
  VersionStore Store;
  DiagnosticEngine Diag;

  auto commit = [&](size_t V) {
    int Id = V == 0 ? Store.addInitial(Sources[V], Opts, Diag)
                    : Store.addUpdate(Sources[V], Opts, Diag);
    if (Id != static_cast<int>(V)) {
      std::fprintf(stderr, "bench_compile_commits: commit %zu failed:\n%s",
                   V, Diag.str().c_str());
      std::exit(1);
    }
  };

  const size_t FirstTimed = 1 + WarmupCommits;
  for (size_t V = 0; V < FirstTimed; ++V)
    commit(V);
  R.CacheBefore = Cache.stats();
  auto Begin = std::chrono::steady_clock::now();
  for (size_t V = FirstTimed; V < Sources.size(); ++V)
    commit(V);
  R.UpdateSeconds = secondsSince(Begin);
  R.Cache = Cache.stats();
  R.Front = Cache.frontStats();

  for (const auto &V : Store.versions()) {
    R.Images.push_back(V->Image.serialize());
    R.Records.push_back(V->Record.serialize());
    R.ScriptBytes.push_back(V->Parent < 0 ? 0 : V->FromParent.scriptBytes());
  }
  R.StoredFunctions = Store.storedFunctions();
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  uccbench::BenchHarness Bench(Argc, Argv, "compile_commits");

  const int Stages = Bench.quick() ? 24 : 40;
  const int Commits = Bench.quick() ? 8 : 16;
  const int JobsSweep[] = {1, 8};

  std::printf("Compile commits: %d stages + main, %d timed update commits "
              "(+%d warm-up), 1-3 stages touched per commit\n\n",
              Stages, Commits, WarmupCommits);

  std::vector<std::string> Sources = releaseChain(Stages, Commits);

  // The sweep: jobs x cache. Index [J][C] with C = 0 off, 1 on.
  ChainResult Results[2][2];
  for (int J = 0; J < 2; ++J)
    for (int C = 0; C < 2; ++C)
      Results[J][C] = runChain(Sources, JobsSweep[J], C == 1);

  // --- Byte identity across the whole sweep: every configuration must
  // produce the identical image, parent script and record for every
  // version. This is the acceptance anchor, so it hard-fails.
  int Mismatches = 0;
  const ChainResult &Ref = Results[0][0];
  for (int J = 0; J < 2; ++J)
    for (int C = 0; C < 2; ++C) {
      const ChainResult &R = Results[J][C];
      if (R.Images != Ref.Images || R.Records != Ref.Records ||
          R.ScriptBytes != Ref.ScriptBytes) {
        std::fprintf(stderr,
                     "bench_compile_commits: jobs=%d cache=%s diverges "
                     "from jobs=1 cache=off\n",
                     JobsSweep[J], C ? "on" : "off");
        ++Mismatches;
      }
    }

  // Cache accounting and sharing are scheduling-independent (every
  // function has its own key; commits are sequential), so jobs=1 and
  // jobs=8 must agree.
  const CompileCacheStats &CS1 = Results[0][1].Cache;
  const CompileCacheStats &CS8 = Results[1][1].Cache;
  uint64_t TimedHits = CS1.Hits - Results[0][1].CacheBefore.Hits;
  uint64_t TimedMisses = CS1.Misses - Results[0][1].CacheBefore.Misses;
  const CompileCacheStats &Front = Results[0][1].Front;
  const CompileCacheStats &Front8 = Results[1][1].Front;
  if (CS1.Hits != CS8.Hits || CS1.Misses != CS8.Misses ||
      CS1.Evictions != CS8.Evictions || Front.Hits != Front8.Hits ||
      Front.Misses != Front8.Misses ||
      Results[0][1].StoredFunctions != Results[1][1].StoredFunctions) {
    std::fprintf(stderr,
                 "bench_compile_commits: cache accounting or sharing "
                 "differs between jobs=1 and jobs=8\n");
    ++Mismatches;
  }

  size_t TotalScriptBytes = 0;
  for (size_t B : Ref.ScriptBytes)
    TotalScriptBytes += B;

  double CommitsPerSec[2][2];
  for (int J = 0; J < 2; ++J)
    for (int C = 0; C < 2; ++C)
      CommitsPerSec[J][C] = Commits / Results[J][C].UpdateSeconds;
  double SpeedupJ1 = CommitsPerSec[0][1] / CommitsPerSec[0][0];
  double SpeedupJ8 = CommitsPerSec[1][1] / CommitsPerSec[1][0];

  std::printf("%-28s %12s %12s %10s\n", "", "cache off", "cache on",
              "speedup");
  std::printf("%-28s %12.1f %12.1f %9.1fx\n", "commits/sec (jobs=1)",
              CommitsPerSec[0][0], CommitsPerSec[0][1], SpeedupJ1);
  std::printf("%-28s %12.1f %12.1f %9.1fx\n", "commits/sec (jobs=8)",
              CommitsPerSec[1][0], CommitsPerSec[1][1], SpeedupJ8);
  std::printf("\ntimed-window hits/misses:    %llu / %llu "
              "(chain total %llu / %llu, %llu evictions, %zu resident)\n",
              static_cast<unsigned long long>(TimedHits),
              static_cast<unsigned long long>(TimedMisses),
              static_cast<unsigned long long>(CS1.Hits),
              static_cast<unsigned long long>(CS1.Misses),
              static_cast<unsigned long long>(CS1.Evictions),
              CS1.Entries);
  std::printf("front-half reuse:            %llu hit(s), %llu miss(es)\n",
              static_cast<unsigned long long>(Front.Hits),
              static_cast<unsigned long long>(Front.Misses));
  std::printf("total script bytes:          %zu across %d commits\n",
              TotalScriptBytes, Commits);
  std::printf("stored functions:            %zu distinct of %zu (cache on)\n",
              Results[0][1].StoredFunctions,
              Ref.Records.size() * static_cast<size_t>(Stages + 1));
  std::printf("byte-identical (4 configs):  %s\n",
              Mismatches == 0 ? "yes" : "NO");

  Bench.metric("functions", Stages + 1);
  Bench.metric("commits", Commits);
  Bench.metric("warm_hits", static_cast<double>(CS1.Hits));
  Bench.metric("warm_misses", static_cast<double>(CS1.Misses));
  Bench.metric("timed_hits", static_cast<double>(TimedHits));
  Bench.metric("timed_misses", static_cast<double>(TimedMisses));
  Bench.metric("warm_evictions", static_cast<double>(CS1.Evictions));
  Bench.metric("front_hits", static_cast<double>(Front.Hits));
  Bench.metric("front_misses", static_cast<double>(Front.Misses));
  Bench.metric("total_script_bytes",
               static_cast<double>(TotalScriptBytes));
  Bench.metric("byte_identical", Mismatches == 0 ? 1.0 : 0.0);
  Bench.metric("stored_functions",
               static_cast<double>(Results[0][1].StoredFunctions));

  if (Mismatches != 0)
    return 1;
  if (SpeedupJ1 < 3.0) {
    std::fprintf(stderr,
                 "bench_compile_commits: warm speedup %.1fx at jobs=1 is "
                 "below the 3x acceptance floor\n",
                 SpeedupJ1);
    return 1;
  }
  return 0;
}
