//===- tests/WindowCacheTest.cpp - window memo cache ----------------------===//
//
// The regalloc window memo cache: hits return the original solution
// (metrics included), the hash key separates windows that differ in any
// model field, concurrent requesters of one window solve it exactly once,
// a clearWindowCache() racing them never takes a waiter's solution away,
// and the hit/miss telemetry counters report truthfully.
//
//===----------------------------------------------------------------------===//

#include "regalloc/UccIlpModel.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace ucc;

namespace {

/// The UccIlpModelTest window shape: S statements defining and using
/// NumVars variables round-robin, all changed.
WindowSpec simpleSpec(int NumVars, int NumStmts, int NumRegs) {
  WindowSpec Spec;
  Spec.NumVars = NumVars;
  Spec.NumRegs = NumRegs;
  Spec.EntryReg.assign(static_cast<size_t>(NumVars), -1);
  Spec.ExitReg.assign(static_cast<size_t>(NumVars), -1);
  Spec.LiveOut.assign(static_cast<size_t>(NumVars), false);
  for (int S = 0; S < NumStmts; ++S) {
    WindowInstr I;
    I.Changed = true;
    I.Def = S % NumVars;
    if (S > 0) {
      I.Uses.push_back((S - 1) % NumVars);
      I.UsePref.push_back(-1);
    }
    Spec.Instrs.push_back(std::move(I));
  }
  return Spec;
}

void expectSameSolution(const WindowSolution &A, const WindowSolution &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_DOUBLE_EQ(A.Objective, B.Objective);
  EXPECT_EQ(A.Pivots, B.Pivots);
  EXPECT_EQ(A.Nodes, B.Nodes);
  EXPECT_EQ(A.DefReg, B.DefReg);
  EXPECT_EQ(A.RegAfter, B.RegAfter);
  EXPECT_EQ(A.UseRegs, B.UseRegs);
  EXPECT_EQ(A.InsertedMovs, B.InsertedMovs);
  EXPECT_EQ(A.SpillLoads, B.SpillLoads);
  EXPECT_EQ(A.SpillStores, B.SpillStores);
}

TEST(WindowCache, HitReturnsOriginalSolution) {
  clearWindowCache();
  WindowSpec Spec = simpleSpec(2, 5, 3);

  Telemetry T;
  TelemetryScope Scope(T);
  WindowSolution First = solveWindowCached(Spec);
  WindowSolution Second = solveWindowCached(Spec);
  expectSameSolution(First, Second);
  // Hits replay the original solve's metrics, so bench pivot/node counts
  // do not depend on cache order.
  WindowSolution Fresh = solveWindow(Spec);
  expectSameSolution(First, Fresh);

  EXPECT_EQ(T.counter("ra.window_cache_misses"), 1);
  EXPECT_EQ(T.counter("ra.window_cache_hits"), 1);
  EXPECT_EQ(windowCacheSize(), 1u);
  clearWindowCache();
  EXPECT_EQ(windowCacheSize(), 0u);
}

TEST(WindowCache, DistinctWindowsDoNotCollide) {
  clearWindowCache();
  WindowSpec A = simpleSpec(2, 5, 3);
  WindowSpec B = A;
  B.Instrs[2].Freq = 9.0; // one coefficient differs -> different window

  Telemetry T;
  TelemetryScope Scope(T);
  solveWindowCached(A);
  solveWindowCached(B);
  EXPECT_EQ(T.counter("ra.window_cache_misses"), 2);
  EXPECT_EQ(T.counter("ra.window_cache_hits"), 0);
  EXPECT_EQ(windowCacheSize(), 2u);
  clearWindowCache();
}

TEST(WindowCache, KeyCoversOptionsAndHintFlag) {
  WindowSpec Spec = simpleSpec(2, 4, 3);
  ILPOptions Opts;
  uint64_t Base = windowSpecKey(Spec, Opts, true);
  EXPECT_EQ(windowSpecKey(Spec, Opts, true), Base); // deterministic

  EXPECT_NE(windowSpecKey(Spec, Opts, false), Base);
  ILPOptions Tighter;
  Tighter.TimeLimitSec = 1.0;
  EXPECT_NE(windowSpecKey(Spec, Tighter, true), Base);

  WindowSpec Other = Spec;
  Other.NumRegs = 4;
  EXPECT_NE(windowSpecKey(Other, Opts, true), Base);
  Other = Spec;
  Other.Cnt = 1e6;
  EXPECT_NE(windowSpecKey(Other, Opts, true), Base);
  Other = Spec;
  Other.Instrs[1].DefPref = 0;
  EXPECT_NE(windowSpecKey(Other, Opts, true), Base);
}

TEST(WindowCache, ConcurrentRequestersSolveOnce) {
  clearWindowCache();
  WindowSpec Spec = simpleSpec(3, 6, 3);

  Telemetry T;
  TelemetryScope Scope(T);
  std::vector<WindowSolution> Sols(16);
  parallelFor(16, 8, [&](int I) {
    Sols[static_cast<size_t>(I)] = solveWindowCached(Spec);
  });
  // Exactly one miss; the other fifteen either waited on the in-flight
  // solve or hit the filled entry.
  EXPECT_EQ(T.counter("ra.window_cache_misses"), 1);
  EXPECT_EQ(T.counter("ra.window_cache_hits"), 15);
  for (size_t I = 1; I < Sols.size(); ++I)
    expectSameSolution(Sols[0], Sols[I]);
  EXPECT_EQ(windowCacheSize(), 1u);
  clearWindowCache();
}

TEST(WindowCache, ClearRacingLatchedWaitersKeepsTheirSolution) {
  // Waiters parked on an in-flight solve wake after the fill; a
  // clearWindowCache() landing between the fill and their wake-up drops
  // the entry. Each waiter must still return the solution — under ASan a
  // dropped entry read by its waiter is a use-after-free. Every round
  // solves a fresh window so the waiters really latch.
  clearWindowCache();
  for (int Round = 0; Round < 500; ++Round) {
    WindowSpec Spec = simpleSpec(3, 6, 3);
    Spec.Cnt = 1000.0 + Round;
    WindowSolution Fresh = solveWindow(Spec);
    std::atomic<bool> Stop{false};
    std::thread Clearer([&] {
      while (!Stop)
        clearWindowCache();
    });
    std::vector<WindowSolution> Sols(6);
    parallelFor(6, 6, [&](int I) {
      Sols[static_cast<size_t>(I)] = solveWindowCached(Spec);
    });
    Stop = true;
    Clearer.join();
    for (const WindowSolution &Sol : Sols)
      expectSameSolution(Sol, Fresh);
  }
  clearWindowCache();
}

} // namespace
