//===- tests/SolverEquivalenceTest.cpp - sparse engine vs dense oracle ----===//
//
// The randomized harness pinning the production LP/ILP engine (sparse
// revised simplex, warm starts, best-first branch-and-bound) to the seed
// dense/DFS implementation kept in tests/oracles (`solveLPDense`,
// `solveILPDfs`): same status and same objective (within 1e-6) on
// hundreds of generated instances, plus warm-vs-cold agreement under
// branching-style bound changes and the between-re-solves time-limit
// behavior.
//
//===----------------------------------------------------------------------===//

#include "oracles/Oracles.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ucc;

namespace {

/// A random bounded LP in the shape of our window relaxations: a few
/// variables, LE/GE/EQ rows, occasional duplicate terms.
LPProblem makeRandomLP(RNG &Rng) {
  LPProblem P;
  int NumVars = static_cast<int>(Rng.range(2, 8));
  for (int V = 0; V < NumVars; ++V) {
    double Lo = static_cast<double>(Rng.range(-3, 1));
    double Hi = Lo + static_cast<double>(Rng.range(0, 6));
    double Cost = static_cast<double>(Rng.range(-9, 9));
    P.addVar(Cost, Lo, Hi);
  }
  int NumRows = static_cast<int>(Rng.range(1, 7));
  for (int C = 0; C < NumRows; ++C) {
    LPConstraint Con;
    int Terms = static_cast<int>(Rng.range(1, 4));
    double MaxAbs = 0.0;
    for (int T = 0; T < Terms; ++T) {
      int Var = static_cast<int>(Rng.below(static_cast<uint64_t>(NumVars)));
      double Coef = static_cast<double>(Rng.range(-4, 4));
      if (Coef == 0.0)
        Coef = 1.0;
      Con.Terms.push_back({Var, Coef});
      MaxAbs += std::fabs(Coef) * 6.0;
    }
    uint64_t Kind = Rng.below(3);
    Con.S = Kind == 0   ? LPConstraint::Sense::LE
            : Kind == 1 ? LPConstraint::Sense::GE
                        : LPConstraint::Sense::EQ;
    // EQ rows with wild RHS are almost always infeasible; keep the RHS
    // in a plausible band so both outcomes are exercised.
    Con.RHS = static_cast<double>(
        Rng.range(-static_cast<int64_t>(MaxAbs / 2),
                  static_cast<int64_t>(MaxAbs / 2) + 1));
    P.addConstraint(std::move(Con));
  }
  return P;
}

/// A random 0/1 ILP small enough for the DFS oracle.
LPProblem makeRandomILP(RNG &Rng, std::vector<int> &IntVars) {
  LPProblem P;
  int NumVars = static_cast<int>(Rng.range(3, 10));
  for (int V = 0; V < NumVars; ++V) {
    P.addBinaryVar(static_cast<double>(Rng.range(-9, 9)));
    IntVars.push_back(V);
  }
  int NumRows = static_cast<int>(Rng.range(1, 6));
  for (int C = 0; C < NumRows; ++C) {
    LPConstraint Con;
    int Terms = static_cast<int>(Rng.range(1, 4));
    for (int T = 0; T < Terms; ++T)
      Con.Terms.push_back(
          {static_cast<int>(Rng.below(static_cast<uint64_t>(NumVars))),
           static_cast<double>(Rng.range(-3, 3))});
    Con.S = Rng.chance(1, 3) ? LPConstraint::Sense::GE
                             : LPConstraint::Sense::LE;
    Con.RHS = static_cast<double>(Rng.range(-2, 5));
    P.addConstraint(std::move(Con));
  }
  return P;
}

// 16 parameterized shards x 16 instances = 256 random LPs.
class LPEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(LPEquivalence, SparseMatchesDense) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 6271 + 31);
  for (int Case = 0; Case < 16; ++Case) {
    LPProblem P = makeRandomLP(Rng);
    LPResult Sparse = solveLP(P);
    LPResult Dense = solveLPDense(P);
    ASSERT_EQ(Sparse.Status, Dense.Status)
        << "shard " << GetParam() << " case " << Case;
    if (Sparse.Status == SolveStatus::Optimal) {
      EXPECT_NEAR(Sparse.Objective, Dense.Objective, 1e-6)
          << "shard " << GetParam() << " case " << Case;
      EXPECT_TRUE(isFeasible(P, Sparse.X));
      EXPECT_TRUE(Sparse.Basis.valid());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LPEquivalence, ::testing::Range(0, 16));

// 16 shards x 14 instances = 224 random ILPs.
class ILPEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ILPEquivalence, BestFirstMatchesDfs) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 9973 + 101);
  for (int Case = 0; Case < 14; ++Case) {
    std::vector<int> IntVars;
    LPProblem P = makeRandomILP(Rng, IntVars);
    ILPResult BestFirst = solveILP(P, IntVars);
    ILPResult Dfs = solveILPDfs(P, IntVars);
    ASSERT_EQ(BestFirst.Status, Dfs.Status)
        << "shard " << GetParam() << " case " << Case;
    if (BestFirst.Status == SolveStatus::Optimal) {
      EXPECT_NEAR(BestFirst.Objective, Dfs.Objective, 1e-6)
          << "shard " << GetParam() << " case " << Case;
      EXPECT_TRUE(isFeasible(P, BestFirst.X));
      for (int V : IntVars) {
        double X = BestFirst.X[static_cast<size_t>(V)];
        EXPECT_NEAR(X, std::round(X), 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ILPEquivalence, ::testing::Range(0, 16));

// Warm starts: fixing a variable (the branch-and-bound bound change) and
// re-solving from the parent basis must agree with a cold solve of the
// modified problem. 16 shards x 14 = 224 warm re-solves.
class WarmStartEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartEquivalence, WarmMatchesCold) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 4409 + 17);
  for (int Case = 0; Case < 14; ++Case) {
    LPProblem P = makeRandomLP(Rng);
    SparseSimplex Engine(P);
    LPResult Parent = Engine.solve();
    if (Parent.Status != SolveStatus::Optimal)
      continue;

    // Tighten one variable the way branching does: pin it to one end of
    // its domain.
    int Var = static_cast<int>(Rng.below(static_cast<uint64_t>(P.NumVars)));
    double Lo = P.Lower[static_cast<size_t>(Var)];
    double Hi = P.Upper[static_cast<size_t>(Var)];
    double Pin = Rng.chance(1, 2) ? std::floor((Lo + Hi) / 2) : Hi;
    Engine.setVarBounds(Var, Pin, Pin);

    LPResult Warm = Engine.solveWarm(Parent.Basis);

    LPProblem Child = P;
    Child.Lower[static_cast<size_t>(Var)] = Pin;
    Child.Upper[static_cast<size_t>(Var)] = Pin;
    LPResult Cold = solveLPDense(Child);

    ASSERT_EQ(Warm.Status, Cold.Status)
        << "shard " << GetParam() << " case " << Case << " var " << Var
        << " pin " << Pin;
    if (Warm.Status == SolveStatus::Optimal) {
      EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-6)
          << "shard " << GetParam() << " case " << Case;
      EXPECT_TRUE(isFeasible(Child, Warm.X));
    }

    // The engine must be restorable for the sibling branch.
    Engine.setVarBounds(Var, Lo, Hi);
    LPResult Again = Engine.solveWarm(Parent.Basis);
    ASSERT_EQ(Again.Status, SolveStatus::Optimal);
    EXPECT_NEAR(Again.Objective, Parent.Objective, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartEquivalence,
                         ::testing::Range(0, 16));

TEST(ILPTimeout, ZeroBudgetReportsTimedOut) {
  RNG Rng(42);
  std::vector<int> IntVars;
  LPProblem P = makeRandomILP(Rng, IntVars);
  ILPOptions Opts;
  Opts.TimeLimitSec = 0.0; // expires between any two checks
  ILPResult R = solveILP(P, IntVars, Opts);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_TRUE(R.Status == SolveStatus::Limit ||
              R.Status == SolveStatus::Feasible);
}

TEST(ILPTimeout, HintSurvivesTimeout) {
  // With a feasible integral hint, even a timed-out search returns the
  // hint as a Feasible incumbent instead of Limit.
  LPProblem P;
  std::vector<int> IntVars = {P.addBinaryVar(-1.0), P.addBinaryVar(-1.0)};
  P.addLE({{0, 1.0}, {1, 1.0}}, 1.0);
  std::vector<double> Hint = {1.0, 0.0};
  ILPOptions Opts;
  Opts.TimeLimitSec = 0.0;
  Opts.Hint = &Hint;
  ILPResult R = solveILP(P, IntVars, Opts);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_EQ(R.Status, SolveStatus::Feasible);
  EXPECT_NEAR(R.Objective, -1.0, 1e-9);
}

TEST(ILPTimeout, UntimedSolveReportsNoTimeout) {
  LPProblem P;
  std::vector<int> IntVars = {P.addBinaryVar(-1.0)};
  ILPResult R = solveILP(P, IntVars);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_EQ(R.Status, SolveStatus::Optimal);
}

} // namespace
