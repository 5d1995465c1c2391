//===- tests/LPTest.cpp - simplex and branch-and-bound tests --------------===//

#include "lp/LP.h"
#include "oracles/Oracles.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ucc;

namespace {

TEST(Simplex, SimpleTwoVarLP) {
  // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0
  // == min -3x - 2y; optimum at (4, 0) with value -12.
  LPProblem P;
  int X = P.addVar(-3.0, 0.0, 1e9);
  int Y = P.addVar(-2.0, 0.0, 1e9);
  P.addLE({{X, 1.0}, {Y, 1.0}}, 4.0);
  P.addLE({{X, 1.0}, {Y, 3.0}}, 6.0);

  LPResult R = solveLP(P);
  ASSERT_EQ(R.Status, SolveStatus::Optimal);
  EXPECT_NEAR(R.Objective, -12.0, 1e-6);
  EXPECT_NEAR(R.X[0], 4.0, 1e-6);
  EXPECT_NEAR(R.X[1], 0.0, 1e-6);
}

TEST(Simplex, EqualityAndGEConstraints) {
  // min x + y  s.t. x + y >= 2, x - y == 1, 0 <= x,y <= 10
  // optimum: x=1.5, y=0.5, obj 2.
  LPProblem P;
  int X = P.addVar(1.0, 0.0, 10.0);
  int Y = P.addVar(1.0, 0.0, 10.0);
  P.addGE({{X, 1.0}, {Y, 1.0}}, 2.0);
  P.addEQ({{X, 1.0}, {Y, -1.0}}, 1.0);

  LPResult R = solveLP(P);
  ASSERT_EQ(R.Status, SolveStatus::Optimal);
  EXPECT_NEAR(R.Objective, 2.0, 1e-6);
  EXPECT_NEAR(R.X[0], 1.5, 1e-6);
  EXPECT_NEAR(R.X[1], 0.5, 1e-6);
}

TEST(Simplex, DetectsInfeasibility) {
  LPProblem P;
  int X = P.addVar(1.0, 0.0, 1.0);
  P.addGE({{X, 1.0}}, 2.0); // x >= 2 but x <= 1
  LPResult R = solveLP(P);
  EXPECT_EQ(R.Status, SolveStatus::Infeasible);
}

TEST(Simplex, RespectsUpperBounds) {
  // min -x with x in [0, 7]: optimum x = 7.
  LPProblem P;
  int X = P.addVar(-1.0, 0.0, 7.0);
  P.addLE({{X, 1.0}}, 100.0);
  LPResult R = solveLP(P);
  ASSERT_EQ(R.Status, SolveStatus::Optimal);
  EXPECT_NEAR(R.X[0], 7.0, 1e-6);
}

TEST(Simplex, NegativeRHSRows) {
  // min x + y s.t. -x - y <= -3 (i.e. x + y >= 3), bounds [0, 10].
  LPProblem P;
  int X = P.addVar(1.0, 0.0, 10.0);
  int Y = P.addVar(1.0, 0.0, 10.0);
  P.addLE({{X, -1.0}, {Y, -1.0}}, -3.0);
  LPResult R = solveLP(P);
  ASSERT_EQ(R.Status, SolveStatus::Optimal);
  EXPECT_NEAR(R.Objective, 3.0, 1e-6);
}

TEST(ILP, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a + b + c <= 2, 5a + 4b + 3c <= 8 (binary).
  LPProblem P;
  int A = P.addBinaryVar(-10.0);
  int B = P.addBinaryVar(-6.0);
  int C = P.addBinaryVar(-4.0);
  P.addLE({{A, 1.0}, {B, 1.0}, {C, 1.0}}, 2.0);
  P.addLE({{A, 5.0}, {B, 4.0}, {C, 3.0}}, 8.0);

  // a=1,b=1 would score 16 but weighs 9 > 8; the optimum is a=1,c=1.
  ILPResult R = solveILP(P, {A, B, C});
  ASSERT_EQ(R.Status, SolveStatus::Optimal);
  EXPECT_NEAR(R.Objective, -14.0, 1e-6);
  EXPECT_NEAR(R.X[0], 1.0, 1e-6);
  EXPECT_NEAR(R.X[1], 0.0, 1e-6);
  EXPECT_NEAR(R.X[2], 1.0, 1e-6);
}

TEST(ILP, InfeasibleBinaryProblem) {
  LPProblem P;
  int A = P.addBinaryVar(1.0);
  int B = P.addBinaryVar(1.0);
  P.addGE({{A, 1.0}, {B, 1.0}}, 3.0); // two binaries cannot sum to 3
  ILPResult R = solveILP(P, {A, B});
  EXPECT_EQ(R.Status, SolveStatus::Infeasible);
}

TEST(ILP, HintSeedsIncumbentAndReducesWork) {
  // An assignment-style problem where the hint is optimal.
  LPProblem P;
  std::vector<int> Vars;
  // 4 items x 4 slots, one slot per item, one item per slot.
  double Costs[4][4] = {{1, 9, 9, 9}, {9, 1, 9, 9}, {9, 9, 1, 9},
                        {9, 9, 9, 1}};
  for (int I = 0; I < 4; ++I)
    for (int J = 0; J < 4; ++J)
      Vars.push_back(P.addBinaryVar(Costs[I][J]));
  for (int I = 0; I < 4; ++I) {
    std::vector<std::pair<int, double>> Row, Col;
    for (int J = 0; J < 4; ++J) {
      Row.push_back({I * 4 + J, 1.0});
      Col.push_back({J * 4 + I, 1.0});
    }
    P.addEQ(Row, 1.0);
    P.addEQ(Col, 1.0);
  }

  std::vector<double> Hint(16, 0.0);
  for (int I = 0; I < 4; ++I)
    Hint[static_cast<size_t>(I * 4 + I)] = 1.0;

  ILPOptions Plain;
  ILPResult NoHint = solveILP(P, Vars, Plain);
  ILPOptions Hinted;
  Hinted.Hint = &Hint;
  ILPResult WithHint = solveILP(P, Vars, Hinted);

  ASSERT_EQ(NoHint.Status, SolveStatus::Optimal);
  ASSERT_EQ(WithHint.Status, SolveStatus::Optimal);
  EXPECT_NEAR(NoHint.Objective, 4.0, 1e-6);
  EXPECT_NEAR(WithHint.Objective, 4.0, 1e-6);
  EXPECT_LE(WithHint.Pivots, NoHint.Pivots);
}

/// Random binary ILPs cross-checked against exhaustive enumeration.
class RandomILP : public ::testing::TestWithParam<int> {};

TEST_P(RandomILP, MatchesEnumeration) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  int NumVars = static_cast<int>(Rng.range(3, 10));
  int NumCons = static_cast<int>(Rng.range(1, 6));

  LPProblem P;
  std::vector<int> Vars;
  for (int J = 0; J < NumVars; ++J)
    Vars.push_back(
        P.addBinaryVar(static_cast<double>(Rng.range(-10, 10))));
  for (int I = 0; I < NumCons; ++I) {
    std::vector<std::pair<int, double>> Terms;
    for (int J = 0; J < NumVars; ++J)
      if (Rng.chance(2, 3))
        Terms.push_back({J, static_cast<double>(Rng.range(-5, 5))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    double RHS = static_cast<double>(Rng.range(-6, 10));
    int Sense = static_cast<int>(Rng.below(3));
    if (Sense == 0)
      P.addLE(Terms, RHS);
    else if (Sense == 1)
      P.addGE(Terms, RHS);
    else
      P.addEQ(Terms, RHS); // equalities are often infeasible; that's fine
  }

  ILPResult BB = solveILP(P, Vars);
  ILPResult Enum = solveBinaryByEnumeration(P, Vars);

  ASSERT_EQ(BB.Status == SolveStatus::Infeasible,
            Enum.Status == SolveStatus::Infeasible)
      << "branch-and-bound and enumeration disagree on feasibility";
  if (Enum.Status == SolveStatus::Optimal) {
    ASSERT_EQ(BB.Status, SolveStatus::Optimal);
    EXPECT_NEAR(BB.Objective, Enum.Objective, 1e-6);
    EXPECT_TRUE(isFeasible(P, BB.X));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomILP, ::testing::Range(0, 40));

/// Random LPs: the simplex result must be feasible and never worse than a
/// sampled feasible point (sanity optimality check).
class RandomLP : public ::testing::TestWithParam<int> {};

TEST_P(RandomLP, FeasibleAndDominatesSamples) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  int NumVars = static_cast<int>(Rng.range(2, 8));
  int NumCons = static_cast<int>(Rng.range(1, 5));

  LPProblem P;
  for (int J = 0; J < NumVars; ++J)
    P.addVar(static_cast<double>(Rng.range(-9, 9)), 0.0,
             static_cast<double>(Rng.range(1, 10)));
  for (int I = 0; I < NumCons; ++I) {
    std::vector<std::pair<int, double>> Terms;
    for (int J = 0; J < NumVars; ++J)
      if (Rng.chance(3, 4))
        Terms.push_back({J, static_cast<double>(Rng.range(-4, 6))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    // Keep RHS generous so most instances are feasible.
    P.addLE(Terms, static_cast<double>(Rng.range(5, 40)));
  }

  LPResult R = solveLP(P);
  if (R.Status != SolveStatus::Optimal)
    return; // infeasible random instance: nothing to check
  EXPECT_TRUE(isFeasible(P, R.X, 1e-5));

  // No sampled feasible point may beat the reported optimum.
  for (int S = 0; S < 200; ++S) {
    std::vector<double> X(static_cast<size_t>(NumVars));
    for (int J = 0; J < NumVars; ++J)
      X[static_cast<size_t>(J)] =
          Rng.unitReal() * P.Upper[static_cast<size_t>(J)];
    if (!isFeasible(P, X, 1e-9))
      continue;
    EXPECT_GE(objectiveValue(P, X), R.Objective - 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLP, ::testing::Range(0, 40));

} // namespace
