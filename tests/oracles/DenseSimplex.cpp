//===- tests/oracles/DenseSimplex.cpp - the seed dense-tableau simplex ----===//
//
// Part of the UCC reproduction test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original dense-tableau two-phase bounded-variable primal simplex,
/// kept algorithmically unchanged as the *reference* engine: the
/// randomized equivalence harness (tests/SolverEquivalenceTest.cpp)
/// asserts that the production sparse engine (lp/Simplex.cpp) reproduces
/// its objectives, and solveBinaryByEnumeration runs on it so the
/// enumeration oracle stays independent of the engine under test.
/// Variables carry individual bounds; slack variables make every row an
/// equality; artificial variables are created only for rows whose initial
/// residual cannot be absorbed by a slack. Dantzig pricing with a Bland
/// fallback after a run of degenerate steps.
///
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ucc;

namespace {

constexpr double Eps = 1e-9;
constexpr double PivotTol = 1e-8;
constexpr double Inf = std::numeric_limits<double>::infinity();

class DenseSimplex {
public:
  DenseSimplex(const LPProblem &P, int64_t MaxPivots)
      : P(P), MaxPivots(MaxPivots) {}

  LPResult run() {
    build();

    // Phase 1: minimize the sum of artificials (skipped when none exist).
    if (NumArtificials > 0) {
      std::vector<double> SavedCost = Cost;
      for (double &C : Cost)
        C = 0.0;
      for (int J = FirstArtificial; J < NumTotal; ++J)
        Cost[static_cast<size_t>(J)] = 1.0;

      if (!iterate())
        return finish(SolveStatus::Limit);
      if (currentObjective() > 1e-6)
        return finish(SolveStatus::Infeasible);

      // Freeze artificials at zero and restore the real objective.
      for (int J = FirstArtificial; J < NumTotal; ++J) {
        Lo[static_cast<size_t>(J)] = 0.0;
        Hi[static_cast<size_t>(J)] = 0.0;
        XVal[static_cast<size_t>(J)] = 0.0;
      }
      Cost = SavedCost;
    }

    if (!iterate())
      return finish(SolveStatus::Limit);
    return finish(SolveStatus::Optimal);
  }

private:
  //===--- problem assembly ------------------------------------------------//

  void build() {
    int N = P.NumVars;
    int M = static_cast<int>(P.Constraints.size());
    NumStructural = N;
    // Layout: [structural | slack per row | artificials (as needed)].
    FirstSlack = N;
    FirstArtificial = N + M;

    // Count artificials after computing residuals; allocate worst case.
    NumTotal = N + 2 * M;
    Cost.assign(static_cast<size_t>(NumTotal), 0.0);
    Lo.assign(static_cast<size_t>(NumTotal), 0.0);
    Hi.assign(static_cast<size_t>(NumTotal), 0.0);
    XVal.assign(static_cast<size_t>(NumTotal), 0.0);
    AtUpper.assign(static_cast<size_t>(NumTotal), false);

    for (int J = 0; J < N; ++J) {
      Cost[static_cast<size_t>(J)] = P.Obj[static_cast<size_t>(J)];
      Lo[static_cast<size_t>(J)] = P.Lower[static_cast<size_t>(J)];
      Hi[static_cast<size_t>(J)] = P.Upper[static_cast<size_t>(J)];
      // Nonbasic start: at the finite bound nearest zero.
      double V = 0.0;
      if (Lo[static_cast<size_t>(J)] > 0.0 ||
          !std::isfinite(Hi[static_cast<size_t>(J)]))
        V = Lo[static_cast<size_t>(J)];
      else if (Hi[static_cast<size_t>(J)] < 0.0)
        V = Hi[static_cast<size_t>(J)];
      else
        V = Lo[static_cast<size_t>(J)];
      XVal[static_cast<size_t>(J)] = V;
      AtUpper[static_cast<size_t>(J)] =
          V == Hi[static_cast<size_t>(J)] &&
          Hi[static_cast<size_t>(J)] != Lo[static_cast<size_t>(J)];
    }

    // Dense tableau rows.
    Tab.assign(static_cast<size_t>(M) * static_cast<size_t>(NumTotal), 0.0);
    Basis.assign(static_cast<size_t>(M), -1);
    Beta.assign(static_cast<size_t>(M), 0.0);
    NumRows = M;
    NumArtificials = 0;

    for (int I = 0; I < M; ++I) {
      const LPConstraint &C = P.Constraints[static_cast<size_t>(I)];
      double Residual = C.RHS;
      for (const auto &[Var, Coef] : C.Terms) {
        at(I, Var) += Coef;
        Residual -= Coef * XVal[static_cast<size_t>(Var)];
      }
      // Slack bounds by sense.
      int SlackVar = FirstSlack + I;
      switch (C.S) {
      case LPConstraint::Sense::LE:
        Lo[static_cast<size_t>(SlackVar)] = 0.0;
        Hi[static_cast<size_t>(SlackVar)] = Inf;
        break;
      case LPConstraint::Sense::GE:
        Lo[static_cast<size_t>(SlackVar)] = -Inf;
        Hi[static_cast<size_t>(SlackVar)] = 0.0;
        break;
      case LPConstraint::Sense::EQ:
        Lo[static_cast<size_t>(SlackVar)] = 0.0;
        Hi[static_cast<size_t>(SlackVar)] = 0.0;
        break;
      }
      at(I, SlackVar) = 1.0;

      // Can the slack itself be the initial basic variable at Residual?
      bool SlackFits = Residual >= Lo[static_cast<size_t>(SlackVar)] - Eps &&
                       Residual <= Hi[static_cast<size_t>(SlackVar)] + Eps;
      if (SlackFits) {
        Basis[static_cast<size_t>(I)] = SlackVar;
        Beta[static_cast<size_t>(I)] = Residual;
        XVal[static_cast<size_t>(SlackVar)] = Residual;
      } else {
        // Park the slack at its finite bound nearest the residual; an
        // artificial variable absorbs the rest.
        double SLo = Lo[static_cast<size_t>(SlackVar)];
        double SHi = Hi[static_cast<size_t>(SlackVar)];
        double SV = std::min(std::max(Residual, SLo), SHi);
        XVal[static_cast<size_t>(SlackVar)] = SV;
        AtUpper[static_cast<size_t>(SlackVar)] = SV == SHi && SHi != SLo;
        double Rest = Residual - SV;

        int Art = FirstArtificial + NumArtificials++;
        Lo[static_cast<size_t>(Art)] = 0.0;
        Hi[static_cast<size_t>(Art)] = Inf;
        // Keep the basis column an identity column: when the artificial
        // would need coefficient -1, flip the whole row instead.
        if (Rest < 0.0)
          for (int J = 0; J <= SlackVar; ++J)
            at(I, J) = -at(I, J);
        at(I, Art) = 1.0;
        Basis[static_cast<size_t>(I)] = Art;
        Beta[static_cast<size_t>(I)] = std::fabs(Rest);
        XVal[static_cast<size_t>(Art)] = Beta[static_cast<size_t>(I)];
      }
    }
    // Shrink the column space to what we actually used.
    NumUsed = FirstArtificial + NumArtificials;
    IsBasic.assign(static_cast<size_t>(NumUsed), false);
    for (int I = 0; I < NumRows; ++I)
      IsBasic[static_cast<size_t>(Basis[static_cast<size_t>(I)])] = true;
  }

  double &at(int Row, int Col) {
    return Tab[static_cast<size_t>(Row) * static_cast<size_t>(NumTotal) +
               static_cast<size_t>(Col)];
  }
  double atc(int Row, int Col) const {
    return Tab[static_cast<size_t>(Row) * static_cast<size_t>(NumTotal) +
               static_cast<size_t>(Col)];
  }

  double currentObjective() const {
    double Obj = 0.0;
    for (int J = 0; J < NumUsed; ++J)
      Obj += Cost[static_cast<size_t>(J)] * XVal[static_cast<size_t>(J)];
    return Obj;
  }

  //===--- the simplex loop ------------------------------------------------//

  /// Runs pivots until optimality. Returns false on the pivot budget.
  bool iterate() {
    int DegenerateRun = 0;
    while (true) {
      if (Pivots >= MaxPivots)
        return false;

      // Reduced costs d_j = c_j - cB' * T_j.
      std::vector<double> CB(static_cast<size_t>(NumRows));
      for (int I = 0; I < NumRows; ++I)
        CB[static_cast<size_t>(I)] =
            Cost[static_cast<size_t>(Basis[static_cast<size_t>(I)])];

      bool UseBland = DegenerateRun > 64;
      int Entering = -1;
      int Dir = 0; // +1 entering rises from lower, -1 falls from upper
      double BestScore = UseBland ? 0.0 : 1e-7;

      for (int J = 0; J < NumUsed; ++J) {
        if (IsBasic[static_cast<size_t>(J)])
          continue;
        if (Lo[static_cast<size_t>(J)] == Hi[static_cast<size_t>(J)])
          continue; // fixed variable
        double D = Cost[static_cast<size_t>(J)];
        for (int I = 0; I < NumRows; ++I) {
          double T = atc(I, J);
          if (T != 0.0)
            D -= CB[static_cast<size_t>(I)] * T;
        }
        int CandDir = 0;
        if (!AtUpper[static_cast<size_t>(J)] && D < -1e-7)
          CandDir = +1;
        else if (AtUpper[static_cast<size_t>(J)] && D > 1e-7)
          CandDir = -1;
        if (CandDir == 0)
          continue;
        if (UseBland) {
          Entering = J;
          Dir = CandDir;
          break;
        }
        double Score = std::fabs(D);
        if (Score > BestScore) {
          BestScore = Score;
          Entering = J;
          Dir = CandDir;
        }
      }
      if (Entering < 0)
        return true; // optimal

      // Ratio test.
      double TMax = Hi[static_cast<size_t>(Entering)] -
                    Lo[static_cast<size_t>(Entering)]; // bound flip
      int LeaveRow = -1;
      int LeaveToUpper = 0;
      for (int I = 0; I < NumRows; ++I) {
        double Coef = -Dir * atc(I, Entering);
        if (std::fabs(Coef) < PivotTol)
          continue;
        int BV = Basis[static_cast<size_t>(I)];
        double Limit;
        int HitsUpper;
        if (Coef > 0.0) {
          if (!std::isfinite(Hi[static_cast<size_t>(BV)]))
            continue;
          Limit = (Hi[static_cast<size_t>(BV)] -
                   Beta[static_cast<size_t>(I)]) /
                  Coef;
          HitsUpper = 1;
        } else {
          if (!std::isfinite(Lo[static_cast<size_t>(BV)]))
            continue;
          Limit = (Lo[static_cast<size_t>(BV)] -
                   Beta[static_cast<size_t>(I)]) /
                  Coef;
          HitsUpper = 0;
        }
        Limit = std::max(0.0, Limit);
        if (Limit < TMax - Eps ||
            (Limit < TMax + Eps && LeaveRow >= 0 &&
             Basis[static_cast<size_t>(I)] <
                 Basis[static_cast<size_t>(LeaveRow)])) {
          TMax = Limit;
          LeaveRow = I;
          LeaveToUpper = HitsUpper;
        }
      }

      if (!std::isfinite(TMax))
        return true; // unbounded direction: cannot happen with our models,
                     // but bail out gracefully by declaring optimality of
                     // the current (feasible) point.

      ++Pivots;
      DegenerateRun = TMax < Eps ? DegenerateRun + 1 : 0;

      // Move the entering variable and update basic values.
      double NewEnterVal = XVal[static_cast<size_t>(Entering)] + Dir * TMax;
      for (int I = 0; I < NumRows; ++I) {
        double Coef = -Dir * atc(I, Entering);
        if (Coef != 0.0)
          Beta[static_cast<size_t>(I)] += TMax * Coef;
        XVal[static_cast<size_t>(Basis[static_cast<size_t>(I)])] =
            Beta[static_cast<size_t>(I)];
      }
      XVal[static_cast<size_t>(Entering)] = NewEnterVal;

      if (LeaveRow < 0) {
        // Bound flip: no basis change.
        AtUpper[static_cast<size_t>(Entering)] = Dir > 0;
        continue;
      }

      int Leaving = Basis[static_cast<size_t>(LeaveRow)];
      double Snap = LeaveToUpper ? Hi[static_cast<size_t>(Leaving)]
                                 : Lo[static_cast<size_t>(Leaving)];
      XVal[static_cast<size_t>(Leaving)] = Snap;
      AtUpper[static_cast<size_t>(Leaving)] = LeaveToUpper != 0;
      IsBasic[static_cast<size_t>(Leaving)] = false;
      IsBasic[static_cast<size_t>(Entering)] = true;
      Basis[static_cast<size_t>(LeaveRow)] = Entering;
      Beta[static_cast<size_t>(LeaveRow)] = NewEnterVal;

      // Row reduction on the tableau.
      double PivotVal = atc(LeaveRow, Entering);
      assert(std::fabs(PivotVal) > PivotTol && "numerically bad pivot");
      double InvPivot = 1.0 / PivotVal;
      for (int J = 0; J < NumUsed; ++J)
        at(LeaveRow, J) *= InvPivot;
      for (int I = 0; I < NumRows; ++I) {
        if (I == LeaveRow)
          continue;
        double Factor = atc(I, Entering);
        if (Factor == 0.0)
          continue;
        for (int J = 0; J < NumUsed; ++J)
          at(I, J) -= Factor * atc(LeaveRow, J);
      }
    }
  }

  LPResult finish(SolveStatus Status) {
    LPResult R;
    R.Status = Status;
    R.Pivots = Pivots;
    R.X.resize(static_cast<size_t>(NumStructural));
    for (int J = 0; J < NumStructural; ++J)
      R.X[static_cast<size_t>(J)] = XVal[static_cast<size_t>(J)];
    R.Objective = 0.0;
    for (int J = 0; J < NumStructural; ++J)
      R.Objective += P.Obj[static_cast<size_t>(J)] *
                     R.X[static_cast<size_t>(J)];
    return R;
  }

  const LPProblem &P;
  int64_t MaxPivots;
  int64_t Pivots = 0;

  int NumStructural = 0;
  int FirstSlack = 0;
  int FirstArtificial = 0;
  int NumArtificials = 0;
  int NumTotal = 0; ///< allocated column count
  int NumUsed = 0;  ///< columns actually in play
  int NumRows = 0;

  std::vector<double> Tab;
  std::vector<double> Cost, Lo, Hi, XVal, Beta;
  std::vector<int> Basis;
  std::vector<bool> AtUpper, IsBasic;
};

} // namespace

LPResult ucc::solveLPDense(const LPProblem &P, int64_t MaxPivots) {
  assert(static_cast<int>(P.Obj.size()) == P.NumVars &&
         static_cast<int>(P.Lower.size()) == P.NumVars &&
         static_cast<int>(P.Upper.size()) == P.NumVars &&
         "malformed LP problem");
  DenseSimplex S(P, MaxPivots);
  return S.run();
}
