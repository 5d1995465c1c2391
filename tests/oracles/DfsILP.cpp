//===- tests/oracles/DfsILP.cpp - the seed depth-first branch-and-bound ---===//
//
// Part of the UCC reproduction test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original depth-first branch-and-bound (most-fractional branching,
/// nearer side first) on the dense reference simplex, and the exhaustive
/// enumeration oracle, kept unchanged for tests/SolverEquivalenceTest.cpp
/// and tests/LPTest.cpp.
///
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include <cassert>
#include <chrono>
#include <cmath>

using namespace ucc;

namespace {

bool isIntegral(double V, double Tol = 1e-6) {
  return std::fabs(V - std::round(V)) <= Tol;
}

class DfsBB {
public:
  DfsBB(const LPProblem &P, const std::vector<int> &IntVars,
        const ILPOptions &Opts)
      : Base(P), IntVars(IntVars), Opts(Opts) {}

  ILPResult run() {
    Start = std::chrono::steady_clock::now();
    Lower = Base.Lower;
    Upper = Base.Upper;

    if (Opts.Hint && isFeasible(Base, *Opts.Hint)) {
      bool Integral = true;
      for (int V : IntVars)
        Integral &= isIntegral((*Opts.Hint)[static_cast<size_t>(V)]);
      if (Integral) {
        Incumbent = *Opts.Hint;
        IncumbentObj = objectiveValue(Base, *Opts.Hint);
        HaveIncumbent = true;
      }
    }

    dfs();

    ILPResult R;
    R.Pivots = Pivots;
    R.Nodes = Nodes;
    R.TimedOut = TimedOut;
    if (HaveIncumbent) {
      R.Status = HitLimit ? SolveStatus::Feasible : SolveStatus::Optimal;
      R.X = Incumbent;
      R.Objective = IncumbentObj;
    } else {
      R.Status = HitLimit ? SolveStatus::Limit : SolveStatus::Infeasible;
    }
    return R;
  }

private:
  bool limitsExceeded() {
    if (Pivots >= Opts.MaxPivots || Nodes >= Opts.MaxNodes) {
      HitLimit = true;
      return true;
    }
    double Sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    if (Sec > Opts.TimeLimitSec) {
      HitLimit = true;
      TimedOut = true;
      return true;
    }
    return false;
  }

  void dfs() {
    if (limitsExceeded())
      return;
    ++Nodes;

    LPProblem Node = Base;
    Node.Lower = Lower;
    Node.Upper = Upper;
    LPResult Relax = solveLPDense(Node, Opts.MaxPivots - Pivots);
    Pivots += Relax.Pivots;

    if (Relax.Status == SolveStatus::Limit) {
      HitLimit = true;
      return;
    }
    if (Relax.Status == SolveStatus::Infeasible)
      return;
    if (HaveIncumbent && Relax.Objective >= IncumbentObj - 1e-9)
      return; // bound: cannot beat the incumbent

    // Find the most fractional integer variable.
    int BranchVar = -1;
    double BranchFrac = 0.0;
    for (int V : IntVars) {
      double X = Relax.X[static_cast<size_t>(V)];
      double Frac = std::fabs(X - std::round(X));
      if (Frac > 1e-6 && Frac > BranchFrac) {
        BranchFrac = Frac;
        BranchVar = V;
      }
    }

    if (BranchVar < 0) {
      // Integral: snap and accept.
      std::vector<double> X = Relax.X;
      for (int V : IntVars)
        X[static_cast<size_t>(V)] = std::round(X[static_cast<size_t>(V)]);
      if (!isFeasible(Base, X))
        return; // snapped point drifted out (numerically degenerate)
      double Obj = objectiveValue(Base, X);
      if (!HaveIncumbent || Obj < IncumbentObj - 1e-9) {
        Incumbent = std::move(X);
        IncumbentObj = Obj;
        HaveIncumbent = true;
      }
      return;
    }

    double X = Relax.X[static_cast<size_t>(BranchVar)];
    double Floor = std::floor(X);
    double SavedLo = Lower[static_cast<size_t>(BranchVar)];
    double SavedHi = Upper[static_cast<size_t>(BranchVar)];

    // Explore the side nearer the relaxed value first.
    bool DownFirst = (X - Floor) < 0.5;
    for (int Pass = 0; Pass < 2; ++Pass) {
      bool Down = (Pass == 0) == DownFirst;
      if (Down) {
        Upper[static_cast<size_t>(BranchVar)] = Floor;
        dfs();
        Upper[static_cast<size_t>(BranchVar)] = SavedHi;
      } else {
        Lower[static_cast<size_t>(BranchVar)] = Floor + 1.0;
        dfs();
        Lower[static_cast<size_t>(BranchVar)] = SavedLo;
      }
      if (limitsExceeded())
        return;
    }
  }

  const LPProblem &Base;
  const std::vector<int> &IntVars;
  const ILPOptions &Opts;

  std::vector<double> Lower, Upper;
  std::vector<double> Incumbent;
  double IncumbentObj = 0.0;
  bool HaveIncumbent = false;
  bool HitLimit = false;
  bool TimedOut = false;
  int64_t Pivots = 0;
  int Nodes = 0;
  std::chrono::steady_clock::time_point Start;
};

} // namespace

ILPResult ucc::solveILPDfs(const LPProblem &P, const std::vector<int> &IntVars,
                           const ILPOptions &Opts) {
  return DfsBB(P, IntVars, Opts).run();
}

ILPResult ucc::solveBinaryByEnumeration(const LPProblem &P,
                                        const std::vector<int> &IntVars) {
  assert(IntVars.size() <= 24 && "enumeration is for tiny problems only");
  for ([[maybe_unused]] int V : IntVars)
    assert(P.Lower[static_cast<size_t>(V)] >= -1e-9 &&
           P.Upper[static_cast<size_t>(V)] <= 1.0 + 1e-9 &&
           "enumeration expects binary variables");

  // Are there continuous variables too?
  std::vector<bool> IsInt(static_cast<size_t>(P.NumVars), false);
  for (int V : IntVars)
    IsInt[static_cast<size_t>(V)] = true;
  bool PureBinary = true;
  for (int J = 0; J < P.NumVars; ++J)
    PureBinary &= IsInt[static_cast<size_t>(J)];

  ILPResult Best;
  Best.Status = SolveStatus::Infeasible;

  uint64_t Combos = uint64_t(1) << IntVars.size();
  for (uint64_t Mask = 0; Mask < Combos; ++Mask) {
    if (PureBinary) {
      std::vector<double> X(static_cast<size_t>(P.NumVars), 0.0);
      for (size_t K = 0; K < IntVars.size(); ++K)
        X[static_cast<size_t>(IntVars[K])] =
            (Mask >> K) & 1 ? 1.0 : 0.0;
      // Respect fixed bounds.
      if (!isFeasible(P, X))
        continue;
      double Obj = objectiveValue(P, X);
      if (Best.Status == SolveStatus::Infeasible || Obj < Best.Objective) {
        Best.Status = SolveStatus::Optimal;
        Best.X = std::move(X);
        Best.Objective = Obj;
      }
      continue;
    }
    // Mixed: fix the binaries and let the LP place the continuous part.
    // The dense reference engine keeps this oracle independent of the
    // production engine it is used to validate.
    LPProblem Fixed = P;
    for (size_t K = 0; K < IntVars.size(); ++K) {
      double V = (Mask >> K) & 1 ? 1.0 : 0.0;
      Fixed.Lower[static_cast<size_t>(IntVars[K])] = V;
      Fixed.Upper[static_cast<size_t>(IntVars[K])] = V;
    }
    LPResult R = solveLPDense(Fixed);
    Best.Pivots += R.Pivots;
    if (R.Status != SolveStatus::Optimal)
      continue;
    if (Best.Status == SolveStatus::Infeasible ||
        R.Objective < Best.Objective) {
      Best.Status = SolveStatus::Optimal;
      Best.X = R.X;
      Best.Objective = R.Objective;
    }
  }
  return Best;
}
