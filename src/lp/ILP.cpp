//===- lp/ILP.cpp - branch-and-bound over the simplex relaxation ----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production 0/1 ILP solver, `solveILP`: best-first
/// branch-and-bound on the sparse revised engine. The node queue is
/// ordered by LP bound (ties by creation order, so the search is
/// deterministic); children are solved eagerly, warm-started from their
/// parent's basis via `SparseSimplex::solveWarm`; branching uses
/// pseudo-costs once a variable has been branched in both directions
/// (most-fractional until then); every solved relaxation is also rounded
/// greedily to probe for an incumbent; and an integral hint (the
/// preferred-register tags of section 5.6) seeds the incumbent so the
/// bound prunes from the first node. The wall-clock limit is checked
/// between the child LP re-solves inside a node — not just at node entry
/// — and a truncated search reports `ILPResult::TimedOut` plus the
/// `lp.ilp_timeouts` counter. Each solve reports `lp.ilp_solves`,
/// `lp.bb_nodes` and `lp.ilp_seconds`; pivots are accounted by the
/// engine's solves. The seed depth-first search it replaced is the
/// equivalence oracle in tests/oracles/DfsILP.cpp.
///
//===----------------------------------------------------------------------===//

#include "lp/LP.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>

using namespace ucc;

namespace {

bool isIntegral(double V, double Tol = 1e-6) {
  return std::fabs(V - std::round(V)) <= Tol;
}

//===--- best-first search (production) --------------------------------------//

class BestFirstBB {
public:
  BestFirstBB(const LPProblem &P, const std::vector<int> &IntVars,
              const ILPOptions &Opts)
      : Base(P), IntVars(IntVars), Opts(Opts), Engine(P) {}

  ILPResult run() {
    Start = std::chrono::steady_clock::now();
    PcDownSum.assign(static_cast<size_t>(Base.NumVars), 0.0);
    PcUpSum.assign(static_cast<size_t>(Base.NumVars), 0.0);
    PcDownCount.assign(static_cast<size_t>(Base.NumVars), 0);
    PcUpCount.assign(static_cast<size_t>(Base.NumVars), 0);

    // Seed the incumbent from the hint if it is feasible and integral.
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

    search();

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
  /// One branching decision relative to the root bounds.
  struct BoundChange {
    int Var;
    double Lo, Hi;
  };

  /// An enqueued node: its relaxation is already solved (LpBound, RelaxX,
  /// Basis are this node's own results), so the queue orders by true LP
  /// bounds and popping never triggers a solve.
  struct Node {
    double LpBound;
    int64_t Seq; ///< creation order, the deterministic tie-break
    std::vector<BoundChange> Changes; ///< path from the root
    std::vector<double> RelaxX;
    SimplexBasis Basis;
  };

  struct NodeOrder {
    bool operator()(const Node &A, const Node &B) const {
      if (A.LpBound != B.LpBound)
        return A.LpBound > B.LpBound; // min-heap on the bound
      return A.Seq > B.Seq;
    }
  };

  bool timeExpired() {
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

  bool limitsExceeded() {
    if (Pivots >= Opts.MaxPivots || Nodes >= Opts.MaxNodes) {
      HitLimit = true;
      return true;
    }
    return timeExpired();
  }

  /// Solves one node's relaxation under \p Changes, warm-started from
  /// \p WarmFrom when it holds a basis. Returns the engine result and
  /// restores the engine to root bounds afterwards.
  LPResult solveNode(const std::vector<BoundChange> &Changes,
                     const SimplexBasis &WarmFrom) {
    for (const BoundChange &C : Changes)
      Engine.setVarBounds(C.Var, C.Lo, C.Hi);
    int64_t Budget = Opts.MaxPivots - Pivots;
    if (Budget < 0)
      Budget = 0;
    LPResult R = WarmFrom.valid() ? Engine.solveWarm(WarmFrom, Budget)
                                  : Engine.solve(Budget);
    for (const BoundChange &C : Changes)
      Engine.setVarBounds(C.Var, Base.Lower[static_cast<size_t>(C.Var)],
                          Base.Upper[static_cast<size_t>(C.Var)]);
    Pivots += R.Pivots;
    ++Nodes;
    return R;
  }

  /// Greedy rounding probe: snap the integer variables of \p RelaxX to
  /// the nearest integer and accept the point as incumbent when it is
  /// feasible and better. Cheap, and on the UCC window models (where
  /// most relaxations are near-integral) it often closes the gap
  /// without any branching.
  void tryRounding(const std::vector<double> &RelaxX) {
    std::vector<double> X = RelaxX;
    for (int V : IntVars)
      X[static_cast<size_t>(V)] = std::round(X[static_cast<size_t>(V)]);
    if (!isFeasible(Base, X))
      return;
    double Obj = objectiveValue(Base, X);
    if (!HaveIncumbent || Obj < IncumbentObj - 1e-9) {
      Incumbent = std::move(X);
      IncumbentObj = Obj;
      HaveIncumbent = true;
    }
  }

  /// Picks the branching variable for \p RelaxX: pseudo-cost scoring
  /// over variables branched at least once in each direction, falling
  /// back to most-fractional while costs are uninitialized.
  int pickBranchVar(const std::vector<double> &RelaxX) const {
    int BestPc = -1;
    double BestPcScore = 0.0;
    int BestFracVar = -1;
    double BestFrac = 0.0;
    for (int V : IntVars) {
      double X = RelaxX[static_cast<size_t>(V)];
      double Frac = X - std::floor(X);
      double Dist = std::min(Frac, 1.0 - Frac);
      if (Dist <= 1e-6)
        continue;
      if (Dist > BestFrac) {
        BestFrac = Dist;
        BestFracVar = V;
      }
      if (PcDownCount[static_cast<size_t>(V)] > 0 &&
          PcUpCount[static_cast<size_t>(V)] > 0) {
        double Down = PcDownSum[static_cast<size_t>(V)] /
                      PcDownCount[static_cast<size_t>(V)] * Frac;
        double Up = PcUpSum[static_cast<size_t>(V)] /
                    PcUpCount[static_cast<size_t>(V)] * (1.0 - Frac);
        double Score = std::max(Down, 1e-9) * std::max(Up, 1e-9);
        if (Score > BestPcScore) {
          BestPcScore = Score;
          BestPc = V;
        }
      }
    }
    return BestPc >= 0 ? BestPc : BestFracVar;
  }

  void recordPseudoCost(int Var, bool Up, double Frac, double ParentObj,
                        double ChildObj) {
    double Dist = Up ? 1.0 - Frac : Frac;
    if (Dist < 1e-9)
      return;
    double Gain = std::max(0.0, ChildObj - ParentObj) / Dist;
    if (Up) {
      PcUpSum[static_cast<size_t>(Var)] += Gain;
      ++PcUpCount[static_cast<size_t>(Var)];
    } else {
      PcDownSum[static_cast<size_t>(Var)] += Gain;
      ++PcDownCount[static_cast<size_t>(Var)];
    }
  }

  void search() {
    if (limitsExceeded())
      return;

    LPResult Root = solveNode({}, SimplexBasis{});
    if (Root.Status == SolveStatus::Limit) {
      HitLimit = true;
      return;
    }
    if (Root.Status == SolveStatus::Infeasible)
      return;

    std::priority_queue<Node, std::vector<Node>, NodeOrder> Queue;
    int64_t NextSeq = 0;
    Queue.push(Node{Root.Objective, NextSeq++, {}, std::move(Root.X),
                    std::move(Root.Basis)});

    while (!Queue.empty()) {
      if (limitsExceeded())
        return;
      // Best-first bound break: the best open bound cannot beat the
      // incumbent, so neither can any other open node — proven optimal.
      if (HaveIncumbent && Queue.top().LpBound >= IncumbentObj - 1e-9)
        return;

      Node N = Queue.top();
      Queue.pop();

      tryRounding(N.RelaxX);
      if (HaveIncumbent && N.LpBound >= IncumbentObj - 1e-9)
        continue;

      int BranchVar = pickBranchVar(N.RelaxX);
      if (BranchVar < 0) {
        // Integral relaxation: snap and accept.
        std::vector<double> X = N.RelaxX;
        for (int V : IntVars)
          X[static_cast<size_t>(V)] = std::round(X[static_cast<size_t>(V)]);
        if (!isFeasible(Base, X))
          continue; // snapped point drifted out (numerically degenerate)
        double Obj = objectiveValue(Base, X);
        if (!HaveIncumbent || Obj < IncumbentObj - 1e-9) {
          Incumbent = std::move(X);
          IncumbentObj = Obj;
          HaveIncumbent = true;
        }
        continue;
      }

      double X = N.RelaxX[static_cast<size_t>(BranchVar)];
      double Floor = std::floor(X);
      double Frac = X - Floor;

      // Solve both children eagerly, warm-started from this node's
      // basis; the time limit is re-checked between the two re-solves.
      for (int Pass = 0; Pass < 2; ++Pass) {
        bool Down = Pass == 0;
        if (Pass > 0 && timeExpired())
          return;
        if (Pivots >= Opts.MaxPivots) {
          HitLimit = true;
          return;
        }

        std::vector<BoundChange> Changes = N.Changes;
        double Lo = Base.Lower[static_cast<size_t>(BranchVar)];
        double Hi = Base.Upper[static_cast<size_t>(BranchVar)];
        for (const BoundChange &C : N.Changes)
          if (C.Var == BranchVar) {
            Lo = C.Lo;
            Hi = C.Hi;
          }
        if (Down)
          Hi = Floor;
        else
          Lo = Floor + 1.0;
        if (Lo > Hi)
          continue; // branch empties the domain
        Changes.push_back({BranchVar, Lo, Hi});

        LPResult Child = solveNode(Changes, N.Basis);
        if (Child.Status == SolveStatus::Limit) {
          HitLimit = true;
          return;
        }
        if (Child.Status == SolveStatus::Infeasible)
          continue;
        recordPseudoCost(BranchVar, !Down, Frac, N.LpBound, Child.Objective);
        if (HaveIncumbent && Child.Objective >= IncumbentObj - 1e-9)
          continue; // bound: cannot beat the incumbent
        // Child bounds can numerically dip below the parent's; clamp so
        // the queue order stays a valid lower-bound order.
        double ChildBound = std::max(Child.Objective, N.LpBound);
        Queue.push(Node{ChildBound, NextSeq++, std::move(Changes),
                        std::move(Child.X), std::move(Child.Basis)});
      }
    }
  }

  const LPProblem &Base;
  const std::vector<int> &IntVars;
  const ILPOptions &Opts;
  SparseSimplex Engine;

  std::vector<double> Incumbent;
  double IncumbentObj = 0.0;
  bool HaveIncumbent = false;
  bool HitLimit = false;
  bool TimedOut = false;
  int64_t Pivots = 0;
  int Nodes = 0;
  std::vector<double> PcDownSum, PcUpSum;
  std::vector<int> PcDownCount, PcUpCount;
  std::chrono::steady_clock::time_point Start;
};

} // namespace

ILPResult ucc::solveILP(const LPProblem &P, const std::vector<int> &IntVars,
                        const ILPOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  ILPResult R = BestFirstBB(P, IntVars, Opts).run();
  if (Telemetry *T = currentTelemetry()) {
    T->addCounter("lp.ilp_solves");
    T->addCounter("lp.bb_nodes", R.Nodes);
    if (R.TimedOut)
      T->addCounter("lp.ilp_timeouts");
    T->addGauge("lp.ilp_seconds",
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count());
  }
  return R;
}
