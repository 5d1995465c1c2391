//===- lp/LP.h - linear and 0/1 integer programming ------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver substrate behind UCC-RA (the paper uses LP_solve [2]): a
/// two-phase primal simplex with bounded variables, and a branch-and-bound
/// 0/1 ILP solver on top of it. Simplex pivots are counted so that
/// Figs. 13-15 (constraints / iterations / time-per-iteration as functions
/// of problem size) can be measured, and the ILP accepts an integral
/// *hint* solution — how the preferred-register tags speed up the solver
/// in section 5.6.
///
/// One engine lives behind this interface (docs/PERFORMANCE.md): the
/// *sparse revised* simplex (lp/Simplex.cpp) — sparse-column storage, an
/// eta-file basis representation with deterministic reinversion,
/// steepest-edge-lite pricing, and a warm-start entry
/// (`SparseSimplex::solveWarm`) that repairs a parent basis with dual
/// simplex after branching changes a bound. `solveLP`/`solveILP`
/// (best-first branch-and-bound with pseudo-cost branching and a greedy
/// rounding incumbent) run on it. The seed dense-tableau simplex and
/// depth-first branch-and-bound it replaced are test oracles
/// (tests/oracles, pinned by tests/SolverEquivalenceTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_LP_LP_H
#define UCC_LP_LP_H

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace ucc {

/// One linear constraint: sum(Coef_k * x_{Var_k}) <Sense> RHS.
struct LPConstraint {
  enum class Sense { LE, EQ, GE };
  std::vector<std::pair<int, double>> Terms;
  Sense S = Sense::LE;
  double RHS = 0.0;
};

/// A linear program: minimize Obj'x subject to constraints and bounds.
struct LPProblem {
  int NumVars = 0;
  std::vector<double> Obj;   ///< size NumVars
  std::vector<double> Lower; ///< size NumVars
  std::vector<double> Upper; ///< size NumVars
  std::vector<LPConstraint> Constraints;

  /// Adds a variable, returns its index.
  int addVar(double Cost, double Lo, double Hi) {
    Obj.push_back(Cost);
    Lower.push_back(Lo);
    Upper.push_back(Hi);
    return NumVars++;
  }

  /// Adds a 0/1 variable.
  int addBinaryVar(double Cost) { return addVar(Cost, 0.0, 1.0); }

  void addConstraint(LPConstraint C) {
    Constraints.push_back(std::move(C));
  }

  void addLE(std::vector<std::pair<int, double>> Terms, double RHS) {
    addConstraint({std::move(Terms), LPConstraint::Sense::LE, RHS});
  }
  void addGE(std::vector<std::pair<int, double>> Terms, double RHS) {
    addConstraint({std::move(Terms), LPConstraint::Sense::GE, RHS});
  }
  void addEQ(std::vector<std::pair<int, double>> Terms, double RHS) {
    addConstraint({std::move(Terms), LPConstraint::Sense::EQ, RHS});
  }
};

/// Solver outcome.
enum class SolveStatus {
  Optimal,    ///< proven optimal
  Feasible,   ///< integral solution found, search truncated by a limit
  Infeasible, ///< no feasible point
  Limit       ///< limit hit before any feasible point
};

/// A simplex basis snapshot: which column occupies each row plus the
/// bound each nonbasic column rests at. Captured by the sparse engine on
/// every completed solve and fed back to `SparseSimplex::solveWarm` so a
/// branch-and-bound child re-solves from its parent's basis instead of
/// from scratch. Column indexing is engine-internal (structural, then
/// slack, then artificial per row); a basis is only meaningful for the
/// problem (same constraints, any bounds) that produced it.
struct SimplexBasis {
  std::vector<int32_t> Basic;   ///< per row: the basic column
  std::vector<uint8_t> AtUpper; ///< per column: nonbasic at upper bound?
  bool valid() const { return !Basic.empty(); }
};

/// LP (relaxation) result.
struct LPResult {
  SolveStatus Status = SolveStatus::Infeasible;
  std::vector<double> X;
  double Objective = 0.0;
  int64_t Pivots = 0; ///< simplex iterations performed
  /// Final basis of the solve (empty from the dense test oracle).
  SimplexBasis Basis;
};

/// Solves \p P with the two-phase bounded-variable simplex (the sparse
/// revised engine).
LPResult solveLP(const LPProblem &P,
                 int64_t MaxPivots = 2'000'000);

/// The sparse revised simplex as a stateful engine: build once per
/// problem, then solve repeatedly under changing variable bounds —
/// exactly the branch-and-bound access pattern. Bound edits via
/// setVarBounds are cheap (no matrix rebuild); solveWarm re-solves from
/// a previously captured basis, repairing primal infeasibility
/// introduced by bound changes with bounded-variable dual simplex and
/// falling back to a cold solve when the basis cannot be reused.
class SparseSimplex {
public:
  explicit SparseSimplex(const LPProblem &P);
  ~SparseSimplex();
  SparseSimplex(SparseSimplex &&) noexcept;
  SparseSimplex &operator=(SparseSimplex &&) noexcept;

  /// Overrides the bounds of structural variable \p Var for subsequent
  /// solves (branching fixes a 0/1 variable by setting Lo == Hi).
  void setVarBounds(int Var, double Lo, double Hi);

  /// Cold solve: two-phase primal from the slack/artificial basis.
  LPResult solve(int64_t MaxPivots = 2'000'000);

  /// Warm solve from \p Warm (captured by a previous solve of this
  /// problem at any bounds). Counts its dual-repair and primal pivots
  /// into LPResult::Pivots like a cold solve.
  LPResult solveWarm(const SimplexBasis &Warm,
                     int64_t MaxPivots = 2'000'000);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Branch-and-bound options.
struct ILPOptions {
  int64_t MaxPivots = 20'000'000;
  int MaxNodes = 200'000;
  double TimeLimitSec = 60.0;
  /// Optional integral starting solution (e.g. from preferred-register
  /// tags). Seeds the incumbent so the search prunes earlier.
  const std::vector<double> *Hint = nullptr;
};

/// ILP result.
struct ILPResult {
  SolveStatus Status = SolveStatus::Infeasible;
  std::vector<double> X;
  double Objective = 0.0;
  int64_t Pivots = 0; ///< total simplex iterations across all nodes
  int Nodes = 0;      ///< branch-and-bound nodes explored
  /// True when the wall-clock limit cut the search short (the time limit
  /// is checked between the LP re-solves inside a node, not just at node
  /// entry). Also surfaced as the `lp.ilp_timeouts` counter.
  bool TimedOut = false;
};

/// Solves \p P with the variables in \p IntVars restricted to integers:
/// best-first branch-and-bound on the sparse engine, with warm-started
/// child re-solves, pseudo-cost branching, a greedy rounding incumbent,
/// and optional incumbent seeding from Opts.Hint.
ILPResult solveILP(const LPProblem &P, const std::vector<int> &IntVars,
                   const ILPOptions &Opts = {});

/// Checks that \p X satisfies every constraint and bound of \p P within
/// \p Tol (test and validation helper).
bool isFeasible(const LPProblem &P, const std::vector<double> &X,
                double Tol = 1e-6);

/// Objective value of \p X under \p P.
double objectiveValue(const LPProblem &P, const std::vector<double> &X);

} // namespace ucc

#endif // UCC_LP_LP_H
