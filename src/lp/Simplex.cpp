//===- lp/Simplex.cpp - sparse revised bounded-variable simplex -----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production LP engine: a two-phase bounded-variable primal simplex
/// in *revised* form. The constraint matrix is stored once as sparse
/// columns (structural, then one slack per row, then one lazily-activated
/// artificial per row — the latter two are singletons, so the initial
/// basis inverse is the identity) and the basis inverse is represented as
/// a product-form eta file: each basis change appends one sparse eta
/// vector, FTRAN/BTRAN apply the file forward/backward, and a
/// deterministic reinversion (singleton columns first, largest-pivot row
/// selection) rebuilds the file from the basis when it grows past a
/// threshold or when a warm start installs a foreign basis.
///
/// Pricing is steepest-edge-lite: reduced costs from a fresh BTRAN each
/// iteration (self-correcting), scored as d^2 over a static column-norm
/// reference weight, with the same Bland fallback after a degenerate run
/// as the seed dense engine. The ratio test (bound flips, leaving
/// tie-break by smaller column) mirrors tests/oracles/DenseSimplex.cpp so
/// the two engines are comparable pivot-for-pivot in spirit, and the
/// randomized harness in tests/SolverEquivalenceTest.cpp pins their
/// objectives to each other.
///
/// Warm starts (`SparseSimplex::solveWarm`): branch-and-bound re-solves
/// a node's LP after tightening one variable's bounds. The parent's
/// optimal basis stays *dual* feasible under bound changes, so the child
/// re-solve reinstalls that basis, repairs primal infeasibility with
/// bounded-variable dual simplex pivots (with bound-flip "long steps"),
/// and polishes with the primal loop — typically a handful of pivots
/// instead of a from-scratch solve. Any doubt (singular reinversion,
/// dual infeasibility, iteration cap) falls back to a cold solve, so the
/// warm path is a pure optimization.
///
/// Every solve reports pivots and wall time to the telemetry registry
/// (`lp.solves`, `lp.pivots`, `lp.lp_seconds`, plus `lp.warm_solves` for
/// warm-started re-solves) so Figs. 13-15 can be read off a trace.
///
//===----------------------------------------------------------------------===//

#include "lp/LP.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

using namespace ucc;

namespace {

constexpr double Eps = 1e-9;
constexpr double PivotTol = 1e-8;
constexpr double DualFeasTol = 1e-7;
constexpr double Inf = std::numeric_limits<double>::infinity();

/// Basis changes between reinversions. Each eta lengthens FTRAN/BTRAN,
/// so the file is periodically collapsed back to at most one eta per
/// basic column; reinversion also recomputes the basic values from
/// scratch, keeping numerical drift bounded.
constexpr int RefactorEvery = 128;

} // namespace

struct SparseSimplex::Impl {
  //===--- immutable problem shape -----------------------------------------//

  int NumStructural = 0;
  int NumRows = 0;
  int FirstSlack = 0;
  int FirstArtificial = 0;
  int NumTotal = 0; ///< structural + slack + artificial columns

  /// All columns in CSC form: structural columns from the constraints
  /// (duplicate terms merged), then singleton slack and artificial
  /// columns (+1 at their row).
  std::vector<int> ColStart;
  std::vector<int> ColRowIdx;
  std::vector<double> ColValue;

  std::vector<double> Rhs;                ///< per row
  std::vector<double> SlackLo, SlackHi;   ///< per row, from the sense
  std::vector<double> BaseCost;           ///< structural objective
  std::vector<double> VarLo, VarHi;       ///< current structural bounds
  std::vector<double> ColNorm;            ///< 1 + ||A_j||^2 (pricing)

  //===--- per-solve state --------------------------------------------------//

  std::vector<double> Cost, Lo, Hi, XVal, Beta;
  std::vector<int> Basis;           ///< per row: basic column
  std::vector<int> BasisPos;        ///< per column: row, or -1
  std::vector<uint8_t> AtUpper;

  /// One product-form eta: replaces column Row of the identity. Col
  /// holds (row, E[row][Row]) pairs including the diagonal entry.
  struct Eta {
    int Row;
    std::vector<std::pair<int, double>> Col;
  };
  std::vector<Eta> Etas;
  int BasisChanges = 0; ///< since the last reinversion

  int64_t Pivots = 0;
  int64_t MaxPivots = 0;

  std::vector<double> DenseA; ///< FTRAN scratch (size NumRows)
  std::vector<double> DenseY; ///< BTRAN scratch (size NumRows)

  //===--- construction -----------------------------------------------------//

  explicit Impl(const LPProblem &P) {
    assert(static_cast<int>(P.Obj.size()) == P.NumVars &&
           static_cast<int>(P.Lower.size()) == P.NumVars &&
           static_cast<int>(P.Upper.size()) == P.NumVars &&
           "malformed LP problem");
    NumStructural = P.NumVars;
    NumRows = static_cast<int>(P.Constraints.size());
    FirstSlack = NumStructural;
    FirstArtificial = NumStructural + NumRows;
    NumTotal = NumStructural + 2 * NumRows;

    BaseCost = P.Obj;
    VarLo = P.Lower;
    VarHi = P.Upper;

    Rhs.resize(static_cast<size_t>(NumRows));
    SlackLo.resize(static_cast<size_t>(NumRows));
    SlackHi.resize(static_cast<size_t>(NumRows));

    // Gather structural entries, merging duplicate (row, var) terms the
    // way the dense tableau's `at(I, Var) += Coef` did.
    std::vector<std::vector<std::pair<int, double>>> ByCol(
        static_cast<size_t>(NumStructural));
    for (int I = 0; I < NumRows; ++I) {
      const LPConstraint &C = P.Constraints[static_cast<size_t>(I)];
      Rhs[static_cast<size_t>(I)] = C.RHS;
      switch (C.S) {
      case LPConstraint::Sense::LE:
        SlackLo[static_cast<size_t>(I)] = 0.0;
        SlackHi[static_cast<size_t>(I)] = Inf;
        break;
      case LPConstraint::Sense::GE:
        SlackLo[static_cast<size_t>(I)] = -Inf;
        SlackHi[static_cast<size_t>(I)] = 0.0;
        break;
      case LPConstraint::Sense::EQ:
        SlackLo[static_cast<size_t>(I)] = 0.0;
        SlackHi[static_cast<size_t>(I)] = 0.0;
        break;
      }
      for (const auto &[Var, Coef] : C.Terms)
        ByCol[static_cast<size_t>(Var)].push_back({I, Coef});
    }

    ColStart.assign(static_cast<size_t>(NumTotal) + 1, 0);
    size_t Nnz = 0;
    for (int J = 0; J < NumStructural; ++J) {
      auto &Entries = ByCol[static_cast<size_t>(J)];
      std::sort(Entries.begin(), Entries.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      // Merge duplicates in place.
      size_t Out = 0;
      for (size_t K = 0; K < Entries.size(); ++K) {
        if (Out > 0 && Entries[Out - 1].first == Entries[K].first)
          Entries[Out - 1].second += Entries[K].second;
        else
          Entries[Out++] = Entries[K];
      }
      Entries.resize(Out);
      Nnz += Out;
    }
    Nnz += 2 * static_cast<size_t>(NumRows); // slack + artificial singletons
    ColRowIdx.reserve(Nnz);
    ColValue.reserve(Nnz);
    ColNorm.assign(static_cast<size_t>(NumTotal), 1.0);
    for (int J = 0; J < NumStructural; ++J) {
      ColStart[static_cast<size_t>(J)] = static_cast<int>(ColRowIdx.size());
      for (const auto &[Row, Val] : ByCol[static_cast<size_t>(J)]) {
        ColRowIdx.push_back(Row);
        ColValue.push_back(Val);
        ColNorm[static_cast<size_t>(J)] += Val * Val;
      }
    }
    for (int I = 0; I < NumRows; ++I) {
      ColStart[static_cast<size_t>(FirstSlack + I)] =
          static_cast<int>(ColRowIdx.size());
      ColRowIdx.push_back(I);
      ColValue.push_back(1.0);
      ColNorm[static_cast<size_t>(FirstSlack + I)] = 2.0;
    }
    for (int I = 0; I < NumRows; ++I) {
      ColStart[static_cast<size_t>(FirstArtificial + I)] =
          static_cast<int>(ColRowIdx.size());
      ColRowIdx.push_back(I);
      ColValue.push_back(1.0);
      ColNorm[static_cast<size_t>(FirstArtificial + I)] = 2.0;
    }
    ColStart[static_cast<size_t>(NumTotal)] =
        static_cast<int>(ColRowIdx.size());

    DenseA.assign(static_cast<size_t>(NumRows), 0.0);
    DenseY.assign(static_cast<size_t>(NumRows), 0.0);
  }

  //===--- sparse column access ---------------------------------------------//

  double colDot(const std::vector<double> &Y, int J) const {
    double D = 0.0;
    for (int K = ColStart[static_cast<size_t>(J)];
         K < ColStart[static_cast<size_t>(J) + 1]; ++K)
      D += Y[static_cast<size_t>(ColRowIdx[static_cast<size_t>(K)])] *
           ColValue[static_cast<size_t>(K)];
    return D;
  }

  void colScatter(int J, std::vector<double> &X) const {
    std::fill(X.begin(), X.end(), 0.0);
    for (int K = ColStart[static_cast<size_t>(J)];
         K < ColStart[static_cast<size_t>(J) + 1]; ++K)
      X[static_cast<size_t>(ColRowIdx[static_cast<size_t>(K)])] =
          ColValue[static_cast<size_t>(K)];
  }

  //===--- eta file ----------------------------------------------------------//

  /// X := E_k ... E_1 X (forward application; X = B^-1 v for v scattered
  /// into X beforehand).
  void ftranApply(std::vector<double> &X) const {
    for (const Eta &E : Etas) {
      double T = X[static_cast<size_t>(E.Row)];
      if (T == 0.0)
        continue;
      X[static_cast<size_t>(E.Row)] = 0.0;
      for (const auto &[Row, Val] : E.Col)
        X[static_cast<size_t>(Row)] += Val * T;
    }
  }

  /// Y := E_1' ... E_k' Y (transposes in reverse; Y = B^-T w for w
  /// loaded into Y beforehand).
  void btranApply(std::vector<double> &Y) const {
    for (size_t K = Etas.size(); K-- > 0;) {
      const Eta &E = Etas[K];
      double S = 0.0;
      for (const auto &[Row, Val] : E.Col)
        S += Val * Y[static_cast<size_t>(Row)];
      Y[static_cast<size_t>(E.Row)] = S;
    }
  }

  /// Appends the eta for a pivot on \p Alpha at \p Row (|Alpha[Row]|
  /// already checked against PivotTol).
  void pushEta(int Row, const std::vector<double> &Alpha) {
    Eta E;
    E.Row = Row;
    double InvPivot = 1.0 / Alpha[static_cast<size_t>(Row)];
    for (int I = 0; I < NumRows; ++I) {
      double V = Alpha[static_cast<size_t>(I)];
      if (V == 0.0)
        continue;
      if (I == Row)
        E.Col.push_back({I, InvPivot});
      else
        E.Col.push_back({I, -V * InvPivot});
    }
    Etas.push_back(std::move(E));
  }

  /// Rebuilds the eta file from the current basic column set (singleton
  /// columns first, then ascending sparsity, largest-pivot row choice —
  /// fully deterministic), reassigning rows to basic columns, and
  /// recomputes the basic values from scratch. Returns false when the
  /// basis is numerically singular.
  bool refactor() {
    std::vector<int> Cols(Basis.begin(), Basis.end());
    std::sort(Cols.begin(), Cols.end(), [&](int A, int B) {
      int NnzA = ColStart[static_cast<size_t>(A) + 1] -
                 ColStart[static_cast<size_t>(A)];
      int NnzB = ColStart[static_cast<size_t>(B) + 1] -
                 ColStart[static_cast<size_t>(B)];
      if (NnzA != NnzB)
        return NnzA < NnzB;
      return A < B;
    });

    Etas.clear();
    std::vector<uint8_t> Assigned(static_cast<size_t>(NumRows), 0);
    std::vector<int> NewBasis(static_cast<size_t>(NumRows), -1);
    for (int C : Cols) {
      colScatter(C, DenseA);
      ftranApply(DenseA);
      int PivotRow = -1;
      double BestAbs = PivotTol;
      for (int I = 0; I < NumRows; ++I) {
        if (Assigned[static_cast<size_t>(I)])
          continue;
        double V = std::fabs(DenseA[static_cast<size_t>(I)]);
        if (V > BestAbs) {
          BestAbs = V;
          PivotRow = I;
        }
      }
      if (PivotRow < 0)
        return false; // singular
      Assigned[static_cast<size_t>(PivotRow)] = 1;
      NewBasis[static_cast<size_t>(PivotRow)] = C;
      // Identity columns (slack/artificial with untouched row) need no eta.
      bool IsIdentity = true;
      for (int I = 0; I < NumRows; ++I) {
        double V = DenseA[static_cast<size_t>(I)];
        if (I == PivotRow ? V != 1.0 : V != 0.0) {
          IsIdentity = false;
          break;
        }
      }
      if (!IsIdentity)
        pushEta(PivotRow, DenseA);
    }
    Basis = std::move(NewBasis);
    std::fill(BasisPos.begin(), BasisPos.end(), -1);
    for (int I = 0; I < NumRows; ++I)
      BasisPos[static_cast<size_t>(Basis[static_cast<size_t>(I)])] = I;
    BasisChanges = 0;
    computeBeta();
    return true;
  }

  /// Beta := B^-1 (b - N x_N), refreshing XVal for the basics.
  void computeBeta() {
    std::vector<double> R = Rhs;
    for (int J = 0; J < NumTotal; ++J) {
      if (BasisPos[static_cast<size_t>(J)] >= 0)
        continue;
      double V = XVal[static_cast<size_t>(J)];
      if (V == 0.0)
        continue;
      for (int K = ColStart[static_cast<size_t>(J)];
           K < ColStart[static_cast<size_t>(J) + 1]; ++K)
        R[static_cast<size_t>(ColRowIdx[static_cast<size_t>(K)])] -=
            ColValue[static_cast<size_t>(K)] * V;
    }
    ftranApply(R);
    Beta = std::move(R);
    for (int I = 0; I < NumRows; ++I)
      XVal[static_cast<size_t>(Basis[static_cast<size_t>(I)])] =
          Beta[static_cast<size_t>(I)];
  }

  //===--- solve-state setup -------------------------------------------------//

  /// Resets bounds/costs/values for a fresh solve under the current
  /// structural bounds. Artificials start fixed at zero; coldStart()
  /// activates the ones it needs.
  void prepareState() {
    Cost.assign(static_cast<size_t>(NumTotal), 0.0);
    Lo.assign(static_cast<size_t>(NumTotal), 0.0);
    Hi.assign(static_cast<size_t>(NumTotal), 0.0);
    XVal.assign(static_cast<size_t>(NumTotal), 0.0);
    AtUpper.assign(static_cast<size_t>(NumTotal), 0);
    for (int J = 0; J < NumStructural; ++J) {
      Cost[static_cast<size_t>(J)] = BaseCost[static_cast<size_t>(J)];
      Lo[static_cast<size_t>(J)] = VarLo[static_cast<size_t>(J)];
      Hi[static_cast<size_t>(J)] = VarHi[static_cast<size_t>(J)];
    }
    for (int I = 0; I < NumRows; ++I) {
      Lo[static_cast<size_t>(FirstSlack + I)] = SlackLo[static_cast<size_t>(I)];
      Hi[static_cast<size_t>(FirstSlack + I)] = SlackHi[static_cast<size_t>(I)];
    }
    Basis.assign(static_cast<size_t>(NumRows), -1);
    BasisPos.assign(static_cast<size_t>(NumTotal), -1);
    Beta.assign(static_cast<size_t>(NumRows), 0.0);
    Etas.clear();
    BasisChanges = 0;
  }

  /// The dense engine's initial nonbasic placement: the finite bound
  /// nearest zero.
  void placeNonbasicStructurals() {
    for (int J = 0; J < NumStructural; ++J) {
      double L = Lo[static_cast<size_t>(J)], H = Hi[static_cast<size_t>(J)];
      double V;
      if (L > 0.0 || !std::isfinite(H))
        V = L;
      else if (H < 0.0)
        V = H;
      else
        V = L;
      XVal[static_cast<size_t>(J)] = V;
      AtUpper[static_cast<size_t>(J)] = V == H && H != L;
    }
  }

  /// Slack-or-artificial starting basis (B = I, empty eta file).
  /// Returns the number of active artificials; their phase-1 costs are
  /// installed by phase1Costs().
  int coldStart() {
    placeNonbasicStructurals();
    int Activated = 0;
    // Row residuals r_i = b_i - sum_j A_ij x_j over nonbasic structurals.
    std::vector<double> Residual = Rhs;
    for (int J = 0; J < NumStructural; ++J) {
      double V = XVal[static_cast<size_t>(J)];
      if (V == 0.0)
        continue;
      for (int K = ColStart[static_cast<size_t>(J)];
           K < ColStart[static_cast<size_t>(J) + 1]; ++K)
        Residual[static_cast<size_t>(ColRowIdx[static_cast<size_t>(K)])] -=
            ColValue[static_cast<size_t>(K)] * V;
    }
    for (int I = 0; I < NumRows; ++I) {
      int SlackVar = FirstSlack + I;
      double R = Residual[static_cast<size_t>(I)];
      bool SlackFits = R >= Lo[static_cast<size_t>(SlackVar)] - Eps &&
                       R <= Hi[static_cast<size_t>(SlackVar)] + Eps;
      if (SlackFits) {
        Basis[static_cast<size_t>(I)] = SlackVar;
        Beta[static_cast<size_t>(I)] = R;
        XVal[static_cast<size_t>(SlackVar)] = R;
        continue;
      }
      // Park the slack at its finite bound nearest the residual; the
      // row's artificial absorbs the rest. The artificial keeps its +1
      // coefficient; a negative rest gives it a [rest, 0] range and a
      // phase-1 cost of -1 so phase 1 still minimizes |rest|.
      double SLo = Lo[static_cast<size_t>(SlackVar)];
      double SHi = Hi[static_cast<size_t>(SlackVar)];
      double SV = std::min(std::max(R, SLo), SHi);
      XVal[static_cast<size_t>(SlackVar)] = SV;
      AtUpper[static_cast<size_t>(SlackVar)] = SV == SHi && SHi != SLo;
      double Rest = R - SV;

      int Art = FirstArtificial + I;
      if (Rest >= 0.0) {
        Lo[static_cast<size_t>(Art)] = 0.0;
        Hi[static_cast<size_t>(Art)] = Inf;
      } else {
        Lo[static_cast<size_t>(Art)] = -Inf;
        Hi[static_cast<size_t>(Art)] = 0.0;
      }
      Basis[static_cast<size_t>(I)] = Art;
      Beta[static_cast<size_t>(I)] = Rest;
      XVal[static_cast<size_t>(Art)] = Rest;
      ++Activated;
    }
    for (int I = 0; I < NumRows; ++I)
      BasisPos[static_cast<size_t>(Basis[static_cast<size_t>(I)])] = I;
    return Activated;
  }

  /// Installs phase-1 costs: +-1 on the active artificials so the
  /// objective is the total absolute infeasibility.
  void phase1Costs() {
    for (double &C : Cost)
      C = 0.0;
    for (int I = 0; I < NumRows; ++I) {
      int Art = FirstArtificial + I;
      if (Lo[static_cast<size_t>(Art)] == Hi[static_cast<size_t>(Art)])
        continue; // never activated
      Cost[static_cast<size_t>(Art)] =
          Hi[static_cast<size_t>(Art)] > 0.0 ? 1.0 : -1.0;
    }
  }

  /// Freezes artificials at zero and restores the real objective.
  void realCosts() {
    for (int J = 0; J < NumTotal; ++J)
      Cost[static_cast<size_t>(J)] = 0.0;
    for (int J = 0; J < NumStructural; ++J)
      Cost[static_cast<size_t>(J)] = BaseCost[static_cast<size_t>(J)];
    for (int I = 0; I < NumRows; ++I) {
      int Art = FirstArtificial + I;
      Lo[static_cast<size_t>(Art)] = 0.0;
      Hi[static_cast<size_t>(Art)] = 0.0;
      if (BasisPos[static_cast<size_t>(Art)] < 0)
        XVal[static_cast<size_t>(Art)] = 0.0;
    }
  }

  double currentObjective() const {
    double Obj = 0.0;
    for (int J = 0; J < NumTotal; ++J)
      Obj += Cost[static_cast<size_t>(J)] * XVal[static_cast<size_t>(J)];
    return Obj;
  }

  //===--- the primal loop ---------------------------------------------------//

  /// Pivots until optimality under the installed costs. Returns false on
  /// the pivot budget.
  bool primalIterate() {
    int DegenerateRun = 0;
    bool RetriedAfterRefactor = false;
    while (true) {
      if (Pivots >= MaxPivots)
        return false;
      if (BasisChanges >= RefactorEvery) {
        bool Ok = refactor();
        assert(Ok && "basis became singular during the primal loop");
        (void)Ok;
      }

      // y = B^-T cB; d_j = c_j - y . A_j.
      for (int I = 0; I < NumRows; ++I)
        DenseY[static_cast<size_t>(I)] =
            Cost[static_cast<size_t>(Basis[static_cast<size_t>(I)])];
      btranApply(DenseY);

      bool UseBland = DegenerateRun > 64;
      int Entering = -1;
      int Dir = 0; // +1 entering rises from lower, -1 falls from upper
      double BestScore = 0.0;

      for (int J = 0; J < NumTotal; ++J) {
        if (BasisPos[static_cast<size_t>(J)] >= 0)
          continue;
        if (Lo[static_cast<size_t>(J)] == Hi[static_cast<size_t>(J)])
          continue; // fixed variable
        double D = Cost[static_cast<size_t>(J)] - colDot(DenseY, J);
        int CandDir = 0;
        if (!AtUpper[static_cast<size_t>(J)] && D < -DualFeasTol)
          CandDir = +1;
        else if (AtUpper[static_cast<size_t>(J)] && D > DualFeasTol)
          CandDir = -1;
        if (CandDir == 0)
          continue;
        if (UseBland) {
          Entering = J;
          Dir = CandDir;
          break;
        }
        // Steepest-edge-lite: d^2 over the static reference weight.
        double Score = D * D / ColNorm[static_cast<size_t>(J)];
        if (Score > BestScore) {
          BestScore = Score;
          Entering = J;
          Dir = CandDir;
        }
      }
      if (Entering < 0)
        return true; // optimal

      colScatter(Entering, DenseA);
      ftranApply(DenseA);

      // Ratio test (bound flip at TMax; leaving tie-break by smaller
      // basic column, as in the dense engine).
      double TMax = Hi[static_cast<size_t>(Entering)] -
                    Lo[static_cast<size_t>(Entering)];
      int LeaveRow = -1;
      int LeaveToUpper = 0;
      for (int I = 0; I < NumRows; ++I) {
        double Coef = -Dir * DenseA[static_cast<size_t>(I)];
        if (std::fabs(Coef) < PivotTol)
          continue;
        int BV = Basis[static_cast<size_t>(I)];
        double Limit;
        int HitsUpper;
        if (Coef > 0.0) {
          if (!std::isfinite(Hi[static_cast<size_t>(BV)]))
            continue;
          Limit =
              (Hi[static_cast<size_t>(BV)] - Beta[static_cast<size_t>(I)]) /
              Coef;
          HitsUpper = 1;
        } else {
          if (!std::isfinite(Lo[static_cast<size_t>(BV)]))
            continue;
          Limit =
              (Lo[static_cast<size_t>(BV)] - Beta[static_cast<size_t>(I)]) /
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
        return true; // unbounded direction: declare the current feasible
                     // point optimal, like the dense engine

      if (LeaveRow >= 0 &&
          std::fabs(DenseA[static_cast<size_t>(LeaveRow)]) <= PivotTol) {
        // The chosen pivot is numerically unusable; collapse the eta
        // file once and re-derive the iteration from fresh numbers.
        assert(!RetriedAfterRefactor && "unstable pivot after reinversion");
        (void)RetriedAfterRefactor;
        RetriedAfterRefactor = true;
        bool Ok = refactor();
        assert(Ok && "basis became singular during the primal loop");
        (void)Ok;
        continue;
      }
      RetriedAfterRefactor = false;

      ++Pivots;
      DegenerateRun = TMax < Eps ? DegenerateRun + 1 : 0;

      double NewEnterVal = XVal[static_cast<size_t>(Entering)] + Dir * TMax;
      for (int I = 0; I < NumRows; ++I) {
        double Coef = -Dir * DenseA[static_cast<size_t>(I)];
        if (Coef != 0.0) {
          Beta[static_cast<size_t>(I)] += TMax * Coef;
          XVal[static_cast<size_t>(Basis[static_cast<size_t>(I)])] =
              Beta[static_cast<size_t>(I)];
        }
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
      AtUpper[static_cast<size_t>(Leaving)] =
          static_cast<uint8_t>(LeaveToUpper);
      BasisPos[static_cast<size_t>(Leaving)] = -1;
      BasisPos[static_cast<size_t>(Entering)] = LeaveRow;
      Basis[static_cast<size_t>(LeaveRow)] = Entering;
      Beta[static_cast<size_t>(LeaveRow)] = NewEnterVal;

      pushEta(LeaveRow, DenseA);
      ++BasisChanges;
    }
  }

  //===--- dual repair (warm starts) -----------------------------------------//

  enum class DualOutcome { Feasible, Infeasible, Limit, Abandon };

  /// Bounded-variable dual simplex: drives primal-infeasible basics to
  /// their violated bound while preserving dual feasibility. Used only
  /// to repair a warm-started basis after bound changes.
  DualOutcome dualRepair() {
    // Reduced costs are maintained incrementally across dual pivots.
    for (int I = 0; I < NumRows; ++I)
      DenseY[static_cast<size_t>(I)] =
          Cost[static_cast<size_t>(Basis[static_cast<size_t>(I)])];
    btranApply(DenseY);
    std::vector<double> D(static_cast<size_t>(NumTotal), 0.0);
    for (int J = 0; J < NumTotal; ++J) {
      if (BasisPos[static_cast<size_t>(J)] >= 0)
        continue;
      D[static_cast<size_t>(J)] =
          Cost[static_cast<size_t>(J)] - colDot(DenseY, J);
      // The warm basis must be dual feasible (it was primal-optimal for
      // the parent); anything else means the basis is stale.
      if (Lo[static_cast<size_t>(J)] == Hi[static_cast<size_t>(J)])
        continue;
      if (!AtUpper[static_cast<size_t>(J)] &&
          D[static_cast<size_t>(J)] < -1e-6)
        return DualOutcome::Abandon;
      if (AtUpper[static_cast<size_t>(J)] && D[static_cast<size_t>(J)] > 1e-6)
        return DualOutcome::Abandon;
    }

    int64_t Iterations = 0;
    int64_t IterationCap = 4 * static_cast<int64_t>(NumRows) + 256;
    std::vector<double> W(static_cast<size_t>(NumTotal), 0.0);
    while (true) {
      if (Pivots >= MaxPivots)
        return DualOutcome::Limit;
      if (++Iterations > IterationCap)
        return DualOutcome::Abandon;
      if (BasisChanges >= RefactorEvery)
        if (!refactor())
          return DualOutcome::Abandon;

      // Most-violated basic leaves (ties: smaller row).
      int LeaveRow = -1;
      double WorstViol = 1e-7;
      bool LeaveAtLower = true;
      for (int I = 0; I < NumRows; ++I) {
        int BV = Basis[static_cast<size_t>(I)];
        double B = Beta[static_cast<size_t>(I)];
        double Below = Lo[static_cast<size_t>(BV)] - B;
        double Above = B - Hi[static_cast<size_t>(BV)];
        if (Below > WorstViol) {
          WorstViol = Below;
          LeaveRow = I;
          LeaveAtLower = true;
        }
        if (Above > WorstViol) {
          WorstViol = Above;
          LeaveRow = I;
          LeaveAtLower = false;
        }
      }
      if (LeaveRow < 0)
        return DualOutcome::Feasible;

      // Pivot row: w_j = (B^-T e_r) . A_j.
      std::fill(DenseY.begin(), DenseY.end(), 0.0);
      DenseY[static_cast<size_t>(LeaveRow)] = 1.0;
      btranApply(DenseY);

      // Dual ratio test over admissible entering columns: the ones whose
      // move pushes beta_r toward the violated bound; among them the
      // smallest |d|/|w| keeps every reduced cost on its feasible side.
      int Entering = -1;
      double BestRatio = 0.0;
      double EnterW = 0.0;
      for (int J = 0; J < NumTotal; ++J) {
        if (BasisPos[static_cast<size_t>(J)] >= 0)
          continue;
        if (Lo[static_cast<size_t>(J)] == Hi[static_cast<size_t>(J)])
          continue;
        double WJ = colDot(DenseY, J);
        W[static_cast<size_t>(J)] = WJ;
        if (std::fabs(WJ) < PivotTol)
          continue;
        bool Admissible =
            LeaveAtLower
                ? (!AtUpper[static_cast<size_t>(J)] ? WJ < 0.0 : WJ > 0.0)
                : (!AtUpper[static_cast<size_t>(J)] ? WJ > 0.0 : WJ < 0.0);
        if (!Admissible)
          continue;
        double Ratio = std::fabs(D[static_cast<size_t>(J)]) / std::fabs(WJ);
        if (Entering < 0 || Ratio < BestRatio - Eps ||
            (Ratio < BestRatio + Eps && J < Entering)) {
          Entering = J;
          BestRatio = Ratio;
          EnterW = WJ;
        }
      }
      if (Entering < 0)
        return DualOutcome::Infeasible; // dual unbounded

      colScatter(Entering, DenseA);
      ftranApply(DenseA);
      double AlphaR = DenseA[static_cast<size_t>(LeaveRow)];
      if (std::fabs(AlphaR) <= PivotTol)
        return DualOutcome::Abandon; // numerically stale basis

      int LeaveCol = Basis[static_cast<size_t>(LeaveRow)];
      double Target = LeaveAtLower ? Lo[static_cast<size_t>(LeaveCol)]
                                   : Hi[static_cast<size_t>(LeaveCol)];
      // beta_r responds to x_q as -w_q; step Delta moves it to Target.
      double Delta =
          (Beta[static_cast<size_t>(LeaveRow)] - Target) / EnterW;

      double Range = Hi[static_cast<size_t>(Entering)] -
                     Lo[static_cast<size_t>(Entering)];
      if (std::isfinite(Range) && std::fabs(Delta) > Range + Eps) {
        // Long step: the entering column hits its opposite bound before
        // the leaving row reaches its target — a bound flip; the row
        // stays (less) violated and the loop continues.
        double Flip = AtUpper[static_cast<size_t>(Entering)] ? -Range : Range;
        for (int I = 0; I < NumRows; ++I) {
          double A = DenseA[static_cast<size_t>(I)];
          if (A != 0.0) {
            Beta[static_cast<size_t>(I)] -= Flip * A;
            XVal[static_cast<size_t>(Basis[static_cast<size_t>(I)])] =
                Beta[static_cast<size_t>(I)];
          }
        }
        AtUpper[static_cast<size_t>(Entering)] =
            !AtUpper[static_cast<size_t>(Entering)];
        XVal[static_cast<size_t>(Entering)] =
            AtUpper[static_cast<size_t>(Entering)]
                ? Hi[static_cast<size_t>(Entering)]
                : Lo[static_cast<size_t>(Entering)];
        ++Pivots;
        continue;
      }

      // Basis change: r leaves at Target, q enters at XVal_q + Delta.
      double Theta = D[static_cast<size_t>(Entering)] / EnterW;
      for (int J = 0; J < NumTotal; ++J) {
        if (BasisPos[static_cast<size_t>(J)] >= 0 || J == Entering)
          continue;
        if (W[static_cast<size_t>(J)] != 0.0)
          D[static_cast<size_t>(J)] -= Theta * W[static_cast<size_t>(J)];
      }
      D[static_cast<size_t>(LeaveCol)] = -Theta;
      D[static_cast<size_t>(Entering)] = 0.0;

      double NewEnterVal = XVal[static_cast<size_t>(Entering)] + Delta;
      for (int I = 0; I < NumRows; ++I) {
        double A = DenseA[static_cast<size_t>(I)];
        if (A != 0.0) {
          Beta[static_cast<size_t>(I)] -= Delta * A;
          XVal[static_cast<size_t>(Basis[static_cast<size_t>(I)])] =
              Beta[static_cast<size_t>(I)];
        }
      }
      XVal[static_cast<size_t>(LeaveCol)] = Target;
      AtUpper[static_cast<size_t>(LeaveCol)] =
          static_cast<uint8_t>(!LeaveAtLower);
      BasisPos[static_cast<size_t>(LeaveCol)] = -1;
      BasisPos[static_cast<size_t>(Entering)] = LeaveRow;
      Basis[static_cast<size_t>(LeaveRow)] = Entering;
      Beta[static_cast<size_t>(LeaveRow)] = NewEnterVal;
      XVal[static_cast<size_t>(Entering)] = NewEnterVal;
      pushEta(LeaveRow, DenseA);
      ++BasisChanges;
      ++Pivots;
    }
  }

  //===--- drivers ------------------------------------------------------------//

  LPResult finish(SolveStatus Status) {
    LPResult R;
    R.Status = Status;
    R.Pivots = Pivots;
    R.X.resize(static_cast<size_t>(NumStructural));
    for (int J = 0; J < NumStructural; ++J)
      R.X[static_cast<size_t>(J)] = XVal[static_cast<size_t>(J)];
    R.Objective = 0.0;
    for (int J = 0; J < NumStructural; ++J)
      R.Objective +=
          BaseCost[static_cast<size_t>(J)] * R.X[static_cast<size_t>(J)];
    R.Basis.Basic.resize(static_cast<size_t>(NumRows));
    for (int I = 0; I < NumRows; ++I)
      R.Basis.Basic[static_cast<size_t>(I)] =
          static_cast<int32_t>(Basis[static_cast<size_t>(I)]);
    R.Basis.AtUpper.assign(AtUpper.begin(), AtUpper.end());
    return R;
  }

  LPResult solveCold(int64_t Budget) {
    Pivots = 0;
    MaxPivots = Budget;
    prepareState();
    int Artificials = coldStart();

    if (Artificials > 0) {
      phase1Costs();
      if (!primalIterate())
        return finish(SolveStatus::Limit);
      if (std::fabs(currentObjective()) > 1e-6)
        return finish(SolveStatus::Infeasible);
      realCosts();
      // Any basic artificial sits at zero; recompute values under the
      // frozen bounds so the phase-2 start is exact.
      computeBeta();
    }

    if (!primalIterate())
      return finish(SolveStatus::Limit);
    return finish(SolveStatus::Optimal);
  }

  LPResult solveWarm(const SimplexBasis &Warm, int64_t Budget) {
    if (static_cast<int>(Warm.Basic.size()) != NumRows ||
        static_cast<int>(Warm.AtUpper.size()) != NumTotal)
      return solveCold(Budget);

    Pivots = 0;
    MaxPivots = Budget;
    prepareState();

    // Install the warm basis; artificials stay frozen at zero (a basic
    // artificial from the parent is fine — it is pinned to zero).
    std::vector<uint8_t> Seen(static_cast<size_t>(NumTotal), 0);
    for (int I = 0; I < NumRows; ++I) {
      int C = Warm.Basic[static_cast<size_t>(I)];
      if (C < 0 || C >= NumTotal || Seen[static_cast<size_t>(C)])
        return solveCold(Budget);
      Seen[static_cast<size_t>(C)] = 1;
      Basis[static_cast<size_t>(I)] = C;
      BasisPos[static_cast<size_t>(C)] = I;
    }
    for (int J = 0; J < NumTotal; ++J) {
      if (BasisPos[static_cast<size_t>(J)] >= 0)
        continue;
      bool Up = Warm.AtUpper[static_cast<size_t>(J)] != 0 &&
                std::isfinite(Hi[static_cast<size_t>(J)]) &&
                Lo[static_cast<size_t>(J)] != Hi[static_cast<size_t>(J)];
      AtUpper[static_cast<size_t>(J)] = static_cast<uint8_t>(Up);
      double V = Up ? Hi[static_cast<size_t>(J)] : Lo[static_cast<size_t>(J)];
      if (!std::isfinite(V))
        V = 0.0; // free nonbasic (does not occur in our models)
      XVal[static_cast<size_t>(J)] = V;
    }

    if (!refactor())
      return solveCold(Budget);

    // Primal-feasible already? Straight to the primal loop. Otherwise
    // repair with dual pivots first.
    bool PrimalFeasible = true;
    for (int I = 0; I < NumRows && PrimalFeasible; ++I) {
      int BV = Basis[static_cast<size_t>(I)];
      PrimalFeasible =
          Beta[static_cast<size_t>(I)] >= Lo[static_cast<size_t>(BV)] - 1e-7 &&
          Beta[static_cast<size_t>(I)] <= Hi[static_cast<size_t>(BV)] + 1e-7;
    }

    if (!PrimalFeasible) {
      switch (dualRepair()) {
      case DualOutcome::Feasible:
        break;
      case DualOutcome::Infeasible:
        return finish(SolveStatus::Infeasible);
      case DualOutcome::Limit:
        return finish(SolveStatus::Limit);
      case DualOutcome::Abandon: {
        int64_t Spent = Pivots;
        LPResult R = solveCold(Budget > Spent ? Budget - Spent : 0);
        R.Pivots += Spent;
        return R;
      }
      }
    }

    if (!primalIterate())
      return finish(SolveStatus::Limit);
    return finish(SolveStatus::Optimal);
  }
};

//===--- public surface -----------------------------------------------------//

SparseSimplex::SparseSimplex(const LPProblem &P)
    : I(std::make_unique<Impl>(P)) {}
SparseSimplex::~SparseSimplex() = default;
SparseSimplex::SparseSimplex(SparseSimplex &&) noexcept = default;
SparseSimplex &SparseSimplex::operator=(SparseSimplex &&) noexcept = default;

void SparseSimplex::setVarBounds(int Var, double Lo, double Hi) {
  assert(Var >= 0 && Var < I->NumStructural && "bounds on unknown variable");
  I->VarLo[static_cast<size_t>(Var)] = Lo;
  I->VarHi[static_cast<size_t>(Var)] = Hi;
}

// Every engine solve is one `lp.solves` with its pivots and wall time;
// warm-started re-solves additionally count `lp.warm_solves`.

LPResult SparseSimplex::solve(int64_t MaxPivots) {
  auto Start = std::chrono::steady_clock::now();
  LPResult R = I->solveCold(MaxPivots);
  if (Telemetry *T = currentTelemetry()) {
    T->addCounter("lp.solves");
    T->addCounter("lp.pivots", R.Pivots);
    T->addGauge("lp.lp_seconds",
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              Start)
                    .count());
  }
  return R;
}

LPResult SparseSimplex::solveWarm(const SimplexBasis &Warm,
                                  int64_t MaxPivots) {
  auto Start = std::chrono::steady_clock::now();
  LPResult R = I->solveWarm(Warm, MaxPivots);
  if (Telemetry *T = currentTelemetry()) {
    T->addCounter("lp.solves");
    T->addCounter("lp.warm_solves");
    T->addCounter("lp.pivots", R.Pivots);
    T->addGauge("lp.lp_seconds",
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              Start)
                    .count());
  }
  return R;
}

LPResult ucc::solveLP(const LPProblem &P, int64_t MaxPivots) {
  SparseSimplex S(P);
  return S.solve(MaxPivots);
}

bool ucc::isFeasible(const LPProblem &P, const std::vector<double> &X,
                     double Tol) {
  if (static_cast<int>(X.size()) != P.NumVars)
    return false;
  for (int J = 0; J < P.NumVars; ++J)
    if (X[static_cast<size_t>(J)] < P.Lower[static_cast<size_t>(J)] - Tol ||
        X[static_cast<size_t>(J)] > P.Upper[static_cast<size_t>(J)] + Tol)
      return false;
  for (const LPConstraint &C : P.Constraints) {
    double V = 0.0;
    for (const auto &[Var, Coef] : C.Terms)
      V += Coef * X[static_cast<size_t>(Var)];
    switch (C.S) {
    case LPConstraint::Sense::LE:
      if (V > C.RHS + Tol)
        return false;
      break;
    case LPConstraint::Sense::GE:
      if (V < C.RHS - Tol)
        return false;
      break;
    case LPConstraint::Sense::EQ:
      if (std::fabs(V - C.RHS) > Tol)
        return false;
      break;
    }
  }
  return true;
}

double ucc::objectiveValue(const LPProblem &P, const std::vector<double> &X) {
  double V = 0.0;
  for (int J = 0; J < P.NumVars; ++J)
    V += P.Obj[static_cast<size_t>(J)] * X[static_cast<size_t>(J)];
  return V;
}
