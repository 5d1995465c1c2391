//===- regalloc/UccIlpModel.h - the paper's 0/1 program for UCC-RA --------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ILP formulation of update-conscious register allocation (paper
/// sections 3.3-3.4) over a straight-line window of statements. The
/// variable families map onto the paper's as follows:
///
///   paper                      here
///   -----------------------    ------------------------------------------
///   X_def / X_cont             Loc[v][p][r]   (v occupies r at point p)
///   X_use / X_useCont /
///   X_lastUse                  UseReg[v][s][r] (operand register at s)
///   X_mov.in / X_mov.out       MovIn[v][s][r] (decoupled mov, sec. 3.3)
///   X_ld / X_st / X_mem.cont   Ld[v][s][r] / St[v][s] / Mem[v][p]
///
/// Constraints realize the paper's (1)-(8) families plus the consecutive-
/// register pair constraint (9); the objective is the linearized (10)-(15)
/// with the theta = 3/4 approximation of the nonlinear unchanged-instruction
/// term. solveWindowExact() evaluates the *nonlinear* objective by
/// enumeration for the section 5.6 MINLP-vs-ILP comparison.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_REGALLOC_UCCILPMODEL_H
#define UCC_REGALLOC_UCCILPMODEL_H

#include "lp/LP.h"

#include <cstdint>
#include <vector>

namespace ucc {

/// One straight-line statement of an allocation window.
struct WindowInstr {
  bool Changed = true; ///< chg(s); unchanged statements carry preferences
  double Freq = 1.0;   ///< freq(s)
  std::vector<int> Uses;    ///< variable ids read (0-based window ids)
  std::vector<int> UsePref; ///< preferred register per use (-1 = none)
  int Def = -1;             ///< variable id written (-1 = none)
  int DefPref = -1;         ///< preferred register for the def
  uint16_t BusyMask = 0;    ///< registers unavailable around this statement
};

/// A straight-line allocation window (a changed chunk plus the unchanged
/// statements whose preferences it must weigh).
struct WindowSpec {
  int NumVars = 0;
  int NumRegs = 8;
  std::vector<WindowInstr> Instrs;
  /// Per variable: register required at window entry (-1 = not live in).
  std::vector<int> EntryReg;
  /// Per variable: register required at window exit (-1 = none). A
  /// variable with an exit requirement is implicitly live out.
  std::vector<int> ExitReg;
  /// Per variable: live at exit even without a register requirement.
  std::vector<bool> LiveOut;
  /// 16/32-bit pairs (paper eq. 9): Reg(High) must equal Reg(Low) + 1.
  std::vector<std::pair<int, int>> Pairs; ///< (Low, High) variable ids

  double Etrans = 32000.0; ///< energy to transmit one instruction
  double Eexe = 1.0;       ///< energy to execute one cycle
  double Cnt = 1000.0;     ///< executions before retirement
  double Theta = 0.75;     ///< the 3/4 linearization coefficient (eq. 15)
};

/// Decoded solution of a window.
struct WindowSolution {
  SolveStatus Status = SolveStatus::Infeasible;
  double Objective = 0.0;
  int64_t Pivots = 0;
  int Nodes = 0;
  int NumBinaries = 0;
  int NumConstraints = 0;

  /// RegAfter[p+1][v]: register of v at point p (p = -1 is entry), or -1
  /// when v is dead / in memory there.
  std::vector<std::vector<int>> RegAfter;
  /// UseRegs[s] parallel to Instrs[s].Uses.
  std::vector<std::vector<int>> UseRegs;
  /// DefReg[s]: register the def of s lands in (-1 = no def).
  std::vector<int> DefReg;
  int InsertedMovs = 0;
  int SpillLoads = 0;
  int SpillStores = 0;
  /// Unchanged-statement operands whose preference was honored / broken.
  int PrefHonored = 0;
  int PrefBroken = 0;

  /// A register-to-register copy inserted immediately before a statement.
  struct MovOp {
    int Stmt;
    int Var;
    int FromReg;
    int ToReg;
  };
  std::vector<MovOp> Movs;

  /// A spill operation: a load (before Stmt) or store (after Stmt - 1).
  struct SpillOp {
    int Stmt; ///< loads: statement index; stores: the point index
    int Var;
    int Reg; ///< loads: destination; stores: source
    bool IsLoad;
  };
  std::vector<SpillOp> Spills;
};

/// Model-size statistics without solving (Fig. 13).
struct WindowModelStats {
  int NumBinaries = 0;
  int NumConstraints = 0;
};

/// Builds the 0/1 program for \p Spec and reports its size.
WindowModelStats windowModelStats(const WindowSpec &Spec);

/// Solves \p Spec with branch-and-bound over the linearized objective.
/// When \p UsePrefHint is true, a solution built from the preferred-
/// register tags seeds the incumbent (section 5.6's observation that tags
/// speed up the solver).
WindowSolution solveWindow(const WindowSpec &Spec,
                           const ILPOptions &Opts = {},
                           bool UsePrefHint = true);

/// Solves \p Spec by exhaustively enumerating register assignments and
/// scoring them under the *nonlinear* objective (eq. 12 before the theta
/// approximation). Exponential; only for tiny windows (the A1/A3
/// ablation). Windows must need no spills or movs.
WindowSolution solveWindowExact(const WindowSpec &Spec);

/// FNV-1a hash of a window model's canonical key bytes: every field of
/// \p Spec (structure, coefficients, preferred tags) plus the solver
/// options that can change the answer. Equal windows hash equal by
/// construction; the cache below confirms a hash match by comparing the
/// full key bytes.
uint64_t windowSpecKey(const WindowSpec &Spec, const ILPOptions &Opts,
                       bool UsePrefHint);

/// `solveWindow` behind a process-global, unbounded support/MemoCache
/// (WindowCache.cpp).
/// Iterative-update experiments (Fig. 14) re-solve identical windows many
/// times; the cache guarantees each unique window is solved exactly once
/// per process — a concurrent requester for an in-flight window blocks on
/// it rather than re-solving — and that a cached hit returns the original
/// solution (including its Pivots/Nodes metrics, so deterministic bench
/// counters are unaffected by cache order or `--jobs`). Reports
/// `ra.window_cache_hits` / `ra.window_cache_misses`.
WindowSolution solveWindowCached(const WindowSpec &Spec,
                                 const ILPOptions &Opts = {},
                                 bool UsePrefHint = true);

/// Empties the window memo cache (tests and benches that measure
/// cold-solve behavior). Windows being solved right now stay.
void clearWindowCache();

/// Number of distinct windows currently memoized.
size_t windowCacheSize();

} // namespace ucc

#endif // UCC_REGALLOC_UCCILPMODEL_H
