//===- tests/oracles/Oracles.h - reference solvers for the LP tests -------===//
//
// Part of the UCC reproduction test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed solvers, kept unchanged as oracles for the production engine
/// in lp/ (the sparse revised simplex and best-first branch-and-bound):
///  - `solveLPDense`: the original dense-tableau two-phase simplex;
///  - `solveILPDfs`: the original depth-first branch-and-bound on it;
///  - `solveBinaryByEnumeration`: exhaustive search over the binaries.
/// They build into the `ucc_oracles` library, which only the test binary
/// links, and report no telemetry: the `lp.*` counters describe the
/// production engine only.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_TESTS_ORACLES_ORACLES_H
#define UCC_TESTS_ORACLES_ORACLES_H

#include "lp/LP.h"

namespace ucc {

/// The seed dense-tableau simplex (tests/oracles/DenseSimplex.cpp).
LPResult solveLPDense(const LPProblem &P, int64_t MaxPivots = 2'000'000);

/// The seed depth-first branch-and-bound on solveLPDense: most-fractional
/// branching, nearer side first.
ILPResult solveILPDfs(const LPProblem &P, const std::vector<int> &IntVars,
                      const ILPOptions &Opts = {});

/// Exhaustively enumerates all assignments of the (binary) \p IntVars and
/// returns the best feasible one; with continuous variables present, each
/// assignment's remainder is placed by solveLPDense. Exponential: at most
/// 24 binaries.
ILPResult solveBinaryByEnumeration(const LPProblem &P,
                                   const std::vector<int> &IntVars);

} // namespace ucc

#endif // UCC_TESTS_ORACLES_ORACLES_H
