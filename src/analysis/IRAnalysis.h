//===- analysis/IRAnalysis.h - IR-level analyses ---------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IR-level analysis helpers: liveness, loop depth estimation and the
/// static execution-frequency estimate `freq(s)` the paper's objective
/// function consumes.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_ANALYSIS_IRANALYSIS_H
#define UCC_ANALYSIS_IRANALYSIS_H

#include "analysis/Dataflow.h"
#include "ir/IR.h"

#include <vector>

namespace ucc {

/// Liveness of \p F's virtual registers. Gen/kill sets are read straight
/// off the instructions, with no per-instruction def/use lists.
Liveness computeIRLiveness(const Function &F);

/// Estimates the loop-nesting depth of every block.
///
/// The frontend emits blocks in structured order, so a branch to an
/// earlier block is a loop back edge; the natural loop spans the layout
/// range [target, source]. This matches the structured CFGs MiniC
/// produces; irreducible graphs would only over-approximate.
std::vector<int> loopDepths(const Function &F);

/// Static execution-frequency estimate per block: 10^depth, capped at
/// \p Cap. This is the paper's `freq(s)` when no dynamic profile exists.
std::vector<double> blockFrequencies(const Function &F, double Cap = 1e6);

/// `freq(s)` per IR statement, indexed by the statement's block-major
/// position (the IRIndex carried by machine instructions).
std::vector<double> statementFrequencies(const Function &F, double Cap = 1e6);

} // namespace ucc

#endif // UCC_ANALYSIS_IRANALYSIS_H
