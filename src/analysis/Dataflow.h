//===- analysis/Dataflow.h - generic backward liveness ---------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generic backward liveness. The fixpoint (solveLiveness) lives in exactly
/// one place and runs over per-block gen/kill sets. The machine layer
/// (virtual + physical registers) reaches it through an abstract CFG of
/// def/use lists (computeLiveness); the IR builds its gen/kill sets
/// directly (computeIRLiveness in analysis/IRAnalysis.h).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_ANALYSIS_DATAFLOW_H
#define UCC_ANALYSIS_DATAFLOW_H

#include "support/BitVector.h"

#include <vector>

namespace ucc {

/// Registers defined and used by one abstract instruction.
struct DefUse {
  std::vector<int> Defs;
  std::vector<int> Uses;
};

/// One abstract CFG block: instruction def/use lists plus successor block
/// indices.
struct FlowBlock {
  std::vector<DefUse> Instrs;
  std::vector<int> Succs;
};

/// An abstract CFG over \c NumValues distinct registers/values.
struct FlowGraph {
  std::vector<FlowBlock> Blocks;
  int NumValues = 0;
};

/// Result of the liveness fixpoint: per-block live-in/live-out sets.
struct Liveness {
  std::vector<BitVector> LiveIn;
  std::vector<BitVector> LiveOut;

  /// Per-instruction live-after sets for block \p B: element K holds the
  /// values live immediately *after* instruction K of the block.
  std::vector<BitVector> liveAfterPerInstr(const FlowGraph &G, int B) const;
};

/// The whole input of the liveness fixpoint, per block: upward-exposed
/// uses (gen), definitions (kill) and successor block indices. Clients that
/// can read gen/kill straight off their own instructions build this
/// directly instead of materialising a FlowGraph.
struct LivenessProblem {
  std::vector<BitVector> Gen;
  std::vector<BitVector> Kill;
  std::vector<std::vector<int>> Succs;
};

/// Runs backward liveness to a fixpoint over \p P.
Liveness solveLiveness(const LivenessProblem &P);

/// Runs backward liveness to a fixpoint over \p G.
Liveness computeLiveness(const FlowGraph &G);

} // namespace ucc

#endif // UCC_ANALYSIS_DATAFLOW_H
