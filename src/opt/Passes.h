//===- opt/Passes.h - IR optimization passes -------------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR optimizer. Per the paper's Fig. 1, update-conscious compilation
/// happens *after* optimization, during code generation; these passes make
/// the "optimized IR" stage honest so that preserving performance
/// improvements while matching old code-generation decisions is actually
/// exercised by the pipeline.
///
/// Every pass returns true when it changed something; optimizeFunction()
/// iterates the pipeline to a fixpoint (bounded).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_OPT_PASSES_H
#define UCC_OPT_PASSES_H

#include "ir/IR.h"

namespace ucc {

/// Folds constant expressions and branches on constant conditions.
/// Block-local value tracking (the IR is not SSA).
bool foldConstants(Function &F);

/// Replaces uses of `x` after `x = mov y` with `y` while neither is
/// redefined (block-local).
bool propagateCopies(Function &F);

/// Block-local common-subexpression elimination over pure instructions
/// (Const / Bin / Un).
bool eliminateCommonSubexprs(Function &F);

/// Removes side-effect-free instructions whose results are never used.
bool eliminateDeadCode(Function &F);

/// Threads branches through trivial forwarding blocks and deletes
/// unreachable blocks (remapping block indices).
bool simplifyCFG(Function &F);

/// Runs the full pipeline over \p F until a (bounded) fixpoint. Reads
/// nothing outside \p F. Returns true if anything changed.
bool optimizeFunction(Function &F);

/// optimizeFunction() over every function. Returns true if anything
/// changed.
bool optimizeModule(Module &M);

} // namespace ucc

#endif // UCC_OPT_PASSES_H
