//===- frontend/IRGen.h - AST -> IR lowering -------------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a MiniC AST to the mid-level IR. Name resolution and semantic
/// checks (arity, void-vs-int use, break placement, ...) happen here; every
/// problem is reported through the DiagnosticEngine.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_FRONTEND_IRGEN_H
#define UCC_FRONTEND_IRGEN_H

#include "frontend/AST.h"
#include "ir/IR.h"
#include "support/Diagnostics.h"

#include <memory>

namespace ucc {

/// Lowers \p Program into an IR module. Returns the module; callers must
/// check \p Diag before using it. The entry function is the function named
/// "main" when present.
Module lowerToIR(const ProgramAST &Program, DiagnosticEngine &Diag);

class IRGenImpl;

/// Lowers a program one function at a time, so a caller can put IR it
/// already holds in place of some functions. lowerToIR() is declare(),
/// then lowerFunction() for every function, then finish(). A function's
/// lowering depends on its own AST and on the declarations it references:
/// each global's array size, and each callee's parameter count and return
/// kind. Its Global and Callee fields hold those declarations' module
/// indices. Block names are numbered per function.
class IRGen {
public:
  /// \p Program must outlive the IRGen.
  IRGen(const ProgramAST &Program, DiagnosticEngine &Diag);
  ~IRGen();

  /// Declares every global and function signature; false on an error
  /// (then only finish() may follow).
  bool declare();
  /// Lowers function \p I, whose body must be parsed.
  void lowerFunction(size_t I);
  /// Takes \p F as function \p I instead of lowering it.
  void adoptFunction(size_t I, Function F);
  /// The module, with its entry function set when declare() succeeded.
  Module finish();

private:
  std::unique_ptr<IRGenImpl> Impl;
};

/// Convenience: parse + lower in one step.
Module compileToIR(const std::string &Source, DiagnosticEngine &Diag);

} // namespace ucc

#endif // UCC_FRONTEND_IRGEN_H
