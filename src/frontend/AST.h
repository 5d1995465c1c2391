//===- frontend/AST.h - MiniC abstract syntax trees ------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for MiniC. Nodes are tagged structs rather than a class hierarchy:
/// the tree is produced once by the parser and consumed once by IRGen, so a
/// closed, value-oriented representation keeps both sides simple. Every
/// Expr and Stmt lives in its ProgramAST's arena: building a tree is a
/// pointer bump per node and freeing it is one release per slab, and the
/// nodes of one tree sit together in memory.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_FRONTEND_AST_H
#define UCC_FRONTEND_AST_H

#include "ir/IR.h" // BinKind / UnKind / CmpPred reused as AST operators
#include "support/Arena.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace ucc {

struct Expr;
struct Stmt;

/// Ends a node's lifetime without freeing its storage, which belongs to
/// the ProgramAST's arena.
struct NodeDestroyer {
  template <typename T> void operator()(T *Node) const { Node->~T(); }
};
using ExprPtr = std::unique_ptr<Expr, NodeDestroyer>;
using StmtPtr = std::unique_ptr<Stmt, NodeDestroyer>;

/// Expression operators beyond BinKind: comparisons and short-circuit logic
/// need their own lowering, so the AST keeps them distinct.
enum class BinaryOpKind {
  Arith,   ///< maps to BinKind
  Compare, ///< maps to CmpPred; value is 0/1
  LogicalAnd,
  LogicalOr
};

/// A MiniC expression.
struct Expr {
  enum class Kind {
    IntLit,  ///< Value
    VarRef,  ///< Name
    Index,   ///< Name[Sub] — array element read
    CallE,   ///< Name(Args) as an expression (must return int)
    Unary,   ///< UnOp applied to LHS; UnKind::Not is bitwise '~',
             ///< logical '!' is represented as Compare EQ 0 by the parser
    Binary,  ///< LHS BinaryOp RHS
    InPort   ///< __in(Port)
  };

  Kind K = Kind::IntLit;
  SourceLoc Loc;

  int64_t Value = 0;     // IntLit
  std::string Name;      // VarRef / Index / CallE
  ExprPtr LHS, RHS;      // Unary (LHS), Binary, Index (LHS = subscript)
  std::vector<ExprPtr> Args; // CallE
  BinaryOpKind BOp = BinaryOpKind::Arith;
  BinKind ArithK = BinKind::Add;
  CmpPred CmpK = CmpPred::EQ;
  UnKind UnK = UnKind::Neg;
  int64_t Port = 0; // InPort
};

/// A MiniC statement.
struct Stmt {
  enum class Kind {
    Decl,     ///< int Name[ArraySize]? (= Init)?
    Assign,   ///< Name(= TargetIndex?) = Value
    If,       ///< if (Cond) Then else Else?
    While,    ///< while (Cond) Body0
    For,      ///< for (InitStmt; Cond; StepStmt) Body0
    Return,   ///< return Value?
    Break,
    Continue,
    ExprStmt, ///< expression evaluated for side effects (calls)
    Block,    ///< { Body... }
    OutPort,  ///< __out(Port, Value)
    Halt      ///< __halt()
  };

  Kind K = Kind::Block;
  SourceLoc Loc;

  std::string Name;       // Decl / Assign target
  int ArraySize = 0;      // Decl: >0 for arrays
  ExprPtr TargetIndex;    // Assign to Name[TargetIndex]
  ExprPtr Value;          // Decl init / Assign value / Return / Out value
  ExprPtr Cond;           // If / While / For
  StmtPtr Then, Else;     // If
  StmtPtr Body0;          // While / For body
  StmtPtr InitStmt, StepStmt; // For
  std::vector<StmtPtr> Body;  // Block
  int64_t Port = 0;           // OutPort
};

/// A global variable declaration.
struct GlobalDecl {
  SourceLoc Loc;
  std::string Name;
  int ArraySize = 0; ///< 0 for scalars, element count for arrays
  std::vector<int64_t> Init;
  bool HasInit = false;
};

/// A function definition.
struct FuncDecl {
  SourceLoc Loc;
  std::string Name;
  bool ReturnsInt = false;
  std::vector<std::string> Params;
  StmtPtr Body;
};

/// A parsed translation unit.
struct ProgramAST {
  /// Storage of every Expr and Stmt below. Declared first, so it is
  /// released after the nodes are destroyed.
  std::unique_ptr<Arena> Nodes = std::make_unique<Arena>();
  std::vector<GlobalDecl> Globals;
  std::vector<FuncDecl> Functions;
};

} // namespace ucc

#endif // UCC_FRONTEND_AST_H
