//===- frontend/IRGen.cpp -----------------------------------------------------==//

#include "frontend/IRGen.h"

#include "frontend/Parser.h"
#include "support/Format.h"

#include <optional>
#include <string_view>

using namespace ucc;

namespace {

/// What a name refers to inside a function body.
struct Binding {
  enum class Kind { LocalScalar, LocalArray, Global, GlobalArray } K;
  int Index = 0; ///< vreg (LocalScalar) / frame slot / global index
};

} // namespace

namespace ucc {

class IRGenImpl {
public:
  IRGenImpl(const ProgramAST &Program, DiagnosticEngine &Diag)
      : Program(Program), Diag(Diag) {}

  bool declare() {
    declareGlobals();
    declareFunctions();
    Declared = !Diag.hasErrors();
    return Declared;
  }

  void lower(size_t I) {
    lowerFunction(Program.Functions[I], static_cast<int>(I));
  }

  void adopt(size_t I, Function F) { M.Functions[I] = std::move(F); }

  Module finish() {
    if (Declared)
      M.EntryFunc = M.findFunction("main");
    return std::move(M);
  }

private:
  //===--- module-level declarations --------------------------------------===//

  void declareGlobals() {
    for (const GlobalDecl &G : Program.Globals) {
      if (M.findGlobal(G.Name) >= 0) {
        Diag.error(G.Loc, format("redefinition of global '%s'",
                                 G.Name.c_str()));
        continue;
      }
      GlobalBindings.push_back(
          Binding{G.ArraySize > 0 ? Binding::Kind::GlobalArray
                                  : Binding::Kind::Global,
                  static_cast<int>(M.Globals.size())});
      GlobalVar GV;
      GV.Name = G.Name;
      GV.SizeWords = G.ArraySize > 0 ? G.ArraySize : 1;
      if (G.HasInit) {
        if (static_cast<int>(G.Init.size()) > GV.SizeWords)
          Diag.error(G.Loc, format("too many initializers for '%s'",
                                   G.Name.c_str()));
        for (int64_t V : G.Init)
          GV.Init.push_back(static_cast<int16_t>(V));
      }
      M.Globals.push_back(std::move(GV));
    }
  }

  void declareFunctions() {
    for (const FuncDecl &F : Program.Functions) {
      if (M.findFunction(F.Name) >= 0) {
        Diag.error(F.Loc,
                   format("redefinition of function '%s'", F.Name.c_str()));
        continue;
      }
      Function Fn;
      Fn.Name = F.Name;
      for (const std::string &P : F.Params)
        Fn.Params.push_back(Fn.makeVReg(P));
      M.Functions.push_back(std::move(Fn));
      ReturnsInt.push_back(F.ReturnsInt);
    }
  }

  //===--- function lowering ----------------------------------------------===//

  void lowerFunction(const FuncDecl &Decl, int FnIndex) {
    Function &Fn = M.Functions[static_cast<size_t>(FnIndex)];
    CurFn = &Fn;
    CurFnIndex = FnIndex;
    BlockCounter = 0;
    Locals.clear();
    ScopeStarts.assign(1, 0);
    BreakTargets.clear();
    ContinueTargets.clear();

    for (size_t I = 0; I < Decl.Params.size(); ++I) {
      if (!declare(Decl.Params[I],
                   Binding{Binding::Kind::LocalScalar,
                           Fn.Params[I]}))
        Diag.error(Decl.Loc, format("duplicate parameter '%s'",
                                    Decl.Params[I].c_str()));
    }

    CurBB = Fn.makeBlock("entry");
    lowerStmt(*Decl.Body);

    // Fall-off-the-end: synthesize a return (0 for int functions).
    if (!Fn.Blocks[CurBB].hasTerminator()) {
      Instr Ret;
      Ret.Op = Opcode::Ret;
      if (Decl.ReturnsInt) {
        VReg Zero = emitConst(0, Decl.Loc);
        Ret.Srcs.push_back(Zero);
      }
      append(std::move(Ret));
    }
    CurFn = nullptr;
  }

  //===--- scope handling -------------------------------------------------===//

  /// Binds \p Name in the innermost scope; false if that scope already
  /// binds it.
  bool declare(const std::string &Name, Binding B) {
    for (size_t I = ScopeStarts.back(); I < Locals.size(); ++I)
      if (Locals[I].first == Name)
        return false;
    Locals.emplace_back(Name, B);
    return true;
  }

  void openScope() { ScopeStarts.push_back(Locals.size()); }
  void closeScope() {
    Locals.resize(ScopeStarts.back());
    ScopeStarts.pop_back();
  }

  /// Resolves \p Name to a binding, innermost local first, then globals.
  /// Returns nullopt (and diagnoses) when the name is unknown.
  std::optional<Binding> resolve(const std::string &Name, SourceLoc Loc) {
    for (size_t I = Locals.size(); I-- > 0;)
      if (Locals[I].first == Name)
        return Locals[I].second;
    int G = M.findGlobal(Name);
    if (G >= 0)
      return GlobalBindings[static_cast<size_t>(G)];
    Diag.error(Loc, format("use of undeclared identifier '%s'", Name.c_str()));
    return std::nullopt;
  }

  //===--- emission helpers -----------------------------------------------===//

  void append(Instr I) { CurFn->Blocks[CurBB].Instrs.push_back(std::move(I)); }

  VReg emitConst(int64_t Value, SourceLoc Loc) {
    VReg Dst = CurFn->makeVReg();
    Instr I;
    I.Op = Opcode::Const;
    I.Dst = Dst;
    I.Imm = Value;
    I.Loc = Loc;
    append(std::move(I));
    return Dst;
  }

  void emitBr(int Target, SourceLoc Loc) {
    if (CurFn->Blocks[CurBB].hasTerminator())
      return; // unreachable code after return/break
    Instr I;
    I.Op = Opcode::Br;
    I.TrueBB = Target;
    I.Loc = Loc;
    append(std::move(I));
  }

  void emitCondBr(CmpPred Pred, VReg A, VReg B, int TrueBB, int FalseBB,
                  SourceLoc Loc) {
    if (CurFn->Blocks[CurBB].hasTerminator())
      return;
    Instr I;
    I.Op = Opcode::CondBr;
    I.PredK = Pred;
    I.Srcs = {A, B};
    I.TrueBB = TrueBB;
    I.FalseBB = FalseBB;
    I.Loc = Loc;
    append(std::move(I));
  }

  /// A new block named \p Prefix plus the function's block counter.
  int newBlock(const char *Prefix) {
    std::string Name = Prefix;
    Name += std::to_string(BlockCounter++);
    return CurFn->makeBlock(Name);
  }

  //===--- statement lowering ---------------------------------------------===//

  void lowerStmt(const Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Block: {
      openScope();
      for (const StmtPtr &Child : S.Body)
        lowerStmt(*Child);
      closeScope();
      return;
    }
    case Stmt::Kind::Decl:
      lowerDecl(S);
      return;
    case Stmt::Kind::Assign:
      lowerAssign(S);
      return;
    case Stmt::Kind::If:
      lowerIf(S);
      return;
    case Stmt::Kind::While:
      lowerWhile(S);
      return;
    case Stmt::Kind::For:
      lowerFor(S);
      return;
    case Stmt::Kind::Return:
      lowerReturn(S);
      return;
    case Stmt::Kind::Break:
      if (BreakTargets.empty())
        Diag.error(S.Loc, "'break' outside a loop");
      else
        emitBr(BreakTargets.back(), S.Loc);
      return;
    case Stmt::Kind::Continue:
      if (ContinueTargets.empty())
        Diag.error(S.Loc, "'continue' outside a loop");
      else
        emitBr(ContinueTargets.back(), S.Loc);
      return;
    case Stmt::Kind::ExprStmt:
      lowerExprStmt(S);
      return;
    case Stmt::Kind::OutPort: {
      VReg V = lowerExpr(*S.Value);
      Instr I;
      I.Op = Opcode::Out;
      I.Imm = S.Port;
      I.Srcs = {V};
      I.Loc = S.Loc;
      append(std::move(I));
      return;
    }
    case Stmt::Kind::Halt: {
      Instr I;
      I.Op = Opcode::Halt;
      I.Loc = S.Loc;
      append(std::move(I));
      return;
    }
    }
  }

  void lowerDecl(const Stmt &S) {
    if (S.ArraySize > 0) {
      int Slot = CurFn->makeFrameObject(S.Name, S.ArraySize);
      if (!declare(S.Name, Binding{Binding::Kind::LocalArray, Slot}))
        Diag.error(S.Loc, format("redefinition of '%s'", S.Name.c_str()));
      return;
    }
    VReg R = CurFn->makeVReg(S.Name);
    if (!declare(S.Name, Binding{Binding::Kind::LocalScalar, R}))
      Diag.error(S.Loc, format("redefinition of '%s'", S.Name.c_str()));
    // Deterministic semantics: scalars without initializers start at 0.
    VReg Init = S.Value ? lowerExpr(*S.Value) : emitConst(0, S.Loc);
    Instr I;
    I.Op = Opcode::Mov;
    I.Dst = R;
    I.Srcs = {Init};
    I.Loc = S.Loc;
    append(std::move(I));
  }

  void lowerAssign(const Stmt &S) {
    std::optional<Binding> B = resolve(S.Name, S.Loc);
    if (!B)
      return;
    VReg Value = lowerExpr(*S.Value);

    switch (B->K) {
    case Binding::Kind::LocalScalar: {
      Instr I;
      I.Op = Opcode::Mov;
      I.Dst = B->Index;
      I.Srcs = {Value};
      I.Loc = S.Loc;
      append(std::move(I));
      return;
    }
    case Binding::Kind::LocalArray: {
      if (!S.TargetIndex) {
        Diag.error(S.Loc, format("cannot assign to array '%s' without index",
                                 S.Name.c_str()));
        return;
      }
      VReg Idx = lowerExpr(*S.TargetIndex);
      Instr I;
      I.Op = Opcode::StoreF;
      I.Slot = B->Index;
      I.Srcs = {Value, Idx};
      I.Loc = S.Loc;
      append(std::move(I));
      return;
    }
    case Binding::Kind::Global:
    case Binding::Kind::GlobalArray: {
      bool IsArray = B->K == Binding::Kind::GlobalArray;
      if (IsArray && !S.TargetIndex) {
        Diag.error(S.Loc, format("cannot assign to array '%s' without index",
                                 S.Name.c_str()));
        return;
      }
      if (!IsArray && S.TargetIndex) {
        Diag.error(S.Loc,
                   format("'%s' is not an array", S.Name.c_str()));
        return;
      }
      Instr I;
      I.Op = Opcode::StoreG;
      I.Global = B->Index;
      I.Srcs = {Value};
      if (S.TargetIndex)
        I.Srcs.push_back(lowerExpr(*S.TargetIndex));
      I.Loc = S.Loc;
      append(std::move(I));
      return;
    }
    }
  }

  void lowerIf(const Stmt &S) {
    int ThenBB = newBlock("if.then");
    int ElseBB = S.Else ? newBlock("if.else") : -1;
    int EndBB = newBlock("if.end");
    lowerCond(*S.Cond, ThenBB, S.Else ? ElseBB : EndBB);

    CurBB = ThenBB;
    lowerStmt(*S.Then);
    emitBr(EndBB, S.Loc);

    if (S.Else) {
      CurBB = ElseBB;
      lowerStmt(*S.Else);
      emitBr(EndBB, S.Loc);
    }
    CurBB = EndBB;
  }

  void lowerWhile(const Stmt &S) {
    int CondBB = newBlock("while.cond");
    int BodyBB = newBlock("while.body");
    int EndBB = newBlock("while.end");
    emitBr(CondBB, S.Loc);

    CurBB = CondBB;
    lowerCond(*S.Cond, BodyBB, EndBB);

    BreakTargets.push_back(EndBB);
    ContinueTargets.push_back(CondBB);
    CurBB = BodyBB;
    lowerStmt(*S.Body0);
    emitBr(CondBB, S.Loc);
    BreakTargets.pop_back();
    ContinueTargets.pop_back();

    CurBB = EndBB;
  }

  void lowerFor(const Stmt &S) {
    if (S.InitStmt)
      lowerStmt(*S.InitStmt);
    int CondBB = newBlock("for.cond");
    int BodyBB = newBlock("for.body");
    int StepBB = newBlock("for.step");
    int EndBB = newBlock("for.end");
    emitBr(CondBB, S.Loc);

    CurBB = CondBB;
    if (S.Cond)
      lowerCond(*S.Cond, BodyBB, EndBB);
    else
      emitBr(BodyBB, S.Loc);

    BreakTargets.push_back(EndBB);
    ContinueTargets.push_back(StepBB);
    CurBB = BodyBB;
    lowerStmt(*S.Body0);
    emitBr(StepBB, S.Loc);
    BreakTargets.pop_back();
    ContinueTargets.pop_back();

    CurBB = StepBB;
    if (S.StepStmt)
      lowerStmt(*S.StepStmt);
    emitBr(CondBB, S.Loc);

    CurBB = EndBB;
  }

  void lowerReturn(const Stmt &S) {
    bool WantsValue = ReturnsInt[static_cast<size_t>(CurFnIndex)];
    Instr I;
    I.Op = Opcode::Ret;
    I.Loc = S.Loc;
    if (S.Value) {
      if (!WantsValue)
        Diag.error(S.Loc, "void function cannot return a value");
      I.Srcs = {lowerExpr(*S.Value)};
    } else if (WantsValue) {
      Diag.error(S.Loc, "non-void function must return a value");
      I.Srcs = {emitConst(0, S.Loc)};
    }
    append(std::move(I));
  }

  void lowerExprStmt(const Stmt &S) {
    const Expr &E = *S.Value;
    if (E.K == Expr::Kind::CallE) {
      lowerCall(E, /*WantValue=*/false);
      return;
    }
    // Evaluate for side effects (there are none besides calls, but the
    // program is still valid C-like code).
    lowerExpr(E);
  }

  //===--- expression lowering --------------------------------------------===//

  VReg lowerExpr(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::IntLit:
      return emitConst(E.Value, E.Loc);
    case Expr::Kind::VarRef:
      return lowerVarRef(E);
    case Expr::Kind::Index:
      return lowerIndex(E);
    case Expr::Kind::CallE:
      return lowerCall(E, /*WantValue=*/true);
    case Expr::Kind::Unary: {
      VReg A = lowerExpr(*E.LHS);
      VReg Dst = CurFn->makeVReg();
      Instr I;
      I.Op = Opcode::Un;
      I.UnK = E.UnK;
      I.Dst = Dst;
      I.Srcs = {A};
      I.Loc = E.Loc;
      append(std::move(I));
      return Dst;
    }
    case Expr::Kind::Binary:
      return lowerBinary(E);
    case Expr::Kind::InPort: {
      VReg Dst = CurFn->makeVReg();
      Instr I;
      I.Op = Opcode::In;
      I.Dst = Dst;
      I.Imm = E.Port;
      I.Loc = E.Loc;
      append(std::move(I));
      return Dst;
    }
    }
    return emitConst(0, E.Loc);
  }

  VReg lowerVarRef(const Expr &E) {
    std::optional<Binding> B = resolve(E.Name, E.Loc);
    if (!B)
      return emitConst(0, E.Loc);
    switch (B->K) {
    case Binding::Kind::LocalScalar:
      return B->Index;
    case Binding::Kind::Global: {
      VReg Dst = CurFn->makeVReg();
      Instr I;
      I.Op = Opcode::LoadG;
      I.Global = B->Index;
      I.Dst = Dst;
      I.Loc = E.Loc;
      append(std::move(I));
      return Dst;
    }
    case Binding::Kind::LocalArray:
    case Binding::Kind::GlobalArray:
      Diag.error(E.Loc,
                 format("array '%s' used without index", E.Name.c_str()));
      return emitConst(0, E.Loc);
    }
    return emitConst(0, E.Loc);
  }

  VReg lowerIndex(const Expr &E) {
    std::optional<Binding> B = resolve(E.Name, E.Loc);
    if (!B)
      return emitConst(0, E.Loc);
    VReg Idx = lowerExpr(*E.LHS);
    VReg Dst = CurFn->makeVReg();
    Instr I;
    I.Dst = Dst;
    I.Srcs = {Idx};
    I.Loc = E.Loc;
    switch (B->K) {
    case Binding::Kind::LocalArray:
      I.Op = Opcode::LoadF;
      I.Slot = B->Index;
      break;
    case Binding::Kind::GlobalArray:
    case Binding::Kind::Global:
      I.Op = Opcode::LoadG;
      I.Global = B->Index;
      break;
    case Binding::Kind::LocalScalar:
      Diag.error(E.Loc, format("'%s' is not an array", E.Name.c_str()));
      return emitConst(0, E.Loc);
    }
    append(std::move(I));
    return Dst;
  }

  VReg lowerCall(const Expr &E, bool WantValue) {
    int Callee = M.findFunction(E.Name);
    if (Callee < 0) {
      Diag.error(E.Loc, format("call to undeclared function '%s'",
                               E.Name.c_str()));
      return WantValue ? emitConst(0, E.Loc) : NoVReg;
    }
    bool CalleeReturnsInt = ReturnsInt[static_cast<size_t>(Callee)];
    if (WantValue && !CalleeReturnsInt)
      Diag.error(E.Loc, format("void function '%s' used as a value",
                               E.Name.c_str()));
    const Function &CalleeFn = M.Functions[static_cast<size_t>(Callee)];
    if (E.Args.size() != CalleeFn.Params.size())
      Diag.error(E.Loc,
                 format("'%s' expects %zu arguments, got %zu",
                        E.Name.c_str(), CalleeFn.Params.size(),
                        E.Args.size()));

    Instr I;
    I.Op = Opcode::Call;
    I.Callee = Callee;
    for (const ExprPtr &Arg : E.Args) {
      VReg V = lowerExpr(*Arg);
      // A fifth argument was diagnosed above (arity, or the callee's own
      // parameter cap) and the module is discarded, so it is dropped.
      if (I.Srcs.size() < OperandList::Capacity)
        I.Srcs.push_back(V);
    }
    if (WantValue || CalleeReturnsInt)
      I.Dst = CurFn->makeVReg();
    I.Loc = E.Loc;
    VReg Dst = I.Dst;
    append(std::move(I));
    return Dst;
  }

  VReg lowerBinary(const Expr &E) {
    switch (E.BOp) {
    case BinaryOpKind::Arith: {
      VReg A = lowerExpr(*E.LHS);
      VReg B = lowerExpr(*E.RHS);
      VReg Dst = CurFn->makeVReg();
      Instr I;
      I.Op = Opcode::Bin;
      I.BinK = E.ArithK;
      I.Dst = Dst;
      I.Srcs = {A, B};
      I.Loc = E.Loc;
      append(std::move(I));
      return Dst;
    }
    case BinaryOpKind::Compare:
    case BinaryOpKind::LogicalAnd:
    case BinaryOpKind::LogicalOr: {
      // Materialize the truth value through control flow.
      VReg Dst = CurFn->makeVReg();
      int TrueBB = newBlock("bool.true");
      int FalseBB = newBlock("bool.false");
      int EndBB = newBlock("bool.end");
      lowerCond(E, TrueBB, FalseBB);

      CurBB = TrueBB;
      Instr One;
      One.Op = Opcode::Const;
      One.Dst = Dst;
      One.Imm = 1;
      One.Loc = E.Loc;
      append(std::move(One));
      emitBr(EndBB, E.Loc);

      CurBB = FalseBB;
      Instr Zero;
      Zero.Op = Opcode::Const;
      Zero.Dst = Dst;
      Zero.Imm = 0;
      Zero.Loc = E.Loc;
      append(std::move(Zero));
      emitBr(EndBB, E.Loc);

      CurBB = EndBB;
      return Dst;
    }
    }
    return emitConst(0, E.Loc);
  }

  /// Lowers \p E as a branch condition: control transfers to \p TrueBB when
  /// E is truthy and to \p FalseBB otherwise. Handles short-circuit logic
  /// and fuses comparisons directly into CondBr.
  void lowerCond(const Expr &E, int TrueBB, int FalseBB) {
    if (E.K == Expr::Kind::Binary) {
      if (E.BOp == BinaryOpKind::Compare) {
        VReg A = lowerExpr(*E.LHS);
        VReg B = lowerExpr(*E.RHS);
        emitCondBr(E.CmpK, A, B, TrueBB, FalseBB, E.Loc);
        return;
      }
      if (E.BOp == BinaryOpKind::LogicalAnd) {
        int MidBB = newBlock("and.rhs");
        lowerCond(*E.LHS, MidBB, FalseBB);
        CurBB = MidBB;
        lowerCond(*E.RHS, TrueBB, FalseBB);
        return;
      }
      if (E.BOp == BinaryOpKind::LogicalOr) {
        int MidBB = newBlock("or.rhs");
        lowerCond(*E.LHS, TrueBB, MidBB);
        CurBB = MidBB;
        lowerCond(*E.RHS, TrueBB, FalseBB);
        return;
      }
    }
    VReg V = lowerExpr(E);
    VReg Zero = emitConst(0, E.Loc);
    emitCondBr(CmpPred::NE, V, Zero, TrueBB, FalseBB, E.Loc);
  }

  const ProgramAST &Program;
  DiagnosticEngine &Diag;
  Module M;
  bool Declared = false;
  std::vector<bool> ReturnsInt; ///< parallel to M.Functions

  /// One binding per M.Globals entry.
  std::vector<Binding> GlobalBindings;

  Function *CurFn = nullptr;
  int CurFnIndex = -1;
  int CurBB = 0;
  int BlockCounter = 0; ///< numbers the current function's blocks
  /// The function's visible locals, innermost last; ScopeStarts.back() is
  /// where the innermost scope's bindings begin.
  std::vector<std::pair<std::string_view, Binding>> Locals;
  std::vector<size_t> ScopeStarts;
  std::vector<int> BreakTargets;
  std::vector<int> ContinueTargets;
};

} // namespace ucc

IRGen::IRGen(const ProgramAST &Program, DiagnosticEngine &Diag)
    : Impl(std::make_unique<IRGenImpl>(Program, Diag)) {}

IRGen::~IRGen() = default;

bool IRGen::declare() { return Impl->declare(); }

void IRGen::lowerFunction(size_t I) { Impl->lower(I); }

void IRGen::adoptFunction(size_t I, Function F) {
  Impl->adopt(I, std::move(F));
}

Module IRGen::finish() { return Impl->finish(); }

Module ucc::lowerToIR(const ProgramAST &Program, DiagnosticEngine &Diag) {
  IRGen Gen(Program, Diag);
  if (Gen.declare())
    for (size_t I = 0; I < Program.Functions.size(); ++I)
      Gen.lowerFunction(I);
  return Gen.finish();
}

Module ucc::compileToIR(const std::string &Source, DiagnosticEngine &Diag) {
  ProgramAST Program = parseProgram(Source, Diag);
  if (Diag.hasErrors())
    return Module();
  return lowerToIR(Program, Diag);
}
