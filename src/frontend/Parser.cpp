//===- frontend/Parser.cpp ---------------------------------------------------==//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Format.h"

#include <cassert>
#include <memory>
#include <new>

using namespace ucc;

namespace {

/// Binding powers for binary operators, lowest first.
enum Precedence {
  PrecNone = 0,
  PrecOr,      // ||
  PrecAnd,     // &&
  PrecBitOr,   // |
  PrecBitXor,  // ^
  PrecBitAnd,  // &
  PrecEquality,// == !=
  PrecRelation,// < <= > >=
  PrecShift,   // << >>
  PrecAdd,     // + -
  PrecMul      // * / %
};

struct BinOpInfo {
  int Prec = PrecNone;
  BinaryOpKind Kind = BinaryOpKind::Arith;
  BinKind Arith = BinKind::Add;
  CmpPred Cmp = CmpPred::EQ;
};

BinOpInfo binOpInfo(TokKind Kind) {
  switch (Kind) {
  case TokKind::PipePipe:
    return {PrecOr, BinaryOpKind::LogicalOr, {}, {}};
  case TokKind::AmpAmp:
    return {PrecAnd, BinaryOpKind::LogicalAnd, {}, {}};
  case TokKind::Pipe:
    return {PrecBitOr, BinaryOpKind::Arith, BinKind::Or, {}};
  case TokKind::Caret:
    return {PrecBitXor, BinaryOpKind::Arith, BinKind::Xor, {}};
  case TokKind::Amp:
    return {PrecBitAnd, BinaryOpKind::Arith, BinKind::And, {}};
  case TokKind::EqEq:
    return {PrecEquality, BinaryOpKind::Compare, {}, CmpPred::EQ};
  case TokKind::NotEq:
    return {PrecEquality, BinaryOpKind::Compare, {}, CmpPred::NE};
  case TokKind::Lt:
    return {PrecRelation, BinaryOpKind::Compare, {}, CmpPred::LT};
  case TokKind::Le:
    return {PrecRelation, BinaryOpKind::Compare, {}, CmpPred::LE};
  case TokKind::Gt:
    return {PrecRelation, BinaryOpKind::Compare, {}, CmpPred::GT};
  case TokKind::Ge:
    return {PrecRelation, BinaryOpKind::Compare, {}, CmpPred::GE};
  case TokKind::Shl:
    return {PrecShift, BinaryOpKind::Arith, BinKind::Shl, {}};
  case TokKind::Shr:
    return {PrecShift, BinaryOpKind::Arith, BinKind::Shr, {}};
  case TokKind::Plus:
    return {PrecAdd, BinaryOpKind::Arith, BinKind::Add, {}};
  case TokKind::Minus:
    return {PrecAdd, BinaryOpKind::Arith, BinKind::Sub, {}};
  case TokKind::Star:
    return {PrecMul, BinaryOpKind::Arith, BinKind::Mul, {}};
  case TokKind::Slash:
    return {PrecMul, BinaryOpKind::Arith, BinKind::Div, {}};
  case TokKind::Percent:
    return {PrecMul, BinaryOpKind::Arith, BinKind::Rem, {}};
  default:
    return {};
  }
}

} // namespace

namespace ucc {

class ParserImpl {
public:
  /// \p Outline leaves function bodies unparsed (OutlineParser).
  ParserImpl(std::string_view Source, DiagnosticEngine &Diag, bool Outline)
      : Source(Source), Toks(lex(Source, Diag)), Diag(Diag), Outline(Outline) {}

  /// Parses the top level, and every body unless in outline mode.
  void run() {
    Nodes = Program.Nodes.get();
    while (!at(TokKind::Eof)) {
      if (at(TokKind::KwInt) || at(TokKind::KwVoid)) {
        parseTopLevel();
        continue;
      }
      error(format("expected declaration, found %s", tokKindName(cur().Kind)));
      advance();
    }
  }

  ProgramAST Program;

  //===--- outline mode ---------------------------------------------------===//

  std::string_view text(size_t I) const {
    const BodySpan &B = Bodies[I];
    size_t Begin = Toks[B.Header].Offset;
    return Source.substr(Begin, Toks[B.Close].Offset + 1 - Begin);
  }

  SourceLoc start(size_t I) const { return Toks[Bodies[I].Header].Loc; }

  void parseBody(size_t I) {
    const BodySpan &B = Bodies[I];
    Pos = B.Open;
    Program.Functions[I].Body = parseBlock();
    assert((Diag.hasErrors() || Pos == B.Close + 1) &&
           "a clean body parse ends at its matching brace");
  }

private:
  /// Token indices of one function in outline mode: its first header
  /// token and its body's braces.
  struct BodySpan {
    size_t Header = 0, Open = 0, Close = 0;
  };

  //===--- token helpers --------------------------------------------------===//

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Ahead) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind Kind) const { return cur().Kind == Kind; }

  /// Consumes the current token and returns it. Tokens stay put for the
  /// parser's lifetime, so the reference never dangles.
  const Token &advance() {
    const Token &T = cur();
    if (Pos + 1 < Toks.size())
      ++Pos;
    return T;
  }

  bool accept(TokKind Kind) {
    if (!at(Kind))
      return false;
    advance();
    return true;
  }

  const Token &expect(TokKind Kind, const char *Where) {
    if (at(Kind))
      return advance();
    error(format("expected %s %s, found %s", tokKindName(Kind), Where,
                 tokKindName(cur().Kind)));
    return cur();
  }

  void error(const std::string &Msg) { Diag.error(cur().Loc, Msg); }

  /// Skips ahead to the next ';' or '}' to recover from a syntax error.
  void recover() {
    while (!at(TokKind::Eof) && !at(TokKind::Semi) && !at(TokKind::RBrace))
      advance();
    accept(TokKind::Semi);
  }

  //===--- declarations ---------------------------------------------------===//

  void parseTopLevel() {
    size_t Header = Pos;
    bool ReturnsInt = at(TokKind::KwInt);
    advance(); // int / void
    const Token &Name = expect(TokKind::Ident, "in declaration");

    if (at(TokKind::LParen)) {
      parseFunction(Name, ReturnsInt, Header);
      return;
    }
    if (!ReturnsInt) {
      error("global variables must have type 'int'");
      recover();
      return;
    }
    parseGlobal(Name);
  }

  void parseGlobal(const Token &Name) {
    GlobalDecl G;
    G.Loc = Name.Loc;
    G.Name = Name.Text;
    if (accept(TokKind::LBracket)) {
      const Token &Size = expect(TokKind::IntLit, "as array size");
      G.ArraySize = static_cast<int>(Size.IntValue);
      if (G.ArraySize <= 0)
        Diag.error(Size.Loc, "array size must be positive");
      expect(TokKind::RBracket, "after array size");
    }
    if (accept(TokKind::Assign)) {
      G.HasInit = true;
      if (accept(TokKind::LBrace)) {
        if (!at(TokKind::RBrace)) {
          do {
            G.Init.push_back(parseSignedIntLit());
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RBrace, "after initializer list");
      } else {
        G.Init.push_back(parseSignedIntLit());
      }
    }
    expect(TokKind::Semi, "after global declaration");
    Program.Globals.push_back(std::move(G));
  }

  int64_t parseSignedIntLit() {
    bool Negate = accept(TokKind::Minus);
    const Token &Lit = expect(TokKind::IntLit, "in initializer");
    return Negate ? -Lit.IntValue : Lit.IntValue;
  }

  void parseFunction(const Token &Name, bool ReturnsInt, size_t Header) {
    FuncDecl F;
    F.Loc = Name.Loc;
    F.Name = Name.Text;
    F.ReturnsInt = ReturnsInt;
    expect(TokKind::LParen, "after function name");
    if (!at(TokKind::RParen) && !accept(TokKind::KwVoid)) {
      do {
        expect(TokKind::KwInt, "as parameter type");
        const Token &P = expect(TokKind::Ident, "as parameter name");
        F.Params.emplace_back(P.Text);
      } while (accept(TokKind::Comma));
    }
    if (F.Params.size() > 4)
      Diag.error(F.Loc, "functions take at most 4 parameters");
    expect(TokKind::RParen, "after parameters");
    if (Outline)
      skipBody(Header);
    else
      F.Body = parseBlock();
    Program.Functions.push_back(std::move(F));
  }

  /// Outline mode: records the body's braces, found by brace matching, and
  /// moves past the closing one.
  void skipBody(size_t Header) {
    BodySpan &B = Bodies.emplace_back();
    B.Header = Header;
    B.Open = Pos;
    if (!at(TokKind::LBrace)) {
      expect(TokKind::LBrace, "to open block");
      return;
    }
    int Depth = 0;
    for (size_t I = Pos; Toks[I].Kind != TokKind::Eof; ++I) {
      if (Toks[I].Kind == TokKind::LBrace) {
        ++Depth;
      } else if (Toks[I].Kind == TokKind::RBrace && --Depth == 0) {
        B.Close = I;
        Pos = I + 1;
        return;
      }
    }
    Pos = Toks.size() - 1;
    expect(TokKind::RBrace, "to close block");
  }

  //===--- statements -----------------------------------------------------===//

  StmtPtr makeStmt(Stmt::Kind Kind, SourceLoc Loc) {
    StmtPtr S(new (Nodes->allocate(sizeof(Stmt), alignof(Stmt))) Stmt());
    S->K = Kind;
    S->Loc = Loc;
    return S;
  }

  StmtPtr parseBlock() {
    SourceLoc Loc = cur().Loc;
    expect(TokKind::LBrace, "to open block");
    StmtPtr Block = makeStmt(Stmt::Kind::Block, Loc);
    while (!at(TokKind::RBrace) && !at(TokKind::Eof))
      Block->Body.push_back(parseStmt());
    expect(TokKind::RBrace, "to close block");
    return Block;
  }

  StmtPtr parseStmt() {
    switch (cur().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwInt:
      return parseDecl();
    case TokKind::KwIf:
      return parseIf();
    case TokKind::KwWhile:
      return parseWhile();
    case TokKind::KwFor:
      return parseFor();
    case TokKind::KwReturn: {
      StmtPtr S = makeStmt(Stmt::Kind::Return, advance().Loc);
      if (!at(TokKind::Semi))
        S->Value = parseExpr();
      expect(TokKind::Semi, "after return");
      return S;
    }
    case TokKind::KwBreak: {
      StmtPtr S = makeStmt(Stmt::Kind::Break, advance().Loc);
      expect(TokKind::Semi, "after break");
      return S;
    }
    case TokKind::KwContinue: {
      StmtPtr S = makeStmt(Stmt::Kind::Continue, advance().Loc);
      expect(TokKind::Semi, "after continue");
      return S;
    }
    default: {
      StmtPtr S = parseSimpleStmt();
      expect(TokKind::Semi, "after statement");
      return S;
    }
    }
  }

  StmtPtr parseDecl() {
    SourceLoc Loc = advance().Loc; // int
    const Token &Name = expect(TokKind::Ident, "as variable name");
    StmtPtr S = makeStmt(Stmt::Kind::Decl, Loc);
    S->Name = Name.Text;
    if (accept(TokKind::LBracket)) {
      const Token &Size = expect(TokKind::IntLit, "as array size");
      S->ArraySize = static_cast<int>(Size.IntValue);
      if (S->ArraySize <= 0)
        Diag.error(Size.Loc, "array size must be positive");
      expect(TokKind::RBracket, "after array size");
    }
    if (accept(TokKind::Assign)) {
      if (S->ArraySize > 0)
        error("local arrays cannot have initializers");
      S->Value = parseExpr();
    }
    expect(TokKind::Semi, "after declaration");
    return S;
  }

  StmtPtr parseIf() {
    SourceLoc Loc = advance().Loc;
    expect(TokKind::LParen, "after 'if'");
    StmtPtr S = makeStmt(Stmt::Kind::If, Loc);
    S->Cond = parseExpr();
    expect(TokKind::RParen, "after condition");
    S->Then = parseStmt();
    if (accept(TokKind::KwElse))
      S->Else = parseStmt();
    return S;
  }

  StmtPtr parseWhile() {
    SourceLoc Loc = advance().Loc;
    expect(TokKind::LParen, "after 'while'");
    StmtPtr S = makeStmt(Stmt::Kind::While, Loc);
    S->Cond = parseExpr();
    expect(TokKind::RParen, "after condition");
    S->Body0 = parseStmt();
    return S;
  }

  StmtPtr parseFor() {
    SourceLoc Loc = advance().Loc;
    expect(TokKind::LParen, "after 'for'");
    StmtPtr S = makeStmt(Stmt::Kind::For, Loc);
    if (!at(TokKind::Semi))
      S->InitStmt = parseSimpleStmt();
    expect(TokKind::Semi, "after for-init");
    if (!at(TokKind::Semi))
      S->Cond = parseExpr();
    expect(TokKind::Semi, "after for-condition");
    if (!at(TokKind::RParen))
      S->StepStmt = parseSimpleStmt();
    expect(TokKind::RParen, "after for-step");
    S->Body0 = parseStmt();
    return S;
  }

  /// Simple statement: assignment, builtin, or expression (call).
  StmtPtr parseSimpleStmt() {
    SourceLoc Loc = cur().Loc;

    if (at(TokKind::Ident)) {
      std::string_view Name = cur().Text;
      if (Name == "__out")
        return parseOut();
      if (Name == "__halt") {
        advance();
        expect(TokKind::LParen, "after '__halt'");
        expect(TokKind::RParen, "after '__halt('");
        return makeStmt(Stmt::Kind::Halt, Loc);
      }
      // Assignment? Lookahead for `ident =` or `ident [ ... ] =`.
      if (peek(1).Kind == TokKind::Assign)
        return parseAssign(/*Indexed=*/false);
      if (peek(1).Kind == TokKind::LBracket && isIndexedAssign())
        return parseAssign(/*Indexed=*/true);
    }

    StmtPtr S = makeStmt(Stmt::Kind::ExprStmt, Loc);
    S->Value = parseExpr();
    return S;
  }

  /// Scans forward from `ident [` to decide whether this is an indexed
  /// assignment (`a[i] = ...`) or an expression (`a[i] + ...`).
  bool isIndexedAssign() const {
    size_t I = Pos + 2; // past ident and '['
    int Depth = 1;
    while (I < Toks.size() && Depth > 0) {
      TokKind K = Toks[I].Kind;
      if (K == TokKind::LBracket)
        ++Depth;
      else if (K == TokKind::RBracket)
        --Depth;
      else if (K == TokKind::Semi || K == TokKind::Eof)
        return false;
      ++I;
    }
    return I < Toks.size() && Toks[I].Kind == TokKind::Assign;
  }

  StmtPtr parseAssign(bool Indexed) {
    const Token &Name = advance();
    StmtPtr S = makeStmt(Stmt::Kind::Assign, Name.Loc);
    S->Name = Name.Text;
    if (Indexed) {
      expect(TokKind::LBracket, "in indexed assignment");
      S->TargetIndex = parseExpr();
      expect(TokKind::RBracket, "after index");
    }
    expect(TokKind::Assign, "in assignment");
    S->Value = parseExpr();
    return S;
  }

  StmtPtr parseOut() {
    SourceLoc Loc = advance().Loc; // __out
    expect(TokKind::LParen, "after '__out'");
    const Token &Port = expect(TokKind::IntLit, "as port number");
    expect(TokKind::Comma, "after port number");
    StmtPtr S = makeStmt(Stmt::Kind::OutPort, Loc);
    S->Port = Port.IntValue;
    S->Value = parseExpr();
    expect(TokKind::RParen, "after '__out' arguments");
    return S;
  }

  //===--- expressions ----------------------------------------------------===//

  ExprPtr makeExpr(Expr::Kind Kind, SourceLoc Loc) {
    ExprPtr E(new (Nodes->allocate(sizeof(Expr), alignof(Expr))) Expr());
    E->K = Kind;
    E->Loc = Loc;
    return E;
  }

  ExprPtr parseExpr() { return parseBinary(PrecOr); }

  ExprPtr parseBinary(int MinPrec) {
    ExprPtr LHS = parseUnary();
    while (true) {
      BinOpInfo Info = binOpInfo(cur().Kind);
      if (Info.Prec == PrecNone || Info.Prec < MinPrec)
        return LHS;
      SourceLoc Loc = advance().Loc;
      ExprPtr RHS = parseBinary(Info.Prec + 1);
      ExprPtr E = makeExpr(Expr::Kind::Binary, Loc);
      E->BOp = Info.Kind;
      E->ArithK = Info.Arith;
      E->CmpK = Info.Cmp;
      E->LHS = std::move(LHS);
      E->RHS = std::move(RHS);
      LHS = std::move(E);
    }
  }

  ExprPtr parseUnary() {
    SourceLoc Loc = cur().Loc;
    if (accept(TokKind::Minus)) {
      ExprPtr E = makeExpr(Expr::Kind::Unary, Loc);
      E->UnK = UnKind::Neg;
      E->LHS = parseUnary();
      return E;
    }
    if (accept(TokKind::Tilde)) {
      ExprPtr E = makeExpr(Expr::Kind::Unary, Loc);
      E->UnK = UnKind::Not;
      E->LHS = parseUnary();
      return E;
    }
    if (accept(TokKind::Bang)) {
      // !x  ==>  (x == 0)
      ExprPtr E = makeExpr(Expr::Kind::Binary, Loc);
      E->BOp = BinaryOpKind::Compare;
      E->CmpK = CmpPred::EQ;
      E->LHS = parseUnary();
      ExprPtr Zero = makeExpr(Expr::Kind::IntLit, Loc);
      Zero->Value = 0;
      E->RHS = std::move(Zero);
      return E;
    }
    return parsePrimary();
  }

  ExprPtr parsePrimary() {
    SourceLoc Loc = cur().Loc;
    if (at(TokKind::IntLit)) {
      ExprPtr E = makeExpr(Expr::Kind::IntLit, Loc);
      E->Value = advance().IntValue;
      return E;
    }
    if (accept(TokKind::LParen)) {
      ExprPtr E = parseExpr();
      expect(TokKind::RParen, "to close parenthesized expression");
      return E;
    }
    if (at(TokKind::Ident)) {
      const Token &Name = advance();
      if (Name.Text == "__in") {
        expect(TokKind::LParen, "after '__in'");
        const Token &Port = expect(TokKind::IntLit, "as port number");
        expect(TokKind::RParen, "after port number");
        ExprPtr E = makeExpr(Expr::Kind::InPort, Loc);
        E->Port = Port.IntValue;
        return E;
      }
      if (accept(TokKind::LParen)) {
        ExprPtr E = makeExpr(Expr::Kind::CallE, Loc);
        E->Name = Name.Text;
        if (!at(TokKind::RParen)) {
          do {
            E->Args.push_back(parseExpr());
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "after call arguments");
        return E;
      }
      if (accept(TokKind::LBracket)) {
        ExprPtr E = makeExpr(Expr::Kind::Index, Loc);
        E->Name = Name.Text;
        E->LHS = parseExpr();
        expect(TokKind::RBracket, "after index");
        return E;
      }
      ExprPtr E = makeExpr(Expr::Kind::VarRef, Loc);
      E->Name = Name.Text;
      return E;
    }
    error(format("expected expression, found %s", tokKindName(cur().Kind)));
    advance();
    return makeExpr(Expr::Kind::IntLit, Loc);
  }

  std::string_view Source;
  std::vector<Token> Toks;
  DiagnosticEngine &Diag;
  bool Outline;
  size_t Pos = 0;
  Arena *Nodes = nullptr;       ///< the arena of Program
  std::vector<BodySpan> Bodies; ///< outline mode: one per function
};

} // namespace ucc

ProgramAST ucc::parseProgram(const std::string &Source,
                             DiagnosticEngine &Diag) {
  ParserImpl P(Source, Diag, /*Outline=*/false);
  P.run();
  return std::move(P.Program);
}

OutlineParser::OutlineParser(const std::string &Source, DiagnosticEngine &Diag)
    : Impl(std::make_unique<ParserImpl>(Source, Diag, /*Outline=*/true)) {
  Impl->run();
}

OutlineParser::~OutlineParser() = default;

const ProgramAST &OutlineParser::program() const { return Impl->Program; }

std::string_view OutlineParser::text(size_t I) const { return Impl->text(I); }

SourceLoc OutlineParser::start(size_t I) const { return Impl->start(I); }

void OutlineParser::parseBody(size_t I) { Impl->parseBody(I); }
