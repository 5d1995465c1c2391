//===- perfbench/src/Firmware.cpp - seeded firmware and its releases ------===//

#include "Firmware.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace pb {

namespace {

constexpr int MaxRemovablePerFn = 3;   // inserted instructions kept per fn
constexpr int MaxAddedIfsPerFn = 2;    // edit-added `if` wrappers per fn
constexpr int MaxAddedGlobals = 6;     // inserted globals kept at once
constexpr int MaxStageParams = 4;      // MiniC's argument-register limit
constexpr int MaxKernelParams = 3;     // keeps kernels inside the ILP budget
constexpr int Stages = 10;             // loop stages (multi-block)
constexpr int Kernels = 6;             // straight-line kernels (one block)
constexpr int MainIters = 8;           // main-loop iterations per run

Expr mkConst(int V) {
  Expr E;
  E.K = Expr::Const;
  E.C = static_cast<int16_t>(V);
  return E;
}
Expr mkVar(const std::string &N) {
  Expr E;
  E.K = Expr::Var;
  E.Name = N;
  return E;
}
Expr mkBin(const char *Op, Expr L, Expr R) {
  Expr E;
  E.K = Expr::Bin;
  E.Op = Op;
  E.Kids.push_back(std::move(L));
  E.Kids.push_back(std::move(R));
  return E;
}
Stmt mkAssign(const std::string &T, Expr E, bool Removable = false) {
  Stmt S;
  S.K = Stmt::Assign;
  S.Target = T;
  S.Exprs.push_back(std::move(E));
  S.Removable = Removable;
  return S;
}

template <typename T> const T &pick(Rng &R, const std::vector<T> &V) {
  return V[static_cast<size_t>(R.below(static_cast<int>(V.size())))];
}

/// A full expression tree of depth \p Depth (fixed shape, so program size
/// barely varies across seeds); leaves are mostly variables, since
/// constant leaves fold away.
Expr randExpr(Rng &R, const std::vector<std::string> &Vars, int Depth) {
  if (Depth == 0) {
    if (R.below(10) < 8)
      return mkVar(pick(R, Vars));
    return mkConst(1 + R.below(999));
  }
  static const char *Ops[] = {"+", "+", "-", "^", "&", "|", "*",
                              "<<", ">>", "/", "%"};
  const char *Op = Ops[R.below(11)];
  Expr L = randExpr(R, Vars, Depth - 1);
  std::string O = Op;
  if (O == "<<" || O == ">>")
    return mkBin(Op, std::move(L), mkConst(1 + R.below(4)));
  if (O == "/" || O == "%")
    return mkBin(Op, std::move(L), mkConst(2 + R.below(14)));
  if (O == "*")
    return mkBin(Op, std::move(L), mkConst(2 + R.below(7)));
  return mkBin(Op, std::move(L), randExpr(R, Vars, Depth - 1));
}

Expr randCond(Rng &R, const std::vector<std::string> &Vars) {
  static const char *Cmp[] = {"<", ">", "<=", ">=", "==", "!="};
  Expr C = mkBin(Cmp[R.below(6)], randExpr(R, Vars, 1),
                 mkConst(R.below(600)));
  if (R.below(4) == 0)
    C = mkBin(R.below(2) ? "&&" : "||", std::move(C),
              mkBin(">", mkVar(pick(R, Vars)), mkConst(R.below(300))));
  return C;
}

bool isMain(const Function &F) { return F.Name == "main"; }

/// Variables readable in \p F (params, locals, globals).
std::vector<std::string> readable(const Program &P, const Function &F) {
  std::vector<std::string> V = F.Params;
  for (const Local &L : F.Locals)
    V.push_back(L.Name);
  for (const Local &G : P.Globals)
    V.push_back(G.Name);
  return V;
}

/// Locals an inserted statement may assign (never a loop counter).
std::vector<std::string> writable(const Function &F) {
  std::vector<std::string> V;
  for (const Local &L : F.Locals)
    if (L.Name != "i" && L.Name != "it")
      V.push_back(L.Name);
  return V;
}

void forEachStmt(std::vector<Stmt> &Body,
                 const std::function<void(Stmt &)> &Fn) {
  for (Stmt &S : Body) {
    Fn(S);
    forEachStmt(S.Body, Fn);
    forEachStmt(S.Else, Fn);
  }
}

void forEachExpr(Expr &E, const std::function<void(Expr &, bool)> &Fn,
                 bool Fixed = false) {
  Fn(E, Fixed);
  for (size_t K = 0; K < E.Kids.size(); ++K) {
    // Shift amounts and divisors stay the constants the generator chose
    // (shift counts stay below 16, divisors stay non-zero).
    bool KidFixed = K == 1 && (E.Op == "<<" || E.Op == ">>" ||
                               E.Op == "/" || E.Op == "%" || E.Op == "*");
    forEachExpr(E.Kids[K], Fn, KidFixed);
  }
}

void forEachFnExpr(Function &F, const std::function<void(Expr &, bool)> &Fn) {
  forEachStmt(F.Body, [&](Stmt &S) {
    for (Expr &E : S.Exprs)
      forEachExpr(E, Fn);
  });
}

/// Every statement list of \p F with the range an insertion may use: the
/// top level of an int function ends in its `return`.
std::vector<std::pair<std::vector<Stmt> *, size_t>> bodies(Function &F) {
  std::vector<std::pair<std::vector<Stmt> *, size_t>> Out;
  size_t Top = F.Body.size() - (F.ReturnsInt ? 1 : 0);
  Out.push_back({&F.Body, Top});
  forEachStmt(F.Body, [&](Stmt &S) {
    if (S.K == Stmt::Loop || S.K == Stmt::If)
      Out.push_back({&S.Body, S.Body.size()});
  });
  return Out;
}

int countAddedIfs(std::vector<Stmt> &Body) {
  int N = 0;
  forEachStmt(Body, [&](Stmt &S) { N += S.K == Stmt::If && S.Removable; });
  return N;
}

/// Drops assignments to \p Name everywhere and turns its reads into 1.
void eraseVar(Program &P, const std::string &Name) {
  std::function<void(std::vector<Stmt> &)> Strip = [&](std::vector<Stmt> &B) {
    B.erase(std::remove_if(B.begin(), B.end(),
                           [&](const Stmt &S) {
                             return S.K == Stmt::Assign && S.Target == Name;
                           }),
            B.end());
    for (Stmt &S : B) {
      Strip(S.Body);
      Strip(S.Else);
    }
  };
  for (Function &F : P.Functions) {
    Strip(F.Body);
    forEachFnExpr(F, [&](Expr &E, bool) {
      if (E.K == Expr::Var && E.Name == Name)
        E = mkConst(1);
    });
  }
}

Function *findFn(Program &P, const std::string &Name) {
  for (Function &F : P.Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

void callSites(Program &P, const std::string &Callee,
               const std::function<void(Stmt &)> &Fn) {
  for (Function &F : P.Functions)
    forEachStmt(F.Body, [&](Stmt &S) {
      if (S.K == Stmt::Call && S.Callee == Callee)
        Fn(S);
    });
}


std::string freshName(const Program &P, const char *Prefix) {
  for (int N = 0;; ++N) {
    std::string Cand = Prefix + std::to_string(N);
    bool Used = false;
    for (const Local &G : P.Globals)
      Used |= G.Name == Cand;
    for (const Function &F : P.Functions) {
      for (const std::string &Pa : F.Params)
        Used |= Pa == Cand;
    }
    if (!Used)
      return Cand;
  }
}

// --- the six edit kinds; each returns false when it found no target -----

bool editConstant(Program &, Function &F, Rng &R) {
  std::vector<Expr *> Consts;
  forEachFnExpr(F, [&](Expr &E, bool Fixed) {
    if (E.K == Expr::Const && !Fixed)
      Consts.push_back(&E);
  });
  if (Consts.empty())
    return false;
  Expr &E = *Consts[static_cast<size_t>(R.below(static_cast<int>(Consts.size())))];
  int V = E.C;
  while (V == E.C)
    V = 1 + R.below(999);
  E.C = static_cast<int16_t>(V);
  return true;
}

bool editVariable(Program &P, Function &F, Rng &R) {
  std::vector<Expr *> Vars;
  forEachFnExpr(F, [&](Expr &E, bool) {
    if (E.K == Expr::Var)
      Vars.push_back(&E);
  });
  std::vector<std::string> Scope = readable(P, F);
  if (Vars.empty() || Scope.size() < 2)
    return false;
  Expr &E = *Vars[static_cast<size_t>(R.below(static_cast<int>(Vars.size())))];
  std::string N = E.Name;
  while (N == E.Name)
    N = pick(R, Scope);
  E.Name = N;
  return true;
}

bool editInstruction(Program &P, Function &F, Rng &R) {
  int Removable = 0;
  forEachStmt(F.Body, [&](Stmt &S) { Removable += S.Removable && S.K == Stmt::Assign; });
  if (Removable >= MaxRemovablePerFn || (Removable > 0 && R.below(3) == 0)) {
    // Delete one previously inserted instruction.
    int Victim = R.below(Removable), Seen = 0;
    std::function<bool(std::vector<Stmt> &)> Drop = [&](std::vector<Stmt> &B) {
      for (size_t K = 0; K < B.size(); ++K) {
        if (B[K].Removable && B[K].K == Stmt::Assign && Seen++ == Victim) {
          B.erase(B.begin() + static_cast<long>(K));
          return true;
        }
        if (Drop(B[K].Body) || Drop(B[K].Else))
          return true;
      }
      return false;
    };
    return Drop(F.Body);
  }
  std::vector<std::string> Targets = writable(F);
  if (Targets.empty())
    return false;
  auto Bs = bodies(F);
  auto [Body, Limit] = Bs[static_cast<size_t>(R.below(static_cast<int>(Bs.size())))];
  size_t Pos = static_cast<size_t>(R.below(static_cast<int>(Limit) + 1));
  Body->insert(Body->begin() + static_cast<long>(Pos),
               mkAssign(pick(R, Targets), randExpr(R, readable(P, F), 2),
                        /*Removable=*/true));
  return true;
}

bool editParameter(Program &P, Function &F, Rng &R) {
  if (isMain(F))
    return false;
  int Base = F.StraightLine ? 2 : 1;
  int Max = F.StraightLine ? MaxKernelParams : MaxStageParams;
  int NParams = static_cast<int>(F.Params.size());
  if (NParams >= Max || (NParams > Base && R.below(3) == 0)) {
    // Drop one added parameter and its argument at every call site.
    size_t Idx = static_cast<size_t>(Base + R.below(NParams - Base));
    std::string Name = F.Params[Idx];
    F.Params.erase(F.Params.begin() + static_cast<long>(Idx));
    forEachFnExpr(F, [&](Expr &E, bool) {
      if (E.K == Expr::Var && E.Name == Name)
        E = mkConst(1);
    });
    callSites(P, F.Name, [&](Stmt &S) {
      S.Exprs.erase(S.Exprs.begin() + static_cast<long>(Idx));
    });
    return true;
  }
  std::string Name = freshName(P, "p");
  std::vector<std::string> Targets = writable(F);
  F.Params.push_back(Name);
  F.Body.insert(F.Body.begin(),
                mkAssign(pick(R, Targets),
                         mkBin("+", mkVar(pick(R, Targets)), mkVar(Name))));
  Function *Main = findFn(P, "main");
  std::vector<std::string> MainVars = readable(P, *Main);
  callSites(P, F.Name,
            [&](Stmt &S) { S.Exprs.push_back(randExpr(R, MainVars, 1)); });
  return true;
}

bool editControlFlow(Program &P, Function &F, Rng &R) {
  if (F.StraightLine)
    return false;
  if (countAddedIfs(F.Body) >= MaxAddedIfsPerFn) {
    // Unwrap one edit-added branch (its body stays).
    std::function<bool(std::vector<Stmt> &)> Unwrap = [&](std::vector<Stmt> &B) {
      for (size_t K = 0; K < B.size(); ++K) {
        if (B[K].K == Stmt::If && B[K].Removable) {
          std::vector<Stmt> Inner = std::move(B[K].Body);
          B.erase(B.begin() + static_cast<long>(K));
          B.insert(B.begin() + static_cast<long>(K), Inner.begin(), Inner.end());
          return true;
        }
        if (Unwrap(B[K].Body) || Unwrap(B[K].Else))
          return true;
      }
      return false;
    };
    return Unwrap(F.Body);
  }
  // Wrap one plain assignment in a fresh condition.
  std::vector<std::pair<std::vector<Stmt> *, size_t>> Sites;
  std::function<void(std::vector<Stmt> &)> Collect = [&](std::vector<Stmt> &B) {
    for (size_t K = 0; K < B.size(); ++K) {
      if (B[K].K == Stmt::Assign && B[K].Target != "i" && B[K].Target != "it")
        Sites.push_back({&B, K});
      Collect(B[K].Body);
      Collect(B[K].Else);
    }
  };
  Collect(F.Body);
  if (Sites.empty())
    return false;
  auto [Body, K] = Sites[static_cast<size_t>(R.below(static_cast<int>(Sites.size())))];
  Stmt If;
  If.K = Stmt::If;
  If.Removable = true;
  If.Exprs.push_back(randCond(R, readable(P, F)));
  If.Body.push_back(std::move((*Body)[K]));
  (*Body)[K] = std::move(If);
  return true;
}

bool editGlobal(Program &P, Function &F, Rng &R) {
  if (F.StraightLine || isMain(F))
    return false;
  int Added = 0;
  for (const Local &G : P.Globals)
    Added += G.Name.rfind("gx", 0) == 0;
  if (Added >= MaxAddedGlobals) {
    std::vector<std::string> Names;
    for (const Local &G : P.Globals)
      if (G.Name.rfind("gx", 0) == 0)
        Names.push_back(G.Name);
    std::string Victim = pick(R, Names);
    eraseVar(P, Victim);
    P.Globals.erase(std::remove_if(P.Globals.begin(), P.Globals.end(),
                                   [&](const Local &G) { return G.Name == Victim; }),
                    P.Globals.end());
    return true;
  }
  std::string Name = freshName(P, "gx");
  // A new global goes anywhere in the data segment, as a developer adds it.
  size_t At = static_cast<size_t>(R.below(static_cast<int>(P.Globals.size()) + 1));
  P.Globals.insert(P.Globals.begin() + static_cast<long>(At),
                   Local{Name, static_cast<int16_t>(R.below(500))});
  std::vector<std::string> Targets = writable(F);
  std::string A = pick(R, Targets);
  F.Body.insert(F.Body.begin() + static_cast<long>(F.Body.size() - 1),
                {mkAssign(Name, mkBin("+", mkVar(Name), mkVar(A))),
                 mkAssign(A, mkBin("^", mkVar(A), mkVar(Name)))});
  return true;
}

// --- generation ---------------------------------------------------------

Function makeStage(int Idx, Rng &R, const std::vector<Local> &Globals) {
  Function F;
  F.Name = "stage_" + std::to_string(Idx);
  F.Params = {"x"};
  for (int K = 0; K < 6; ++K)
    F.Locals.push_back({"a" + std::to_string(K),
                        static_cast<int16_t>(R.below(100))});
  F.Locals.push_back({"i", 0});
  std::vector<std::string> Vars = {"x"};
  for (const Local &L : F.Locals)
    Vars.push_back(L.Name);
  std::vector<std::string> WithGlobals = Vars;
  for (const Local &G : Globals)
    WithGlobals.push_back(G.Name);
  std::vector<std::string> Targets(Vars.begin() + 1, Vars.end() - 1);

  F.Body.push_back(mkAssign("a0", mkBin("+", mkVar("x"), mkConst(1 + R.below(99)))));
  F.Body.push_back(mkAssign("a1", mkBin("^", mkVar("x"), mkConst(1 + R.below(999)))));
  Stmt Loop;
  Loop.K = Stmt::Loop;
  Loop.Target = "i";
  Loop.Count = 5;
  for (int K = 0; K < 6; ++K)
    Loop.Body.push_back(mkAssign(Targets[static_cast<size_t>(K % 6)],
                                 randExpr(R, Vars, 2)));
  Stmt If;
  If.K = Stmt::If;
  If.Exprs.push_back(randCond(R, Vars));
  If.Body.push_back(mkAssign(pick(R, Targets), randExpr(R, Vars, 2)));
  If.Else.push_back(mkAssign(pick(R, Targets), randExpr(R, Vars, 1)));
  Loop.Body.push_back(std::move(If));
  F.Body.push_back(std::move(Loop));
  F.Body.push_back(mkAssign("a2", randExpr(R, WithGlobals, 2)));
  const std::string &G = Globals[static_cast<size_t>(Idx) % Globals.size()].Name;
  F.Body.push_back(mkAssign(G, mkBin("+", mkVar(G), mkVar(pick(R, Targets)))));
  Stmt Ret;
  Ret.K = Stmt::Return;
  Ret.Exprs.push_back(mkBin("&", randExpr(R, Vars, 2), mkConst(32767)));
  F.Body.push_back(std::move(Ret));
  return F;
}

Function makeKernel(int Idx, Rng &R) {
  Function F;
  F.Name = "kern_" + std::to_string(Idx);
  F.StraightLine = true;
  F.Params = {"p", "q"};
  for (int K = 0; K < 7; ++K)
    F.Locals.push_back({"k" + std::to_string(K),
                        static_cast<int16_t>(R.below(100))});
  std::vector<std::string> Vars = {"p", "q"};
  for (const Local &L : F.Locals)
    Vars.push_back(L.Name);
  for (int K = 0; K < 10; ++K)
    F.Body.push_back(mkAssign("k" + std::to_string(K % 7), randExpr(R, Vars, 2)));
  Stmt Ret;
  Ret.K = Stmt::Return;
  Ret.Exprs.push_back(randExpr(R, Vars, 2));
  F.Body.push_back(std::move(Ret));
  return F;
}

Function makeMain(Rng &R, const std::vector<Local> &Globals) {
  Function M;
  M.Name = "main";
  M.ReturnsInt = false;
  M.Locals = {{"it", 0}, {"acc", static_cast<int16_t>(1 + R.below(999))}, {"t", 0}};
  Stmt Loop;
  Loop.K = Stmt::Loop;
  Loop.Target = "it";
  Loop.Count = MainIters;
  auto call = [&](const std::string &Fn, std::vector<Expr> Args) {
    Stmt S;
    S.K = Stmt::Call;
    S.Target = "t";
    S.Callee = Fn;
    S.Exprs = std::move(Args);
    return S;
  };
  for (int S = 0; S < Stages; ++S) {
    Loop.Body.push_back(call("stage_" + std::to_string(S),
                             {mkBin("+", mkVar("acc"), mkVar("it"))}));
    Loop.Body.push_back(mkAssign("acc", mkBin("^", mkVar("acc"), mkVar("t"))));
  }
  for (int K = 0; K < Kernels; ++K) {
    Loop.Body.push_back(call("kern_" + std::to_string(K),
                             {mkVar("acc"), mkVar("it")}));
    Loop.Body.push_back(mkAssign("acc", mkBin("+", mkVar("acc"), mkVar("t"))));
  }
  Stmt Dbg;
  Dbg.K = Stmt::Out;
  Dbg.Port = 15;
  Dbg.Exprs.push_back(mkVar("acc"));
  Loop.Body.push_back(Dbg);
  Stmt Led;
  Led.K = Stmt::Out;
  Led.Port = 0;
  Led.Exprs.push_back(mkBin("&", mkVar("acc"), mkConst(7)));
  Loop.Body.push_back(Led);
  Stmt Radio;
  Radio.K = Stmt::Radio;
  Radio.Exprs = {mkVar("acc"), mkVar("t")};
  Loop.Body.push_back(Radio);
  M.Body.push_back(std::move(Loop));
  for (const Local &G : Globals) {
    Stmt Out;
    Out.K = Stmt::Out;
    Out.Port = 15;
    Out.Exprs.push_back(mkVar(G.Name));
    M.Body.push_back(Out);
  }
  return M;
}

// --- rendering ----------------------------------------------------------

void renderExpr(const Expr &E, std::string &S) {
  switch (E.K) {
  case Expr::Const: // generated constants are never negative
    S += std::to_string(E.C);
    return;
  case Expr::Var:
    S += E.Name;
    return;
  case Expr::Bin:
    S += "(";
    renderExpr(E.Kids[0], S);
    S += " " + E.Op + " ";
    renderExpr(E.Kids[1], S);
    S += ")";
    return;
  }
}

void renderBody(const std::vector<Stmt> &Body, int Ind, std::string &S);

void renderStmt(const Stmt &St, int Ind, std::string &S) {
  std::string Pad(static_cast<size_t>(Ind) * 2, ' ');
  switch (St.K) {
  case Stmt::Assign:
    S += Pad + St.Target + " = ";
    renderExpr(St.Exprs[0], S);
    S += ";\n";
    return;
  case Stmt::Call:
    S += Pad + St.Target + " = " + St.Callee + "(";
    for (size_t K = 0; K < St.Exprs.size(); ++K) {
      if (K)
        S += ", ";
      renderExpr(St.Exprs[K], S);
    }
    S += ");\n";
    return;
  case Stmt::If:
    S += Pad + "if (";
    renderExpr(St.Exprs[0], S);
    S += ") {\n";
    renderBody(St.Body, Ind + 1, S);
    if (!St.Else.empty()) {
      S += Pad + "} else {\n";
      renderBody(St.Else, Ind + 1, S);
    }
    S += Pad + "}\n";
    return;
  case Stmt::Loop:
    S += Pad + St.Target + " = 0;\n";
    S += Pad + "while (" + St.Target + " < " + std::to_string(St.Count) + ") {\n";
    renderBody(St.Body, Ind + 1, S);
    S += Pad + "  " + St.Target + " = " + St.Target + " + 1;\n";
    S += Pad + "}\n";
    return;
  case Stmt::Out:
    S += Pad + "__out(" + std::to_string(St.Port) + ", ";
    renderExpr(St.Exprs[0], S);
    S += ");\n";
    return;
  case Stmt::Radio:
    for (const Expr &E : St.Exprs) {
      S += Pad + "__out(1, ";
      renderExpr(E, S);
      S += ");\n";
    }
    S += Pad + "__out(2, " + std::to_string(St.Exprs.size()) + ");\n";
    return;
  case Stmt::Return:
    S += Pad + "return ";
    renderExpr(St.Exprs[0], S);
    S += ";\n";
    return;
  }
}

void renderBody(const std::vector<Stmt> &Body, int Ind, std::string &S) {
  for (const Stmt &St : Body)
    renderStmt(St, Ind, S);
}

// --- reference evaluator ------------------------------------------------

int16_t wrap(int32_t V) { return static_cast<int16_t>(static_cast<uint16_t>(V)); }

struct Frame {
  std::vector<std::pair<const std::string *, int16_t>> Vars;
  int16_t &at(const std::string &N, std::vector<std::pair<const std::string *, int16_t>> &Globals) {
    for (auto &[Name, V] : Vars)
      if (*Name == N)
        return V;
    for (auto &[Name, V] : Globals)
      if (*Name == N)
        return V;
    throw std::runtime_error("reference evaluator: unknown variable " + N);
  }
};

struct Evaluator {
  const Program &P;
  std::vector<std::pair<const std::string *, int16_t>> Globals;
  std::vector<int16_t> Staged;
  Observed Obs;
  int Depth = 0;

  explicit Evaluator(const Program &P) : P(P) {
    for (const Local &G : P.Globals)
      Globals.push_back({&G.Name, G.Init});
  }

  int16_t eval(const Expr &E, Frame &F) {
    switch (E.K) {
    case Expr::Const:
      return E.C;
    case Expr::Var:
      return F.at(E.Name, Globals);
    case Expr::Bin:
      break;
    }
    const std::string &Op = E.Op;
    int16_t A = eval(E.Kids[0], F);
    if (Op == "&&")
      return A != 0 && eval(E.Kids[1], F) != 0;
    if (Op == "||")
      return A != 0 || eval(E.Kids[1], F) != 0;
    int16_t B = eval(E.Kids[1], F);
    int32_t X = A, Y = B;
    if (Op == "+") return wrap(X + Y);
    if (Op == "-") return wrap(X - Y);
    if (Op == "*") return wrap(X * Y);
    if (Op == "/") return Y == 0 ? 0 : wrap(X / Y);
    if (Op == "%") return Y == 0 ? 0 : wrap(X % Y);
    if (Op == "&") return static_cast<int16_t>(A & B);
    if (Op == "|") return static_cast<int16_t>(A | B);
    if (Op == "^") return static_cast<int16_t>(A ^ B);
    if (Op == "<<")
      return wrap(static_cast<int32_t>(static_cast<uint32_t>(static_cast<uint16_t>(A)) << (Y & 15)));
    if (Op == ">>") return static_cast<int16_t>(A >> (Y & 15));
    if (Op == "<") return A < B;
    if (Op == ">") return A > B;
    if (Op == "<=") return A <= B;
    if (Op == ">=") return A >= B;
    if (Op == "==") return A == B;
    if (Op == "!=") return A != B;
    throw std::runtime_error("reference evaluator: unknown operator " + Op);
  }

  /// Returns true when a `return` ran.
  bool exec(const std::vector<Stmt> &Body, Frame &F, int16_t &Ret) {
    for (const Stmt &S : Body) {
      switch (S.K) {
      case Stmt::Assign:
        F.at(S.Target, Globals) = eval(S.Exprs[0], F);
        break;
      case Stmt::Call: {
        std::vector<int16_t> Args;
        for (const Expr &E : S.Exprs)
          Args.push_back(eval(E, F));
        F.at(S.Target, Globals) = call(S.Callee, Args);
        break;
      }
      case Stmt::If:
        if (eval(S.Exprs[0], F) != 0) {
          if (exec(S.Body, F, Ret))
            return true;
        } else if (exec(S.Else, F, Ret)) {
          return true;
        }
        break;
      case Stmt::Loop: {
        int16_t &Ctr = F.at(S.Target, Globals);
        for (Ctr = 0; Ctr < S.Count; Ctr = static_cast<int16_t>(Ctr + 1))
          if (exec(S.Body, F, Ret))
            return true;
        break;
      }
      case Stmt::Out: {
        int16_t V = eval(S.Exprs[0], F);
        if (S.Port == 15)
          Obs.Debug.push_back(V);
        else if (S.Port == 0)
          Obs.Led.push_back(V);
        break;
      }
      case Stmt::Radio:
        for (const Expr &E : S.Exprs)
          Staged.push_back(eval(E, F));
        Obs.Packets.emplace_back(Staged.end() - static_cast<long>(S.Exprs.size()),
                                 Staged.end());
        Staged.resize(Staged.size() - S.Exprs.size());
        break;
      case Stmt::Return:
        Ret = eval(S.Exprs[0], F);
        return true;
      }
    }
    return false;
  }

  int16_t call(const std::string &Name, const std::vector<int16_t> &Args) {
    for (const Function &Fn : P.Functions) {
      if (Fn.Name != Name)
        continue;
      if (Args.size() != Fn.Params.size())
        throw std::runtime_error("reference evaluator: arity mismatch " + Name);
      Frame F;
      for (size_t K = 0; K < Args.size(); ++K)
        F.Vars.push_back({&Fn.Params[K], Args[K]});
      for (const Local &L : Fn.Locals)
        F.Vars.push_back({&L.Name, L.Init});
      int16_t Ret = 0;
      exec(Fn.Body, F, Ret);
      return Ret;
    }
    throw std::runtime_error("reference evaluator: unknown function " + Name);
  }
};

} // namespace

const char *editKindName(int Kind) {
  static const char *Names[] = {"constant",     "variable",     "instruction",
                                "parameter",    "control_flow", "global"};
  return Names[Kind];
}

Program generateFirmware(uint64_t Seed) {
  Rng R(Seed ^ 0x5eedf1a3ULL);
  Program P;
  for (int K = 0; K < 6; ++K)
    P.Globals.push_back({"g" + std::to_string(K),
                         static_cast<int16_t>(R.below(200))});
  for (int K = 0; K < Kernels; ++K)
    P.Functions.push_back(makeKernel(K, R));
  for (int S = 0; S < Stages; ++S)
    P.Functions.push_back(makeStage(S, R, P.Globals));
  P.Functions.push_back(makeMain(R, P.Globals));
  return P;
}

void applyRelease(Program &P, Rng &R, std::array<int, NumEditKinds> &Hist) {
  // The count, kind and function of each edit follow fixed cycles, so
  // every seed gets the same mix and seeds differ only in where inside a
  // function the edits land and what they write: the cost of a release
  // chain then varies far less from seed to seed than with the mix drawn
  // at random. A kind that does not apply to a function moves on to the
  // next function.
  int Edits = 1 + P.Releases++ % 3;
  for (int E = 0; E < Edits;) {
    int Kind = P.Edits % NumEditKinds;
    Function &F = P.Functions[static_cast<size_t>(P.Attempts++) %
                              P.Functions.size()];
    bool Done = false;
    switch (Kind) {
    case EditConstant: Done = editConstant(P, F, R); break;
    case EditVariable: Done = editVariable(P, F, R); break;
    case EditInstruction: Done = editInstruction(P, F, R); break;
    case EditParameter: Done = editParameter(P, F, R); break;
    case EditControlFlow: Done = editControlFlow(P, F, R); break;
    case EditGlobal: Done = editGlobal(P, F, R); break;
    }
    if (Done) {
      ++Hist[static_cast<size_t>(Kind)];
      ++P.Edits;
      ++E;
    }
  }
}

std::string render(const Program &P) {
  std::string S;
  for (const Local &G : P.Globals)
    S += "int " + G.Name + " = " + std::to_string(G.Init) + ";\n";
  for (const Function &F : P.Functions) {
    S += "\n";
    S += F.ReturnsInt ? "int " : "void ";
    S += F.Name + "(";
    for (size_t K = 0; K < F.Params.size(); ++K)
      S += (K ? ", int " : "int ") + F.Params[K];
    S += ") {\n";
    for (const Local &L : F.Locals)
      S += "  int " + L.Name + " = " + std::to_string(L.Init) + ";\n";
    renderBody(F.Body, 1, S);
    if (!F.ReturnsInt)
      S += "  __halt();\n";
    S += "}\n";
  }
  return S;
}

Observed evaluate(const Program &P) {
  Evaluator E(P);
  E.call("main", {});
  return std::move(E.Obs);
}

int countStraightLine(const Program &P) {
  int N = 0;
  for (const Function &F : P.Functions)
    N += F.StraightLine;
  return N;
}

} // namespace pb
