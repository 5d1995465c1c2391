//===- tests/ProgramGen.h - random MiniC programs with structured edits ---===//
//
// The generator behind the randomized end-to-end update tests
// (FuzzPipelineTest), the pinned-output corpora (OptTest, FrontendTest)
// and the compile cache's warm chains (CompileCacheTest). Programs always
// terminate; a seed fixes both the program and every edit mutate() and
// structuralEdit() apply to it. Until structuralEdit() runs, a program is
// globals, helpers and main, in that order.
//
//===----------------------------------------------------------------------===//

#ifndef UCC_TESTS_PROGRAMGEN_H
#define UCC_TESTS_PROGRAMGEN_H

#include "support/Format.h"
#include "support/RNG.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ucc {

/// Generates random programs as statement lists so that edits can be
/// applied structurally (insert / delete / tweak a statement).
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : Rng(Seed) {
    NumGlobals = static_cast<int>(Rng.range(2, 4));
    NumHelpers = static_cast<int>(Rng.range(1, 2));
    for (int H = 0; H < NumHelpers; ++H)
      Helpers.push_back(makeHelper(H));
    int NumStmts = static_cast<int>(Rng.range(6, 14));
    for (int S = 0; S < NumStmts; ++S)
      MainStmts.push_back(makeStatement());
    for (int G = 0; G < NumGlobals; ++G)
      Globals.push_back({format("g%d", G), 0, G * 3 + 1});
    for (int H = 0; H < NumHelpers; ++H)
      Order.push_back(format("h%d", H));
    Order.push_back("main");
  }

  /// Renders the current program.
  std::string render() const {
    std::string Out;
    for (const Global &G : Globals) {
      if (G.ArraySize > 0)
        Out += format("int %s[%d];\n", G.Name.c_str(), G.ArraySize);
      else if (G.Init >= 0)
        Out += format("int %s = %d;\n", G.Name.c_str(), G.Init);
      else
        Out += format("int %s;\n", G.Name.c_str());
    }
    for (const std::string &Name : Order)
      Out += functionText(Name) + (Name == "main" ? "" : "\n");
    return Out;
  }

  /// Function \p Name's text as render() writes it, return type through
  /// closing brace.
  std::string functionText(const std::string &Name) const {
    if (Name == "main")
      return mainText();
    if (Name[0] == 'h')
      return Helpers[std::stoul(Name.substr(1))];
    return procText(*findProc(Name));
  }

  /// The functions, in source order.
  const std::vector<std::string> &functions() const { return Order; }

  /// The globals' names, in source order.
  std::vector<std::string> globals() const {
    std::vector<std::string> Names;
    for (const Global &G : Globals)
      Names.push_back(G.Name);
    return Names;
  }

  /// What lowering a reference reads of each declaration, by name: a
  /// global's array size, a function's parameter count and return kind.
  std::map<std::string, std::string> declarations() const {
    std::map<std::string, std::string> Decls;
    for (const Global &G : Globals)
      Decls[G.Name] = format("global %d", G.ArraySize);
    for (int H = 0; H < NumHelpers; ++H)
      Decls[format("h%d", H)] = "function 2 int";
    for (const Proc &P : Procs)
      Decls[P.Name] =
          format("function %d %s", P.Params, P.ReturnsInt ? "int" : "void");
    Decls["main"] = "function 0 void";
    return Decls;
  }

  /// Applies 1..3 random structured edits to main's statement list.
  void mutate() {
    int Edits = static_cast<int>(Rng.range(1, 3));
    for (int K = 0; K < Edits; ++K) {
      uint64_t Kind = Rng.below(3);
      if (Kind == 0 || MainStmts.empty()) {
        MainStmts.insert(MainStmts.begin() +
                             static_cast<long>(
                                 Rng.below(MainStmts.size() + 1)),
                         makeStatement());
      } else if (Kind == 1) {
        MainStmts[Rng.below(MainStmts.size())] = makeStatement();
      } else {
        MainStmts.erase(MainStmts.begin() +
                        static_cast<long>(Rng.below(MainStmts.size())));
      }
    }
  }

  /// Applies one random edit to the program's declarations or to a
  /// procedure, and says which: "<kind>: <detail>". Procedures (`kN`) are
  /// functions main calls as statements; the edits add them. Added globals
  /// (`xN`) are read only as `xN[0]`, which lowers alike for a scalar and
  /// an array.
  std::string structuralEdit() {
    switch (Rng.below(6)) {
    case 0: {
      // Remove an added global no procedure reads, or insert one.
      std::vector<size_t> Unread;
      for (size_t G : addedGlobals())
        if (!isRead(Globals[G].Name))
          Unread.push_back(G);
      if (!Unread.empty() && Rng.chance(1, 2)) {
        size_t G = Unread[Rng.below(Unread.size())];
        std::string Name = Globals[G].Name;
        Globals.erase(Globals.begin() + static_cast<long>(G));
        return format("remove global: %s", Name.c_str());
      }
      return insertGlobal();
    }
    case 1: {
      // Prefer a global a procedure reads: its readers' text is unchanged.
      std::vector<size_t> Added = addedGlobals(), Read;
      for (size_t G : Added)
        if (isRead(Globals[G].Name))
          Read.push_back(G);
      if (Added.empty())
        return insertGlobal();
      const std::vector<size_t> &From = Read.empty() ? Added : Read;
      Global &G = Globals[From[Rng.below(From.size())]];
      G.ArraySize = G.ArraySize > 0 ? 0 : static_cast<int>(Rng.range(2, 4));
      return format("%s: %s",
                    G.ArraySize ? "scalar to array" : "array to scalar",
                    G.Name.c_str());
    }
    case 2: {
      if (Procs.empty())
        return insertProc();
      Proc &P = Procs[Rng.below(Procs.size())];
      bool Add = P.Params == 0 || (P.Params < 4 && Rng.chance(1, 2));
      P.Params += Add ? 1 : -1;
      return format("parameters: %s takes %d", P.Name.c_str(), P.Params);
    }
    case 3: {
      if (Procs.empty())
        return insertProc();
      Proc &P = Procs[Rng.below(Procs.size())];
      P.ReturnsInt = !P.ReturnsInt;
      return format("return kind: %s returns %s", P.Name.c_str(),
                    P.ReturnsInt ? "int" : "void");
    }
    case 4: {
      if (Rng.chance(1, 2))
        return insertProc();
      size_t A = Rng.below(Order.size()), B = Rng.below(Order.size());
      std::swap(Order[A], Order[B]);
      return format("swap functions: %s, %s", Order[B].c_str(),
                    Order[A].c_str());
    }
    default: {
      if (Procs.empty())
        return insertProc();
      Proc &P = Procs[Rng.below(Procs.size())];
      P.Body.insert(P.Body.begin() +
                        static_cast<long>(Rng.below(P.Body.size() + 1)),
                    makeProcStatement(/*ControlFlow=*/true));
      return format("control flow: %s", P.Name.c_str());
    }
    }
  }

private:
  struct Global {
    std::string Name;
    int ArraySize = 0; ///< 0 for a scalar
    int Init = -1;     ///< initializer of a scalar; -1 for none
  };
  struct Proc {
    std::string Name;
    int Params = 0;
    bool ReturnsInt = false;
    std::vector<std::string> Body;
  };

  std::string mainText() const {
    std::string Out = "void main() {\n";
    Out += "  int a = 1;\n  int b = 2;\n  int c = 3;\n";
    for (const std::string &S : MainStmts)
      Out += S;
    const char *Args[] = {"a", "b", "c", "7"};
    for (const Proc &P : Procs) {
      Out += format("  %s(", P.Name.c_str());
      for (int K = 0; K < P.Params; ++K)
        Out += format("%s%s", K ? ", " : "", Args[K]);
      Out += ");\n";
    }
    for (int G = 0; G < NumGlobals; ++G)
      Out += format("  __out(15, g%d);\n", G);
    Out += "  __out(15, a + b + c);\n  __halt();\n}\n";
    return Out;
  }

  std::string procText(const Proc &P) const {
    std::string Params, Sum = "1";
    for (int K = 0; K < P.Params; ++K) {
      Params += format("%sint p%d", K ? ", " : "", K);
      Sum += format(" + p%d", K);
    }
    std::string Out = format("%s %s(%s) {\n  int t = %s;\n",
                             P.ReturnsInt ? "int" : "void", P.Name.c_str(),
                             Params.c_str(), Sum.c_str());
    for (const std::string &S : P.Body)
      Out += S;
    Out += P.ReturnsInt ? "  return t;\n}\n" : "  g0 = g0 + t;\n}\n";
    return Out;
  }

  const Proc *findProc(const std::string &Name) const {
    for (const Proc &P : Procs)
      if (P.Name == Name)
        return &P;
    return nullptr;
  }

  /// The positions of the globals structuralEdit() added.
  std::vector<size_t> addedGlobals() const {
    std::vector<size_t> Added;
    for (size_t G = 0; G < Globals.size(); ++G)
      if (Globals[G].Name[0] == 'x')
        Added.push_back(G);
    return Added;
  }

  /// Whether a procedure reads the added global \p Name.
  bool isRead(const std::string &Name) const {
    for (const Proc &P : Procs)
      for (const std::string &S : P.Body)
        if (S.find(Name + "[") != std::string::npos)
          return true;
    return false;
  }

  /// Inserts a new global, a scalar or an array, at a random position.
  std::string insertGlobal() {
    size_t At = Rng.below(Globals.size() + 1);
    std::string Name = format("x%d", NextGlobal++);
    int Size = Rng.chance(1, 2) ? static_cast<int>(Rng.range(2, 4)) : 0;
    Globals.insert(Globals.begin() + static_cast<long>(At), {Name, Size, -1});
    return format("insert global: %s at %zu", Name.c_str(), At);
  }

  /// Inserts a new procedure at a random position.
  std::string insertProc() {
    Proc P;
    P.Name = format("k%d", NextProc++);
    P.Params = static_cast<int>(Rng.range(0, 3));
    P.ReturnsInt = Rng.chance(1, 2);
    P.Body.push_back(makeProcStatement(/*ControlFlow=*/false));
    size_t At = Rng.below(Order.size() + 1);
    Order.insert(Order.begin() + static_cast<long>(At), P.Name);
    Procs.push_back(std::move(P));
    return format("insert function: %s at %zu", Procs.back().Name.c_str(),
                  At);
  }

  /// A value a procedure body reads: a literal, an original global or an
  /// added one.
  std::string procValue() {
    std::vector<size_t> Added = addedGlobals();
    switch (Rng.below(Added.empty() ? 2 : 3)) {
    case 0:
      return format("%d", static_cast<int>(Rng.range(1, 9)));
    case 1:
      return format("g%d", static_cast<int>(
                               Rng.below(static_cast<uint64_t>(NumGlobals))));
    default:
      return Globals[Added[Rng.below(Added.size())]].Name + "[0]";
    }
  }

  std::string makeProcStatement(bool ControlFlow) {
    if (!ControlFlow)
      return format("  t = t + %s;\n", procValue().c_str());
    if (Rng.chance(1, 2))
      return format("  if ((t & 1) != 0) {\n    t = t - %s;\n  }\n",
                    procValue().c_str());
    int L = LoopCounter++;
    int Trips = static_cast<int>(Rng.range(2, 4));
    std::string V = procValue();
    return format("  {\n    int L%d;\n    for (L%d = 0; L%d < %d; L%d = L%d "
                  "+ 1) {\n      t = t + %s;\n    }\n  }\n",
                  L, L, L, Trips, L, L, V.c_str());
  }

  std::string randomValue(int Depth = 0) {
    switch (Rng.below(Depth >= 2 ? 3 : 5)) {
    case 0:
      return format("%d", static_cast<int>(Rng.range(0, 99)));
    case 1:
      return format("g%d", static_cast<int>(
                               Rng.below(static_cast<uint64_t>(NumGlobals))));
    case 2: {
      const char *Locals[] = {"a", "b", "c"};
      return Locals[Rng.below(3)];
    }
    case 3: {
      const char *Ops[] = {"+", "-", "*", "&", "|", "^"};
      return format("(%s %s %s)", randomValue(Depth + 1).c_str(),
                    Ops[Rng.below(6)], randomValue(Depth + 1).c_str());
    }
    default:
      return format("h%d(%s, %s)",
                    static_cast<int>(
                        Rng.below(static_cast<uint64_t>(NumHelpers))),
                    randomValue(Depth + 1).c_str(),
                    randomValue(Depth + 1).c_str());
    }
  }

  std::string randomTarget() {
    if (Rng.chance(1, 2))
      return format("g%d", static_cast<int>(
                               Rng.below(static_cast<uint64_t>(NumGlobals))));
    const char *Locals[] = {"a", "b", "c"};
    return Locals[Rng.below(3)];
  }

  std::string makeStatement() {
    switch (Rng.below(4)) {
    case 0:
      return format("  %s = %s;\n", randomTarget().c_str(),
                    randomValue().c_str());
    case 1:
      return format("  __out(15, %s);\n", randomValue().c_str());
    case 2:
      return format("  if ((%s & 3) != 0) {\n    %s = %s;\n  } else {\n"
                    "    %s = %s;\n  }\n",
                    randomValue().c_str(), randomTarget().c_str(),
                    randomValue().c_str(), randomTarget().c_str(),
                    randomValue().c_str());
    default: {
      int LoopVar = LoopCounter++;
      return format("  {\n    int L%d;\n    for (L%d = 0; L%d < %d; "
                    "L%d = L%d + 1) {\n      %s = %s + L%d;\n    }\n  }\n",
                    LoopVar, LoopVar, LoopVar,
                    static_cast<int>(Rng.range(2, 6)), LoopVar, LoopVar,
                    randomTarget().c_str(), randomTarget().c_str(),
                    LoopVar);
    }
    }
  }

  std::string makeHelper(int Idx) {
    return format("int h%d(int p, int q) {\n"
                  "  int t = (p %s %d) ^ q;\n"
                  "  if (t < 0) {\n    t = 0 - t;\n  }\n"
                  "  return t & 0xff;\n"
                  "}\n",
                  Idx, Rng.chance(1, 2) ? "+" : "*",
                  static_cast<int>(Rng.range(1, 9)));
  }

  RNG Rng;
  int NumGlobals = 0;
  int NumHelpers = 0;
  int LoopCounter = 0;
  int NextGlobal = 0;
  int NextProc = 0;
  std::vector<std::string> Helpers;
  std::vector<std::string> MainStmts;
  std::vector<Global> Globals; ///< in source order
  std::vector<Proc> Procs;     ///< in the order they were added
  std::vector<std::string> Order; ///< function names in source order
};

} // namespace ucc

#endif // UCC_TESTS_PROGRAMGEN_H
