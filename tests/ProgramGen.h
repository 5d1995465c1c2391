//===- tests/ProgramGen.h - random MiniC programs with structured edits ---===//
//
// The generator behind the randomized end-to-end update tests
// (FuzzPipelineTest) and the optimizer's pinned-output corpus (OptTest).
// Programs always terminate; a seed fixes both the program and every edit
// mutate() applies to it.
//
//===----------------------------------------------------------------------===//

#ifndef UCC_TESTS_PROGRAMGEN_H
#define UCC_TESTS_PROGRAMGEN_H

#include "support/Format.h"
#include "support/RNG.h"

#include <string>
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
  }

  /// Renders the current program.
  std::string render() const {
    std::string Out;
    for (int G = 0; G < NumGlobals; ++G)
      Out += format("int g%d = %d;\n", G, G * 3 + 1);
    for (const std::string &H : Helpers)
      Out += H + "\n";
    Out += "void main() {\n";
    Out += "  int a = 1;\n  int b = 2;\n  int c = 3;\n";
    for (const std::string &S : MainStmts)
      Out += S;
    for (int G = 0; G < NumGlobals; ++G)
      Out += format("  __out(15, g%d);\n", G);
    Out += "  __out(15, a + b + c);\n  __halt();\n}\n";
    return Out;
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

private:
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
  std::vector<std::string> Helpers;
  std::vector<std::string> MainStmts;
};

} // namespace ucc

#endif // UCC_TESTS_PROGRAMGEN_H
