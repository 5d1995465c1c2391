//===- perfbench/src/Firmware.h - seeded firmware and its releases --------===//
//
// The benchmark's input generator. A firmware is held as a small program
// model (globals, functions, statements, expressions) that the benchmark
// owns: it is rendered to MiniC text for the library, edited release by
// release with the paper's Fig. 9 edit kinds, and executed by a reference
// evaluator written from the 16-bit rules of docs/LANGUAGE.md. The
// evaluator shares no code with the library, so a patched image whose
// simulator trace matches it is checked independently of the compiler
// under test.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FIRMWARE_H
#define PERFBENCH_FIRMWARE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// splitmix64: the benchmark's own deterministic generator, so inputs do
/// not depend on any library code.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, Bound); Bound must be positive.
  int below(int Bound) {
    return static_cast<int>(next() % static_cast<uint64_t>(Bound));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

struct Expr {
  enum Kind : uint8_t { Const, Var, Bin };
  Kind K = Const;
  int16_t C = 0;      ///< Const
  std::string Name;   ///< Var
  std::string Op;     ///< Bin operator text
  std::vector<Expr> Kids;
};

struct Stmt {
  enum Kind : uint8_t { Assign, Call, If, Loop, Out, Radio, Return };
  Kind K = Assign;
  std::string Target;      ///< Assign / Call result / Loop counter
  std::string Callee;      ///< Call
  int Port = 0;            ///< Out
  int Count = 0;           ///< Loop trip count
  std::vector<Expr> Exprs; ///< rhs, call args, condition, value or words
  std::vector<Stmt> Body, Else;
  bool Removable = false;  ///< inserted by an instruction edit
};

struct Local {
  std::string Name;
  int16_t Init = 0;
};

struct Function {
  std::string Name;
  bool ReturnsInt = true;
  bool StraightLine = false; ///< a kernel: one basic block, ILP-sized
  std::vector<std::string> Params;
  std::vector<Local> Locals;
  std::vector<Stmt> Body;
};

struct Program {
  std::vector<Local> Globals;
  std::vector<Function> Functions; ///< callees first, main last
  int Releases = 0; ///< releases applied so far
  int Edits = 0;    ///< edits applied so far
  int Attempts = 0; ///< edit sites tried so far
};

/// The Fig. 9 edit kinds a release draws from.
enum EditKind : int {
  EditConstant,
  EditVariable,
  EditInstruction,
  EditParameter,
  EditControlFlow,
  EditGlobal,
  NumEditKinds
};
const char *editKindName(int Kind);

/// A firmware of fixed shape (6 straight-line kernels, 10 loop stages and
/// `main`), so that timings are comparable across seeds, while every
/// constant, operator and operand is drawn from \p Seed.
Program generateFirmware(uint64_t Seed);

/// Applies the next release to \p P: 1, 2 or 3 edits in turn, their kinds
/// in a fixed rotation through all six and their functions in a fixed
/// rotation through all of them, each at a seeded site with seeded values.
/// Counts each applied kind in \p Hist.
void applyRelease(Program &P, Rng &R, std::array<int, NumEditKinds> &Hist);

std::string render(const Program &P);

/// What a run of the firmware shows to the outside: the same fields the
/// simulator traces.
struct Observed {
  std::vector<int16_t> Led, Debug;
  std::vector<std::vector<int16_t>> Packets;
  bool operator==(const Observed &O) const {
    return Led == O.Led && Debug == O.Debug && Packets == O.Packets;
  }
};

/// The reference evaluator (docs/LANGUAGE.md semantics: 16-bit wrapping
/// arithmetic, arithmetic `>>`, division and remainder by zero yield 0,
/// comparisons give 0/1, `&&`/`||` short-circuit).
Observed evaluate(const Program &P);

/// Counts of the generated shape, for the traffic report.
int countStraightLine(const Program &P);

} // namespace pb

#endif // PERFBENCH_FIRMWARE_H
