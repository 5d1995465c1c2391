//===- core/CompileCache.h - function-level compilation cache -------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function-level compilation cache for incremental recompilation, in
/// two parts. Both are position-independent: a function's entry depends
/// on its own text and on the declarations it references, not on where
/// it or they sit in the module.
///
/// The front half's table holds the optimized IR of every function of the
/// most recent compile that went through the cache (one module), by
/// function name. The next compile still lexes the file and parses its
/// top level. A function whose text (return type through closing brace)
/// and start column equal its entry's, and whose referenced declarations
/// are declared alike (a global's name and array size; a callee's name,
/// parameter count and return kind), is copied from the table. The copy
/// is re-bound to the new global and callee indices and its source lines
/// are shifted; it skips parsing, lowering, verification and
/// optimization. Every other function runs them and enters the table.
///
/// The back half's LRU memoizes the whole per-function back-half pipeline
/// result — instruction selection, register allocation, and frame layout —
/// keyed by an FNV-1a content hash over a canonical byte encoding of
/// everything that can influence that result:
///
///   * the function's post-opt IR (name, params, vregs, frame objects,
///     blocks, every instruction field except source locations), with
///     each global and callee written as its position in the function's
///     first-use order (SymbolRefs) instead of its module index,
///   * the names those references resolve to (interned symbols; CALL and
///     global accesses compare names across versions),
///   * the back-half compile options (RA/DA kinds, every UccAllocOptions
///     field including the energy-model-derived costs, UccDaOptions),
///   * the per-statement frequency vector fed to UCC-RA,
///   * and the relevant slice of the old CompilationRecord: the previous
///     final machine code for this function, written the same way with
///     the old record's names, and its old frame offsets — or an explicit
///     "absent" marker.
///
/// A hit re-binds the result's MInstr::GlobalIdx and MInstr::Callee from
/// the module that computed it to this one; when both modules number the
/// references alike, it is used as it is.
///
/// The cache itself is a support/MemoCache: the full canonical key bytes
/// confirm every hit under an FNV-1a bucket hash, an in-flight latch makes
/// two threads that want the same function compile it once, and an LRU
/// bounds the resident entries. This file keeps the back half's key
/// encoding, the front half's table, and the re-binding both share.
///
/// Because the key captures every input, a hit returns a result that is
/// byte-identical to what a fresh compile would produce — the determinism
/// contract (same output at jobs 1 vs 8, cache on vs off) holds by
/// construction and is enforced by JobsDeterminismTest and
/// CompileCacheTest.
///
/// What misses. The front half misses a function whose text or start
/// column changed, or one of whose referenced declarations was removed,
/// renamed or redeclared differently (a global between scalar and array
/// or to another size, a callee's parameter count or return kind); the
/// callers of a changed callee miss with it. Inserting, removing or
/// reordering declarations misses nothing else, and neither does a
/// control-flow edit, because blocks are numbered per function. The back
/// half misses a function whose optimized IR or referenced names changed.
/// Under UCC-RA, a function compiled against a different old version of
/// itself misses once more at the next commit. Measured on perfbench
/// `release-train`'s seed-1 chain, docs/PERFORMANCE.md has both halves'
/// hit ratios.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_CORE_COMPILECACHE_H
#define UCC_CORE_COMPILECACHE_H

#include "codegen/BinaryImage.h"
#include "codegen/MachineIR.h"
#include "ir/IR.h"
#include "regalloc/UccAlloc.h"
#include "support/Interner.h"
#include "support/MemoCache.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ucc {

/// Exact cache accounting, mirrored into `compile.*` telemetry counters by
/// the compiler back half.
using CompileCacheStats = MemoCounts;

/// The module indices a function references, in first-use order (block
/// order, then instruction order; globals and callees apart).
struct SymbolRefs {
  std::vector<int> Globals; ///< Instr::Global / MInstr::GlobalIdx values
  std::vector<int> Callees; ///< Instr::Callee / MInstr::Callee values
  bool operator==(const SymbolRefs &O) const {
    return Globals == O.Globals && Callees == O.Callees;
  }
};

/// The references of \p F's instructions.
SymbolRefs collectRefs(const Function &F);

/// Rewrites every global and callee index of \p F that \p From lists to
/// the index at the same position of \p To (same lengths).
void rebind(Function &F, const SymbolRefs &From, const SymbolRefs &To);
/// The same for machine code.
void rebind(MachineFunction &MF, const SymbolRefs &From,
            const SymbolRefs &To);

/// The memoized per-function pipeline result.
struct CompiledFunction {
  MachineFunction Final; ///< post-RA machine code (incl. spill slots)
  FrameLayout Frame;     ///< frame layout for Final
  UccAllocStats Stats;   ///< deterministic allocator statistics
  /// The module indices Final names, in the key's first-use order.
  SymbolRefs Refs;
};

/// Inputs to the canonical key encoding for one function. Pointers refer
/// to the caller's data and must stay valid for the buildKey call.
struct CompileKeyInputs {
  const Function *F = nullptr; ///< post-opt IR for this function
  /// The new module's interned global and function names.
  const SymbolTable *GlobalNames = nullptr;
  const SymbolTable *FunctionNames = nullptr;
  uint8_t RAKind = 0;          ///< RegAllocKind as integer
  uint8_t DAKind = 0;          ///< DataAllocKind as integer
  bool UseUcc = false;         ///< UCC-RA active (UC RA + old record)
  bool UccFrames = false;      ///< update-conscious frame layout active
  /// Effective UCC-RA options (energy costs already injected); read only
  /// when UseUcc.
  const UccAllocOptions *Ucc = nullptr;
  int SpaceT = 0; ///< UccDaOptions::SpaceT
  /// Per-statement frequency estimates fed to UCC-RA; null when !UseUcc.
  const std::vector<double> *Freq = nullptr;
  /// Old-record slice: previous final code for this function (null when
  /// the function is new or there is no old record), and the old record's
  /// interned names, read only with it.
  const MachineFunction *OldFinal = nullptr;
  const SymbolTable *OldGlobalNames = nullptr;
  const SymbolTable *OldFunctionNames = nullptr;
  /// Previous frame offsets row; read only when UccFrames.
  const std::vector<int> *OldFrameOffsets = nullptr;
};

/// A declaration a front-half entry's lowering read, as it was declared.
struct DeclRef {
  std::string Name;
  /// A global's array size (0 for a scalar); a callee's parameter count.
  int Size = 0;
  bool ReturnsInt = false; ///< a callee's return kind
};

/// One function of the front half's table: the optimized IR a compile
/// built for it, what it was built from, and the declarations its
/// lowering read.
struct FrontFunction {
  std::string Text;       ///< source, return type through closing brace
  unsigned StartCol = 0;  ///< the column Text began on
  unsigned StartLine = 0; ///< the line Text began on
  Function IR;            ///< post-opt IR, source lines as of StartLine
  /// The module indices the lowered (pre-opt) IR referenced, in the
  /// module it was lowered in; IR's Global and Callee fields name these.
  SymbolRefs Refs;
  std::vector<DeclRef> Globals; ///< one per Refs.Globals entry
  std::vector<DeclRef> Callees; ///< one per Refs.Callees entry
};

/// The front half's table: the functions of the most recent compile that
/// stored one, in its order. A compile finds an entry by name.
using FrontTable = std::vector<std::shared_ptr<const FrontFunction>>;

/// Thread-safe LRU cache of per-function pipeline results, plus the front
/// half's table of the last compile's optimized functions.
class CompileCache {
public:
  /// Canonical key bytes; equality of keys implies equality of results.
  using Key = std::vector<uint8_t>;

  /// \p Capacity bounds the back half's resident entries; 0 disables
  /// their storage (every back-half lookup misses). The front half's
  /// table always holds the last compile.
  explicit CompileCache(size_t Capacity = 1024) : Memo(Capacity) {}

  /// Builds the canonical key for \p In (serialize + FNV-1a happens in
  /// lookupOrCompute; the key carries the full bytes so hash collisions
  /// can never alias two functions). \p Refs, when given, receives
  /// collectRefs(*In.F), the order the key numbers references in.
  static Key buildKey(const CompileKeyInputs &In, SymbolRefs *Refs = nullptr);

  /// Returns the cached result for \p K, computing it with \p Compute on
  /// a miss. Concurrent callers with the same key are latched: one
  /// computes, the rest wait and share the result. \p WasHit (optional)
  /// reports whether this lookup was answered from the cache.
  CompiledFunction
  lookupOrCompute(const Key &K,
                  const std::function<CompiledFunction()> &Compute,
                  bool *WasHit = nullptr);

  /// Snapshot of the front half's table; null before the first store.
  std::shared_ptr<const FrontTable> frontTable() const;

  /// Replaces the front half's table with \p Table and accounts the
  /// compile's lookups.
  void storeFrontTable(std::shared_ptr<const FrontTable> Table, uint64_t Hits,
                       uint64_t Misses);

  /// Exact accounting snapshot of the per-function back half.
  CompileCacheStats stats() const;

  /// Front-half accounting: function lookups that hit or missed the table,
  /// and the functions it holds (Entries).
  CompileCacheStats frontStats() const;

  /// Drops every completed entry (in-flight entries survive) and the front
  /// half's table, and resets nothing else; accounting keeps accumulating.
  void clear();

private:
  MemoCache<Key, CompiledFunction> Memo;
  mutable std::mutex FrontLock; ///< guards the three fields below
  std::shared_ptr<const FrontTable> Front;
  uint64_t FrontHits = 0, FrontMisses = 0;
};

} // namespace ucc

#endif // UCC_CORE_COMPILECACHE_H
