//===- core/CompileCache.h - function-level compilation cache -------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function-level compilation cache for incremental recompilation, in
/// two parts.
///
/// The front half's table holds the optimized IR of every function of the
/// most recent compile that went through the cache (one module). The next
/// compile still lexes the file and parses its top level; a function
/// whose key (buildFrontKey: its source text, start column, IRGen's block
/// counter before it, the module's signature digest and its index)
/// matches the table's entry at its index is copied from the table with
/// its source lines shifted, and skips parsing, lowering, verification
/// and optimization. Every other function runs them and enters the table.
///
/// The back half's LRU memoizes the whole per-function back-half pipeline
/// result — instruction selection, register allocation, and frame layout —
/// keyed by an FNV-1a content hash over a canonical byte encoding of
/// everything that can influence that result:
///
///   * the function's post-opt IR (name, params, vregs, frame objects,
///     blocks, every instruction field except source locations),
///   * the back-half compile options (RA/DA kinds, every UccAllocOptions
///     field including the energy-model-derived costs, UccDaOptions),
///   * the per-statement frequency vector fed to UCC-RA,
///   * a digest of the new module's global/function name tables (CALL and
///     global accesses compare names across versions via these tables),
///   * and the relevant slice of the old CompilationRecord: the previous
///     final machine code for this function, its old frame offsets, and
///     the old name-table digest — or an explicit "absent" marker.
///
/// The cache itself is a support/MemoCache: the full canonical key bytes
/// confirm every hit under an FNV-1a bucket hash, an in-flight latch makes
/// two threads that want the same function compile it once, and an LRU
/// bounds the resident entries. This file keeps the back half's key
/// encoding and name digests, and the front half's key and table.
///
/// Because the key captures every input, a hit returns a result that is
/// byte-identical to what a fresh compile would produce — the determinism
/// contract (same output at jobs 1 vs 8, cache on vs off) holds by
/// construction and is enforced by JobsDeterminismTest and
/// CompileCacheTest.
///
/// What misses. The name digest is in every back-half key and the
/// signature digest in every front-half key, so inserting, removing or
/// renaming any global or function misses every function, and so does a
/// parameter-count or return-kind edit in the front half. Block names are
/// numbered module-wide, so a control-flow edit renames the blocks of
/// every later function, which then miss in both halves. A function
/// compiled against a different old version of itself misses the back
/// half once more at the next commit. Measured on perfbench
/// `release-train`'s seed-1 chain, 2130 of 3417 back-half lookups hit
/// (0.62); docs/PERFORMANCE.md has the front half's numbers.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_CORE_COMPILECACHE_H
#define UCC_CORE_COMPILECACHE_H

#include "codegen/BinaryImage.h"
#include "codegen/MachineIR.h"
#include "ir/IR.h"
#include "regalloc/UccAlloc.h"
#include "support/MemoCache.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace ucc {

struct ProgramAST;

/// Exact cache accounting, mirrored into `compile.*` telemetry counters by
/// the compiler back half.
using CompileCacheStats = MemoCounts;

/// The memoized per-function pipeline result.
struct CompiledFunction {
  MachineFunction Final; ///< post-RA machine code (incl. spill slots)
  FrameLayout Frame;     ///< frame layout for Final
  UccAllocStats Stats;   ///< deterministic allocator statistics
};

/// Inputs to the canonical key encoding for one function. Pointers refer
/// to the caller's data and must stay valid for the buildCompileKey call.
struct CompileKeyInputs {
  const Function *F = nullptr; ///< post-opt IR for this function
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
  uint64_t NewNamesDigest = 0; ///< digest of the new module name tables
  /// Old-record slice: previous final code for this function (null when
  /// the function is new or there is no old record).
  const MachineFunction *OldFinal = nullptr;
  /// Previous frame offsets row; read only when UccFrames.
  const std::vector<int> *OldFrameOffsets = nullptr;
  uint64_t OldNamesDigest = 0; ///< digest of the old name tables (0 = none)
};

/// Digest of a module's global + function name tables (order-sensitive,
/// length-prefixed FNV-1a). Computed once per compile and folded into
/// every function's key.
uint64_t digestNameTables(const std::vector<std::string> &GlobalNames,
                          const std::vector<std::string> &FunctionNames);

/// Same digest computed straight from a module's globals and functions
/// (no intermediate string-table copies).
uint64_t digestModuleNames(const Module &M);

/// Digest of the signature table that lowering a function body reads:
/// the globals in order (name, array size) and the functions in order
/// (name, parameter count, return kind).
uint64_t digestSignatures(const ProgramAST &Program);

/// One function of the front half's table: the optimized IR a compile
/// built for it and the key it was built under.
struct FrontFunction {
  std::vector<uint8_t> Key; ///< CompileCache::buildFrontKey
  Function IR;              ///< post-opt IR, source lines as of StartLine
  unsigned StartLine = 0;   ///< the line the function's source began on
  int BlockCount = 0;       ///< blocks its lowering numbered
};

/// The front half's table: the functions of the most recent compile that
/// stored one, by function index.
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
  /// can never alias two functions).
  static Key buildKey(const CompileKeyInputs &In);

  /// Returns the cached result for \p K, computing it with \p Compute on
  /// a miss. Concurrent callers with the same key are latched: one
  /// computes, the rest wait and share the result. \p WasHit (optional)
  /// reports whether this lookup was answered from the cache.
  CompiledFunction
  lookupOrCompute(const Key &K,
                  const std::function<CompiledFunction()> &Compute,
                  bool *WasHit = nullptr);

  /// The front half's key for function \p Index: its source \p Text (return
  /// type through closing brace), its start column, IRGen's block counter
  /// before lowering it, the module's signature digest and \p Index. Equal
  /// keys lower and optimize to equal IR up to a shift of every source
  /// line. The index makes the table's slot \p Index the only candidate.
  static Key buildFrontKey(std::string_view Text, unsigned StartCol,
                           int BlockBase, uint64_t SignatureDigest,
                           size_t Index);

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
