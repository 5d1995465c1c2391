//===- core/CompileCache.h - function-level compilation cache -------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function-level compilation cache for incremental recompilation. Each
/// entry memoizes the whole per-function back-half pipeline result —
/// instruction selection, register allocation, and frame layout — keyed by
/// an FNV-1a content hash over a canonical byte encoding of everything
/// that can influence that result:
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
/// bounds the resident entries. This file keeps only the key encoding
/// and the name digests.
///
/// Because the key captures every input, a hit returns a result that is
/// byte-identical to what a fresh compile would produce — the determinism
/// contract (same output at jobs 1 vs 8, cache on vs off) holds by
/// construction and is enforced by JobsDeterminismTest.
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
#include <vector>

namespace ucc {

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

/// Thread-safe LRU cache of per-function pipeline results.
class CompileCache {
public:
  /// Canonical key bytes; equality of keys implies equality of results.
  using Key = std::vector<uint8_t>;

  /// \p Capacity bounds resident entries; 0 disables storage (every
  /// lookup misses — useful for cache-off baselines with identical code
  /// paths).
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

  /// Exact accounting snapshot.
  CompileCacheStats stats() const;

  /// Drops every completed entry (in-flight entries survive) and resets
  /// nothing else; accounting keeps accumulating.
  void clear();

private:
  MemoCache<Key, CompiledFunction> Memo;
};

} // namespace ucc

#endif // UCC_CORE_COMPILECACHE_H
