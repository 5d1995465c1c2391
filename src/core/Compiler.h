//===- core/Compiler.h - the update-conscious compiler driver -------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: the sink-side compiler of the
/// paper's Fig. 1. `compile` performs an initial compilation and records
/// its code-generation decisions; `recompile` compiles an updated source
/// either update-obliviously (the GCC-RA/GCC-DA baseline) or update-
/// consciously against the stored record (UCC-RA/UCC-DA); `makeUpdate`
/// summarizes the binary difference as the edit script a sensor applies
/// (Fig. 2).
///
/// Typical use:
/// \code
///   DiagnosticEngine Diag;
///   auto V1 = Compiler::compile(SourceV1, {}, Diag);
///   CompileOptions Opts;
///   Opts.RA = RegAllocKind::UpdateConscious;
///   Opts.DA = DataAllocKind::UpdateConscious;
///   auto V2 = Compiler::recompile(SourceV2, V1->Record, Opts, Diag);
///   UpdatePackage Pkg = makeUpdate(*V1, *V2);
///   // Pkg.ScriptBytes go over the radio; sensors run applyUpdate().
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef UCC_CORE_COMPILER_H
#define UCC_CORE_COMPILER_H

#include "codegen/BinaryImage.h"
#include "core/Record.h"
#include "dataalloc/DataAlloc.h"
#include "diff/ImageDiff.h"
#include "energy/EnergyModel.h"
#include "regalloc/UccAlloc.h"
#include "support/Diagnostics.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ucc {

class CompileCache;

/// Which register allocator a recompilation uses.
enum class RegAllocKind { Baseline, UpdateConscious };

/// Compiler configuration.
struct CompileOptions {
  RegAllocKind RA = RegAllocKind::Baseline;
  DataAllocKind DA = DataAllocKind::BaselineHash;
  UccAllocOptions Ucc;   ///< UCC-RA knobs (K, Cnt, strategy, splits)
  UccDaOptions UccDa;    ///< UCC-DA knobs (SpaceT)
  EnergyModel Energy;    ///< fills the UCC cost terms
  /// Measured `freq(s)` per function name (index = IR statement index).
  /// When a function has an entry here, UCC-RA uses it instead of the
  /// static loop-depth estimate. Build one with
  /// profiledStatementFrequencies().
  std::map<std::string, std::vector<double>> ProfiledFreq;
  /// Worker threads for the per-function register-allocation loop
  /// (independent UCC-RA problems). 0 = ThreadPool::defaultJobs()
  /// (`--jobs` / UCC_JOBS / hardware concurrency); 1 = serial. Results
  /// are bit-identical for every value (docs/PERFORMANCE.md).
  int Jobs = 0;
  /// Optional function-level compilation cache (core/CompileCache.h).
  /// When set, unchanged functions skip isel -> RA -> frame layout on
  /// recompiles; results are byte-identical with the cache on or off.
  /// Non-owning — the caller keeps the cache alive across compiles (the
  /// serving layer owns one per store).
  CompileCache *Cache = nullptr;
};

/// Everything a compilation produces.
struct CompileOutput {
  Module IR;                ///< optimized IR
  BinaryImage Image;
  /// What the sink stores for next time. Its FinalCode is the final,
  /// register-allocated machine code and its GlobalLayout the data layout
  /// the image was encoded with.
  CompilationRecord Record;
  std::vector<UccAllocStats> RegAllocStats; ///< per function (UCC runs)
  RegionLayout DataAllocStats;              ///< UCC-DA region statistics
  /// Per function, the originating IR-statement index of every encoded
  /// instruction (-1 for compiler-inserted code). Bridges simulator
  /// profiles back to `freq(s)`.
  std::vector<std::vector<int>> EncodedIRIndex;
};

/// The compiler facade.
class Compiler {
public:
  /// Initial compilation (no previous decisions).
  static std::optional<CompileOutput> compile(const std::string &Source,
                                              const CompileOptions &Opts,
                                              DiagnosticEngine &Diag);

  /// Compiles updated \p Source against \p OldRecord. With
  /// RegAllocKind::Baseline this is the update-oblivious baseline (the
  /// record is ignored except for UCC-DA when selected).
  static std::optional<CompileOutput>
  recompile(const std::string &Source, const CompilationRecord &OldRecord,
            const CompileOptions &Opts, DiagnosticEngine &Diag);
};

/// The dissemination-ready summary of one update.
struct UpdatePackage {
  ImageUpdate Update;  ///< per-function edit scripts + data delta
  ImageDiff Diff;      ///< Diff_inst metrics, read off Update
  size_t ScriptBytes = 0;
};

/// Builds the update package from two compilations. Per-function diffing
/// runs on up to \p Jobs threads (0 = ThreadPool::defaultJobs()); the
/// package is byte-identical for every job count.
UpdatePackage makeUpdate(const CompileOutput &Old, const CompileOutput &New,
                         int Jobs = 0);

/// Converts a profiled simulator run of \p Out's image into measured
/// `freq(s)` tables (per function name, indexed by IR statement), suitable
/// for CompileOptions::ProfiledFreq. Counts are normalized so the entry
/// function's first statement has frequency 1; statements that never ran
/// get a small non-zero floor. The run must have been collected with
/// SimOptions::CollectProfile on the same image.
///
/// Profiles are measured on the *deployed* (old) version and applied to
/// the updated one — the paper's usage. Statement indices drift where the
/// source changed, so treat the result as the estimate it is; unchanged
/// regions (the ones whose allocation decisions matter) line up.
std::map<std::string, std::vector<double>>
profiledStatementFrequencies(const CompileOutput &Out,
                             const std::vector<uint64_t> &InstrCounts);

} // namespace ucc

#endif // UCC_CORE_COMPILER_H
