//===- regalloc/UccAlloc.h - update-conscious register allocation ---------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// UCC-RA (paper section 3). The allocator aligns the new pre-allocation
/// machine code against the old final code from the CompilationRecord,
/// classifies instructions as changed/unchanged, groups them into chunks
/// with the threshold K (section 3.2), and then assigns registers giving
/// *preference* to each variable's old register. When the preferred
/// register is occupied during part of a live range, it weighs two plans
/// with the energy model exactly as section 3.1's example:
///
///   (a) use a different register everywhere — every unchanged instruction
///       that mentions the variable must be retransmitted
///       (cost ~ E_trans x #occurrences);
///   (b) split the live range and insert a `mov` so the unchanged uses keep
///       their old register (cost ~ E_trans for the mov itself plus
///       Cnt x freq x E_exe for executing it).
///
/// The greedy engine realizes this per variable (at most one split each,
/// guarded by a dominance check so the copy reaches every later use); the
/// ILP engine in UccIlpModel.h solves the paper's full 0/1 program for
/// bounded windows, and `Strategy::Hybrid` uses it when the function fits.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_REGALLOC_UCCALLOC_H
#define UCC_REGALLOC_UCCALLOC_H

#include "codegen/MachineIR.h"
#include "core/Record.h"
#include "regalloc/LinearScan.h"
#include "support/Interner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ucc {

/// How changed chunks are solved.
enum class UccStrategy {
  Greedy, ///< preference-guided interval assignment with cost-modeled splits
          ///< (the default)
  Hybrid  ///< the paper's 0/1 program when the function is straight-line
          ///< and the model fits IlpMaxBinaries, Greedy otherwise
};

/// Tuning knobs for UCC-RA.
struct UccAllocOptions {
  int ChunkK = 3;           ///< minimum unchanged-run length (section 3.2)
  double Cnt = 1000.0;      ///< expected executions before the code retires
  double EtransInstr = 0.0; ///< energy to transmit one instruction word
  double EexeCycle = 0.0;   ///< energy to execute one cycle
  bool EnableSplits = true; ///< ablation: allow live-range splits + movs
  UccStrategy Strategy = UccStrategy::Greedy;
  int IlpMaxBinaries = 400;      ///< model-size budget for the ILP engine
  double IlpTimeLimitSec = 10.0; ///< per-function ILP time budget
};

/// Statistics from one UCC-RA run. Mirrored into the telemetry registry
/// (the `ra.*` counters, see docs/OBSERVABILITY.md) when a TelemetryScope
/// is active, so one JSON trace aggregates every function's run.
struct UccAllocStats {
  int TotalInstrs = 0;
  int MatchedInstrs = 0;   ///< aligned against the old binary
  int ChangedChunks = 0;   ///< changed chunks after K-folding (section 3.2)
  int UnchangedChunks = 0; ///< unchanged runs that survived the K threshold
  int AnchorOccurrences = 0; ///< operand slots tied to a preferred register
  int PrefHonored = 0;
  int PrefBroken = 0;
  int InsertedMovs = 0;
  int SpilledVRegs = 0;
  bool UsedIlp = false;
  /// The rounds did not converge or failed validation, so the function
  /// was allocated by linear scan instead (`ra.ucc_fallbacks`).
  bool FellBack = false;
  int64_t IlpPivots = 0;
  /// Scratch bytes drawn from the per-run bump arena (deterministic for a
  /// given input; surfaced as the `compile.arena_bytes` gauge).
  int64_t ArenaBytes = 0;
};

/// Context resolving symbol identities across the two program versions.
/// Name tables are interned (support/Interner.h): the alignment inner loop
/// compares symbols — plain integers — instead of strings.
struct UccContext {
  const MachineFunction *OldFinal = nullptr; ///< null = new function
  const SymbolTable *OldGlobalNames = nullptr;
  const SymbolTable *OldFunctionNames = nullptr;
  const SymbolTable *NewGlobalNames = nullptr;
  const SymbolTable *NewFunctionNames = nullptr;
};

/// Runs UCC-RA on \p MF in place (same postcondition as
/// allocateLinearScan: all operands physical, provenance recorded).
/// \p Freq holds per-linear-position execution-frequency estimates of the
/// *pre-allocation* code (machineFrequencies); it is re-derived internally
/// after rewrites. Falls back to plain linear scan when the context has no
/// old code, and when the rounds do not converge or their allocation fails
/// validateAllocation (then \p MF is reallocated from its state on entry).
UccAllocStats allocateUcc(MachineFunction &MF, const UccContext &Ctx,
                          const UccAllocOptions &Opts,
                          const std::vector<double> &Freq);

/// Per-block dominator sets (bit B2 of result[B1] set when B2 dominates
/// B1). Exposed for tests.
std::vector<std::vector<bool>> computeDominators(const MachineFunction &MF);

} // namespace ucc

#endif // UCC_REGALLOC_UCCALLOC_H
