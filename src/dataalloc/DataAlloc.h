//===- dataalloc/DataAlloc.h - data-layout strategies ----------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data allocation for globals and frames.
///
/// The baseline strategy mimics the gcc behavior the paper describes in
/// section 5.7: variables are laid out in symbol-hash-table iteration order
/// (hash of the *name*, chained buckets, newest first within a bucket), so
/// adding or renaming a variable can reshuffle the whole segment.
///
/// UCC-DA is the paper's threshold-based allocator (section 4): deleted
/// variables leave holes, new variables fill holes first, and leftover
/// holes are reclaimed by relocating each region's *last* variable, picking
/// the region maximizing Depth_j / Usage_j(last) (eq. 17) until the wasted
/// space satisfies sum(Extra_i * Depth_i) <= SpaceT (eq. 16).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_DATAALLOC_DATAALLOC_H
#define UCC_DATAALLOC_DATAALLOC_H

#include "codegen/BinaryImage.h"
#include "ir/IR.h"

#include <map>
#include <string>
#include <vector>

namespace ucc {

/// Which data-allocation strategy to use.
enum class DataAllocKind { BaselineHash, UpdateConscious };

/// A variable as seen by the region allocator.
struct RegionVar {
  std::string Name;
  int SizeWords = 1;
  int Usage = 1; ///< number of instructions referencing the variable
};

/// The layout a previous compilation chose for one region (globals segment
/// or a function frame).
struct OldRegionLayout {
  struct Entry {
    std::string Name;
    int Offset = 0;
    int SizeWords = 1;

    bool operator==(const Entry &) const = default;
  };
  std::vector<Entry> Entries;
  int Words = 0;

  const Entry *find(const std::string &Name) const;

  bool operator==(const OldRegionLayout &) const = default;
};

/// One region to lay out: the current variable set plus the old layout.
struct RegionSpec {
  std::vector<RegionVar> Vars; ///< variables of the *new* program version
  OldRegionLayout Old;         ///< empty entries = initial compilation
  int Depth = 1;               ///< projected simultaneous instances (paper's Depth_i)
};

/// Result of laying out one region.
struct RegionLayout {
  std::map<std::string, int> Offsets;
  int Words = 0;         ///< region size including residual holes
  int HoleWords = 0;     ///< words still wasted after reclamation
  int RelocatedVars = 0; ///< variables moved to fill holes
};

/// Options for UCC-DA.
struct UccDaOptions {
  int SpaceT = 0; ///< eq. 16 threshold on sum(Extra_i * Depth_i)
};

/// Lays out \p Regions update-consciously. Regions are processed jointly so
/// the relocation step can choose the best region per eq. 17.
std::vector<RegionLayout>
allocateRegionsUpdateConscious(const std::vector<RegionSpec> &Regions,
                               const UccDaOptions &Opts);

/// Baseline layout of one region in hash-table iteration order.
RegionLayout allocateRegionBaseline(const std::vector<RegionVar> &Vars);

//===----------------------------------------------------------------------===//
// Module-level convenience wrappers used by the compiler driver
//===----------------------------------------------------------------------===//

/// Counts, per global, how many IR instructions reference it (`Usage`).
std::vector<int> globalUsageCounts(const Module &M);

/// Lays out \p M's globals with the baseline strategy.
DataLayoutMap layoutGlobalsBaseline(const Module &M);

/// Lays out \p M's globals update-consciously against \p Old. Optionally
/// reports region statistics through \p StatsOut.
DataLayoutMap layoutGlobalsUpdateConscious(const Module &M,
                                           const OldRegionLayout &Old,
                                           const UccDaOptions &Opts,
                                           RegionLayout *StatsOut = nullptr);

/// Converts a computed global layout to the name-keyed form stored in
/// compilation records.
OldRegionLayout toOldLayout(const Module &M, const DataLayoutMap &DL);

/// Frame layout in declaration order (arrays first, spill slots after, as
/// created) — the update-oblivious baseline.
FrameLayout layoutFrame(const MachineFunction &MF);

/// Update-conscious frame layout: keeps surviving frame objects (matched
/// by their stable names) at their old word offsets, filling holes with
/// new objects per the section 4 algorithm. \p OldObjects/\p OldOffsets
/// describe the layout the deployed image uses.
FrameLayout layoutFrameUpdateConscious(
    const MachineFunction &MF, const std::vector<MFrameObject> &OldObjects,
    const std::vector<int> &OldOffsets, const UccDaOptions &Opts);

} // namespace ucc

#endif // UCC_DATAALLOC_DATAALLOC_H
