//===- diff/ImageDiff.h - whole-image diffing and update packages ---------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function-granular diffing of two binary images and the full update
/// package a sink disseminates: per-function edit scripts (functions are
/// aligned by name; SAVR encodes branch targets function-relative and calls
/// by table index, so surviving functions diff cleanly no matter how their
/// neighbors grew — but not when a function is inserted or removed: table
/// indices follow source order, so every call to a function after the
/// insertion point changes its immediate), the new function order, the
/// data-segment delta and the entry point. `applyUpdate` is the complete sensor-side reprogramming
/// step; the tests verify it reproduces the freshly compiled image bit for
/// bit.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_DIFF_IMAGEDIFF_H
#define UCC_DIFF_IMAGEDIFF_H

#include "codegen/BinaryImage.h"
#include "diff/EditScript.h"

#include <string>
#include <vector>

namespace ucc {

/// Diff metrics for one function (aligned by name).
struct FunctionDiff {
  std::string Name;
  int OldCount = 0; ///< instructions in the old version (0 = new function)
  int NewCount = 0; ///< instructions in the new version (0 = removed)
  int Matched = 0;  ///< reused instructions (the script's copies)

  /// The paper's Diff_inst: instructions of the new version that must be
  /// transmitted.
  int diffInst() const { return NewCount - Matched; }
};

/// Diff metrics for a whole image.
struct ImageDiff {
  std::vector<FunctionDiff> Functions;
  int DataWordsChanged = 0;

  int totalDiffInst() const;
  int totalMatched() const;
  int totalNewCount() const;
  const FunctionDiff *find(const std::string &Name) const;
};

/// The transmissible update package.
struct ImageUpdate {
  /// One entry per function of the *new* image, in order.
  struct FunctionUpdate {
    std::string Name;
    bool IsNew = false;      ///< no old function of this name
    EditScript Script;       ///< vs. the old function (empty for IsNew)
    std::vector<uint32_t> NewCode; ///< full code when IsNew
  };
  std::vector<FunctionUpdate> Functions;
  EditScript DataScript; ///< transforms the old DataInit (as words)
  int EntryFunc = -1;

  /// Total bytes on air: scripts + new-function code + bookkeeping bytes
  /// (1 byte per function-table entry + names of new functions).
  size_t scriptBytes() const;

  /// Wire format for storing/disseminating the package.
  std::vector<uint8_t> serialize() const;
  static bool deserialize(const std::vector<uint8_t> &Bytes,
                          ImageUpdate &Out);
};

/// Builds the update package turning \p Old into \p New. Per-function
/// scripts are diffed on up to \p Jobs threads (0 =
/// ThreadPool::defaultJobs()) and merged in function order, so the
/// package bytes and the `diff.*` counters are identical for every job
/// count.
ImageUpdate makeImageUpdate(const BinaryImage &Old, const BinaryImage &New,
                            int Jobs = 0);

/// The Diff_inst metrics of \p U, the package turning \p Old into \p New:
/// per function, the words its script copies are Matched, and the words
/// it inserts or replaces (or all of NewCode, for a new function) ship.
/// Removed functions and DataWordsChanged come from the two images.
ImageDiff diffImages(const BinaryImage &Old, const BinaryImage &New,
                     const ImageUpdate &U);

/// diffImages over makeImageUpdate(Old, New, Jobs): for a caller that does
/// not keep the package.
ImageDiff diffImages(const BinaryImage &Old, const BinaryImage &New,
                     int Jobs = 0);

/// Composes two update packages: \p Out turns \p Base directly into the
/// image that applying \p First and then \p Second yields. Per-function
/// scripts compose pairwise (composeEditScripts), so a word ships only if
/// it survived the whole chain; functions introduced mid-chain ship as
/// full code. This is the stepwise route a version-chain planner compares
/// against a fresh endpoint diff. Returns false when either package does
/// not apply.
bool composeImageUpdates(const BinaryImage &Base, const ImageUpdate &First,
                         const ImageUpdate &Second, ImageUpdate &Out);

/// Sensor-side reprogramming: applies \p Update to \p Old. Returns false if
/// the package does not fit the old image or carries a data-segment word
/// wider than 16 bits.
bool applyUpdate(const BinaryImage &Old, const ImageUpdate &Update,
                 BinaryImage &Out);

//===----------------------------------------------------------------------===//
// Out-of-order dissemination (section 2.2)
//===----------------------------------------------------------------------===//
//
// "The packets may also be grouped so that when remote sensors receive
// groups out of order, they are still able to perform updates independent
// of the receiving order." An ImageUpdate splits into one group per
// function plus one group for the data segment and entry point; an
// UpdateAssembler on the sensor accepts groups in any order (duplicates
// are idempotent) and materializes the new image once all have arrived.

/// One independently applicable piece of an update.
struct UpdateGroup {
  int SeqNo = 0;       ///< position of this group within the update
  int TotalGroups = 0; ///< how many groups make up the whole update
  bool IsData = false; ///< data-segment + entry group (always the last)
  ImageUpdate::FunctionUpdate Fn; ///< valid when !IsData
  EditScript DataScript;          ///< valid when IsData
  int EntryFunc = -1;             ///< valid when IsData
};

/// Splits \p Update into its groups (functions in order, data last).
std::vector<UpdateGroup> splitIntoGroups(const ImageUpdate &Update);

/// Reassembles an update from groups arriving in arbitrary order.
class UpdateAssembler {
public:
  explicit UpdateAssembler(const BinaryImage &Old) : Old(Old) {}

  /// Accepts one group. Duplicate deliveries are fine; groups belonging
  /// to a different update (mismatched TotalGroups) are rejected.
  bool accept(const UpdateGroup &Group);

  /// True once every group of the update has arrived.
  bool complete() const;

  /// Builds the updated image. Requires complete().
  bool materialize(BinaryImage &Out) const;

private:
  const BinaryImage &Old;
  int Expected = -1;
  std::vector<bool> Seen;
  std::vector<UpdateGroup> Groups;
};

} // namespace ucc

#endif // UCC_DIFF_IMAGEDIFF_H
