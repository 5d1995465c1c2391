//===- core/Record.h - the sink-side compilation record -------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CompilationRecord is what makes the compiler *update-conscious*
/// (paper section 2): the sink keeps, alongside each deployed image, the
/// code-generation decisions that produced it — the final register-
/// allocated machine code (with per-operand virtual-register provenance,
/// i.e. which variable each register held) and the data layout. When the
/// source is updated, the compiler recompiles against this record so the
/// new binary matches the old one wherever possible.
///
/// A stored version holds only the machine code it changed. FinalCode
/// holds each function behind a shared pointer to an immutable object,
/// and a record built against an older one (Compiler::recompile's old
/// record; VersionStore::open's parent record) shares every function
/// that equals the old record's same-named function. Cache hits share
/// the compile cache's object too (core/CompileCache.h), so a chain of
/// versions stores about one object per function edit, not one per
/// function per version. A record's functions are finished
/// (MachineFunction::finish): no VRegNames, containers sized to fit, so a
/// record equals its serialized round trip.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_CORE_RECORD_H
#define UCC_CORE_RECORD_H

#include "codegen/MachineIR.h"
#include "dataalloc/DataAlloc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ucc {

/// Everything the sink remembers about one compilation.
struct CompilationRecord {
  /// Old module's function names, in function-index order (resolves the
  /// Callee indices inside FinalCode across versions).
  std::vector<std::string> FunctionNames;
  /// Old module's global names, in global-index order.
  std::vector<std::string> GlobalNames;
  /// Final (register-allocated) machine code per function, parallel to
  /// FunctionNames. Operand provenance lives in MInstr::VA/VB/VC. The
  /// functions are immutable and may be shared with other records and
  /// with the compile cache; never null.
  std::vector<std::shared_ptr<const MachineFunction>> FinalCode;
  /// Frame-object word offsets per function (parallel to FinalCode's
  /// FrameObjects), as encoded into the deployed image.
  std::vector<std::vector<int>> FrameOffsets;
  /// The data layout the old image used.
  OldRegionLayout GlobalLayout;

  int findFunction(const std::string &Name) const;

  /// Points every function that equals \p Old's same-named function at
  /// \p Old's object, so a version stores only the code it changed.
  void shareUnchanged(const CompilationRecord &Old);

  /// Field-for-field equality; machine code compares by value.
  bool operator==(const CompilationRecord &O) const;

  std::vector<uint8_t> serialize() const;
  static bool deserialize(const std::vector<uint8_t> &Bytes,
                          CompilationRecord &Out);
};

} // namespace ucc

#endif // UCC_CORE_RECORD_H
