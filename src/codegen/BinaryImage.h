//===- codegen/BinaryImage.h - the deployable sensor image ----------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary image a sensor node runs: encoded 4-byte SAVR instruction
/// words, a function table, and the initial data segment. This is the
/// artifact the differ compares and the edit-script patcher rewrites on the
/// "sensor" side, and the input the simulator executes.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_CODEGEN_BINARYIMAGE_H
#define UCC_CODEGEN_BINARYIMAGE_H

#include "codegen/MachineIR.h"
#include "ir/IR.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ucc {

/// Location of one function's code within the image.
struct FunctionSpan {
  std::string Name;
  uint32_t Start = 0; ///< first instruction index
  uint32_t Count = 0; ///< number of instructions
};

/// Word offsets assigned to globals by a data-allocation strategy.
struct DataLayoutMap {
  std::vector<int> GlobalOffsets; ///< indexed by global index
  int DataWords = 0;              ///< total data-segment size in words
};

/// Word offsets assigned to one function's frame objects.
struct FrameLayout {
  std::vector<int> Offsets; ///< indexed by frame object index
  int FrameWords = 0;
};

/// A complete, runnable sensor image.
struct BinaryImage {
  std::vector<uint32_t> Code;
  std::vector<FunctionSpan> Functions;
  std::vector<int16_t> DataInit; ///< initial data segment, DataWords long
  int EntryFunc = -1;

  int findFunction(const std::string &Name) const;

  /// The code of one function as a window into Code.
  std::vector<uint32_t> functionCode(int FnIdx) const;

  /// Total size in bytes when transmitted whole (code + data init).
  size_t transmitBytes() const {
    return Code.size() * 4 + DataInit.size() * 2;
  }

  std::vector<uint8_t> serialize() const;
  static bool deserialize(const std::vector<uint8_t> &Bytes,
                          BinaryImage &Out);

  /// Full disassembly listing with function headers.
  std::string disassemble() const;
};

/// Encodes a fully register-allocated machine module into an image.
///
/// \p M supplies global names/initializers; \p DL and \p Frames supply the
/// offsets chosen by the data allocator. Every register operand must be
/// physical by now (asserted). A trailing `jmp` to the lexically next block
/// is elided (fallthrough). When \p IRIndexOut is non-null it receives,
/// per function, the originating IR-statement index of every encoded
/// instruction (-1 for compiler-inserted code) — the bridge that lets
/// simulator profiles flow back into `freq(s)`.
BinaryImage encodeModule(const MachineModule &MM, const Module &M,
                         const DataLayoutMap &DL,
                         const std::vector<FrameLayout> &Frames,
                         std::vector<std::vector<int>> *IRIndexOut = nullptr);
/// The same for functions held elsewhere (a CompilationRecord's shared
/// machine code), in module order, with entry function \p EntryFunc.
BinaryImage encodeModule(const std::vector<const MachineFunction *> &Functions,
                         int EntryFunc, const Module &M,
                         const DataLayoutMap &DL,
                         const std::vector<FrameLayout> &Frames,
                         std::vector<std::vector<int>> *IRIndexOut = nullptr);

/// Encodes a single function to instruction words (exposed for the differ
/// and tests). See encodeModule for \p IRIndexOut.
std::vector<uint32_t> encodeFunction(const MachineFunction &MF,
                                     const DataLayoutMap &DL,
                                     const FrameLayout &Frame,
                                     std::vector<int> *IRIndexOut = nullptr);

} // namespace ucc

#endif // UCC_CODEGEN_BINARYIMAGE_H
