//===- codegen/MachineIR.h - pre-encoding machine representation ----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-level representation between instruction selection and
/// binary encoding. Register operands may be virtual (>= FirstVReg) before
/// register allocation and are physical afterwards; each operand keeps its
/// originating virtual register so the allocation can be validated and
/// recorded (the CompilationRecord the update-conscious compiler feeds on).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_CODEGEN_MACHINEIR_H
#define UCC_CODEGEN_MACHINEIR_H

#include "analysis/Dataflow.h"
#include "codegen/SAVR.h"

#include <cassert>
#include <string>
#include <vector>

namespace ucc {

/// One machine instruction before encoding.
struct MInstr {
  MOp Op = MOp::NOP;
  /// Register operands; -1 when unused. Roles follow codegen/SAVR.h.
  int A = -1;
  int B = -1;
  int C = -1;
  /// Originating virtual registers of A/B/C; filled by the register
  /// allocator when it substitutes physical registers.
  int VA = -1;
  int VB = -1;
  int VC = -1;
  int32_t Imm = 0;    ///< LDI immediate / port number
  int Target = -1;    ///< branch target: machine block id (pre-layout)
  int Callee = -1;    ///< CALL: function index
  int GlobalIdx = -1; ///< LDG/STG/LDGX/STGX: global index
  int FrameIdx = -1;  ///< LDF/STF/LDFX/STFX: frame object index
  int IRIndex = -1;   ///< originating IR statement (frequency lookup)

  bool operator==(const MInstr &) const = default;
};

/// Fixed-capacity register-operand list for the allocation-lean hot path.
/// The worst case is CALL's clobber set (all NumPhysRegs physical
/// registers plus the A slot), so a small inline buffer covers every
/// instruction with no heap traffic — the def/use queries inside the
/// liveness, validation, and UCC-RA inner loops run allocation-free.
class RegList {
public:
  void push_back(int Reg) {
    assert(Count < Cap && "operand list overflow");
    Regs[Count++] = Reg;
  }
  void clear() { Count = 0; }
  int size() const { return Count; }
  bool empty() const { return Count == 0; }
  int operator[](int I) const { return Regs[I]; }
  const int *begin() const { return Regs; }
  const int *end() const { return Regs + Count; }
  bool contains(int Reg) const {
    for (int R : *this)
      if (R == Reg)
        return true;
    return false;
  }

private:
  static constexpr int Cap = 16; // >= NumPhysRegs + 1 (CALL's worst case)
  int Count = 0;
  int Regs[Cap];
};

/// Registers defined by \p I. CALL clobbers every physical register; the
/// liveness adapter handles that separately via mopIsCall().
std::vector<int> minstrDefs(const MInstr &I);
/// Registers used by \p I.
std::vector<int> minstrUses(const MInstr &I);
/// Allocation-free variants: append the defs/uses of \p I to \p Out
/// (cleared first). Same contents and order as the vector versions.
void minstrDefs(const MInstr &I, RegList &Out);
void minstrUses(const MInstr &I, RegList &Out);
/// True when \p Op is CALL (clobbers all physical registers).
inline bool mopIsCall(MOp Op) { return Op == MOp::CALL; }

/// A machine basic block.
struct MBlock {
  std::string Name;
  std::vector<MInstr> Instrs;
  std::vector<int> Succs;

  bool operator==(const MBlock &) const = default;
};

/// Sizes (in words) of everything addressed frame-relative.
struct MFrameObject {
  std::string Name;
  int SizeWords = 1;
  bool IsSpill = false;

  bool operator==(const MFrameObject &) const = default;
};

/// A machine function.
struct MachineFunction {
  std::string Name;
  std::vector<MBlock> Blocks;
  std::vector<MFrameObject> FrameObjects;
  int NextVReg = FirstVReg;
  /// Source names per virtual register, indexed by (vreg - FirstVReg);
  /// empty for compiler temporaries. Used to give frame homes stable,
  /// version-independent names; register allocation is their last reader
  /// and finish() drops them.
  std::vector<std::string> VRegNames;

  bool operator==(const MachineFunction &) const = default;

  int makeVReg() {
    VRegNames.push_back("");
    return NextVReg++;
  }

  const std::string &vregName(int VReg) const {
    static const std::string Empty;
    size_t Idx = static_cast<size_t>(VReg - FirstVReg);
    return Idx < VRegNames.size() ? VRegNames[Idx] : Empty;
  }

  /// Creates a frame object, uniquifying the name so that names are a
  /// stable cross-version identity for the differ.
  int makeFrameObject(const std::string &Name, int SizeWords, bool IsSpill);

  int instrCount() const;

  /// Readies a finished (allocated and laid out) function for storage:
  /// drops VRegNames and shrinks every container to fit. A finished
  /// function then equals its CompilationRecord round trip.
  void finish();

  /// Renders the function as assembly-like text (virtual or physical regs).
  std::string print() const;
};

/// A machine module mirrors the IR module's functions and globals.
struct MachineModule {
  std::vector<MachineFunction> Functions;
  int EntryFunc = -1;
};

/// Builds the liveness CFG for \p F. Values are register ids; virtual
/// registers and the NumPhysRegs physical registers share the space, so
/// fixed (physical) liveness falls out of the same fixpoint. CALL defines
/// every physical register (the caller-saved clobber); RET uses RetReg.
FlowGraph buildMachineFlowGraph(const MachineFunction &F);

/// Linearizes \p F: returns (block, instr) pairs in layout order.
struct LinearInstrRef {
  int Block;
  int Index;
};
std::vector<LinearInstrRef> linearize(const MachineFunction &F);

} // namespace ucc

#endif // UCC_CODEGEN_MACHINEIR_H
