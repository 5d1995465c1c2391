//===- ir/IR.h - mid-level three-address IR -------------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mid-level intermediate representation the UCC pipeline works on.
///
/// Deliberately a non-SSA, three-address IR over virtual registers: the
/// paper's update-conscious register-allocation model (section 3) is stated
/// in terms of variables with definition points, use points and last uses,
/// which maps 1:1 onto this representation. Instructions are plain structs
/// (no class hierarchy): the differ, the serializer and the chunker all want
/// to treat instructions as comparable values.
///
/// All scalar values are 16-bit signed integers (the SAVR machine word, see
/// DESIGN.md section 4 for the substitution rationale). Local arrays live in
/// frame objects; globals live in the module data segment.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_IR_IR_H
#define UCC_IR_IR_H

#include "support/Diagnostics.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

namespace ucc {

/// A virtual register id. Negative means "none".
using VReg = int;
constexpr VReg NoVReg = -1;

/// IR operation codes.
enum class Opcode {
  Const,  ///< Dst = Imm
  Mov,    ///< Dst = Src0
  Bin,    ///< Dst = Src0 <BinK> Src1
  Un,     ///< Dst = <UnK> Src0
  LoadG,  ///< Dst = Global[Src0?]            (Src0 optional index)
  StoreG, ///< Global[Src1?] = Src0           (Src1 optional index)
  LoadF,  ///< Dst = Frame[Slot][Src0?]
  StoreF, ///< Frame[Slot][Src1?] = Src0
  Call,   ///< Dst? = call Callee(Srcs...)
  Br,     ///< goto TrueBB
  CondBr, ///< if (Src0 <PredK> Src1) goto TrueBB else FalseBB
  Ret,    ///< return Src0?
  In,     ///< Dst = port[Imm]
  Out,    ///< port[Imm] = Src0
  Halt    ///< stop the node
};

/// Binary operators for Opcode::Bin.
enum class BinKind {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr ///< arithmetic shift right (values are signed 16-bit)
};

/// Unary operators for Opcode::Un.
enum class UnKind { Neg, Not };

/// Comparison predicates for Opcode::CondBr (signed).
enum class CmpPred { EQ, NE, LT, LE, GT, GE };

/// Fixed-capacity inline list of an instruction's value operands, in the
/// style of codegen's RegList. No opcode takes more than four (CALL passes
/// at most four register arguments, and the parser caps parameters at
/// four), so the list needs no heap and keeps Instr trivially copyable.
/// Overflow throws std::length_error in every build type.
class OperandList {
public:
  static constexpr size_t Capacity = 4;

  OperandList() = default;
  OperandList(std::initializer_list<VReg> Regs) {
    for (VReg R : Regs)
      push_back(R);
  }

  void push_back(VReg R) {
    if (Count == Capacity)
      overflow();
    Regs[Count++] = R;
  }
  void clear() { Count = 0; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  VReg &operator[](size_t I) { return Regs[I]; }
  VReg operator[](size_t I) const { return Regs[I]; }
  VReg *begin() { return Regs; }
  VReg *end() { return Regs + Count; }
  const VReg *begin() const { return Regs; }
  const VReg *end() const { return Regs + Count; }

private:
  [[noreturn]] static void overflow();

  uint32_t Count = 0;
  VReg Regs[Capacity] = {};
};

/// One IR instruction. Which fields are meaningful depends on Op; the
/// accessors below and the verifier encode the exact contract.
struct Instr {
  Opcode Op = Opcode::Halt;
  BinKind BinK = BinKind::Add;
  UnKind UnK = UnKind::Neg;
  CmpPred PredK = CmpPred::EQ;

  VReg Dst = NoVReg;
  OperandList Srcs;       ///< value operands, in positional order
  int64_t Imm = 0;        ///< Const immediate / In/Out port number
  int Global = -1;        ///< global index for LoadG/StoreG
  int Slot = -1;          ///< frame object index for LoadF/StoreF
  int Callee = -1;        ///< function index for Call
  int TrueBB = -1;        ///< Br/CondBr target block index
  int FalseBB = -1;       ///< CondBr fall-through block index
  SourceLoc Loc;

  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret ||
           Op == Opcode::Halt;
  }

  bool hasDst() const { return Dst != NoVReg; }
};
static_assert(std::is_trivially_copyable_v<Instr>,
              "copying a function's instructions must stay a memcpy");

/// A basic block: a straight-line run of instructions ending in exactly one
/// terminator. Blocks are identified by their index in Function::Blocks.
struct BasicBlock {
  std::string Name;
  std::vector<Instr> Instrs;

  bool hasTerminator() const {
    return !Instrs.empty() && Instrs.back().isTerminator();
  }

  /// Successor block indices of this block's terminator.
  std::vector<int> successors() const;
};

/// A local frame object (scalar spill homes are added later by codegen; at
/// the IR level frame objects are local arrays).
struct FrameObject {
  std::string Name;
  int SizeWords = 1;
};

/// A function: parameters are virtual registers defined on entry.
struct Function {
  std::string Name;
  std::vector<VReg> Params;
  std::vector<BasicBlock> Blocks; ///< Blocks[0] is the entry block
  std::vector<FrameObject> FrameObjects;
  int NumVRegs = 0;                  ///< virtual register ids are [0, NumVRegs)
  std::vector<std::string> VRegNames; ///< optional debug names per vreg

  VReg makeVReg(const std::string &Name = "") {
    VRegNames.push_back(Name);
    return NumVRegs++;
  }

  int makeBlock(const std::string &Name) {
    Blocks.push_back(BasicBlock{Name, {}});
    return static_cast<int>(Blocks.size()) - 1;
  }

  int makeFrameObject(const std::string &Name, int SizeWords) {
    FrameObjects.push_back(FrameObject{Name, SizeWords});
    return static_cast<int>(FrameObjects.size()) - 1;
  }

  /// Total number of instructions across all blocks.
  int instrCount() const;

  const std::string &vregName(VReg R) const {
    assert(R >= 0 && R < NumVRegs && "vreg out of range");
    return VRegNames[static_cast<size_t>(R)];
  }
};

/// A module-level global scalar or array.
struct GlobalVar {
  std::string Name;
  int SizeWords = 1;
  std::vector<int16_t> Init; ///< empty means zero-initialized
};

/// A whole program: globals + functions. Function 0 need not be the entry;
/// EntryFunc names the function the node starts executing ("main").
struct Module {
  std::vector<GlobalVar> Globals;
  std::vector<Function> Functions;
  int EntryFunc = -1;

  int findFunction(const std::string &Name) const;
  int findGlobal(const std::string &Name) const;

  /// Renders the module as human-readable text (tests and debugging).
  std::string print() const;
};

/// Returns a mnemonic for \p Op ("add", "shr", ...).
const char *binKindName(BinKind Op);
/// Returns a mnemonic for \p Op ("neg", "not").
const char *unKindName(UnKind Op);
/// Returns a mnemonic for \p Pred ("eq", "lt", ...).
const char *cmpPredName(CmpPred Pred);
/// Returns a mnemonic for \p Op ("const", "bin", ...).
const char *opcodeName(Opcode Op);

/// Evaluates `A <Op> B` with 16-bit wrapping semantics (division by zero
/// yields 0, matching the SAVR simulator).
int16_t evalBin(BinKind Op, int16_t A, int16_t B);
/// Evaluates `<Op> A` with 16-bit semantics.
int16_t evalUn(UnKind Op, int16_t A);
/// Evaluates `A <Pred> B` over signed 16-bit values.
bool evalCmp(CmpPred Pred, int16_t A, int16_t B);

} // namespace ucc

#endif // UCC_IR_IR_H
