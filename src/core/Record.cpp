//===- core/Record.cpp --------------------------------------------------------==//

#include "core/Record.h"

#include "support/ByteStream.h"

#include <algorithm>

using namespace ucc;

int CompilationRecord::findFunction(const std::string &Name) const {
  for (size_t I = 0; I < FunctionNames.size(); ++I)
    if (FunctionNames[I] == Name)
      return static_cast<int>(I);
  return -1;
}

void CompilationRecord::shareUnchanged(const CompilationRecord &Old) {
  for (size_t I = 0; I < FinalCode.size(); ++I) {
    int J = Old.findFunction(FunctionNames[I]);
    if (J < 0)
      continue;
    const std::shared_ptr<const MachineFunction> &Prev =
        Old.FinalCode[static_cast<size_t>(J)];
    if (Prev != FinalCode[I] && *Prev == *FinalCode[I])
      FinalCode[I] = Prev;
  }
}

bool CompilationRecord::operator==(const CompilationRecord &O) const {
  auto SameCode = [](const std::shared_ptr<const MachineFunction> &A,
                     const std::shared_ptr<const MachineFunction> &B) {
    return A == B || *A == *B;
  };
  return FunctionNames == O.FunctionNames && GlobalNames == O.GlobalNames &&
         std::equal(FinalCode.begin(), FinalCode.end(), O.FinalCode.begin(),
                    O.FinalCode.end(), SameCode) &&
         FrameOffsets == O.FrameOffsets && GlobalLayout == O.GlobalLayout;
}

namespace {

void writeMInstr(ByteWriter &W, const MInstr &I) {
  W.writeU8(static_cast<uint8_t>(I.Op));
  W.writeI32(I.A);
  W.writeI32(I.B);
  W.writeI32(I.C);
  W.writeI32(I.VA);
  W.writeI32(I.VB);
  W.writeI32(I.VC);
  W.writeI32(I.Imm);
  W.writeI32(I.Target);
  W.writeI32(I.Callee);
  W.writeI32(I.GlobalIdx);
  W.writeI32(I.FrameIdx);
  W.writeI32(I.IRIndex);
}

MInstr readMInstr(ByteReader &R) {
  MInstr I;
  uint8_t Op = R.readU8();
  if (Op >= static_cast<uint8_t>(MOp::NumOpcodes))
    R.markError(); // corrupt input: not an opcode we ever emit
  I.Op = static_cast<MOp>(Op);
  I.A = R.readI32();
  I.B = R.readI32();
  I.C = R.readI32();
  I.VA = R.readI32();
  I.VB = R.readI32();
  I.VC = R.readI32();
  I.Imm = R.readI32();
  I.Target = R.readI32();
  I.Callee = R.readI32();
  I.GlobalIdx = R.readI32();
  I.FrameIdx = R.readI32();
  I.IRIndex = R.readI32();
  return I;
}

void writeMachineFunction(ByteWriter &W, const MachineFunction &MF) {
  W.writeString(MF.Name);
  W.writeI32(MF.NextVReg);
  W.writeU32(static_cast<uint32_t>(MF.FrameObjects.size()));
  for (const MFrameObject &FO : MF.FrameObjects) {
    W.writeString(FO.Name);
    W.writeI32(FO.SizeWords);
    W.writeU8(FO.IsSpill ? 1 : 0);
  }
  W.writeU32(static_cast<uint32_t>(MF.Blocks.size()));
  for (const MBlock &BB : MF.Blocks) {
    W.writeString(BB.Name);
    W.writeU32(static_cast<uint32_t>(BB.Succs.size()));
    for (int S : BB.Succs)
      W.writeI32(S);
    W.writeU32(static_cast<uint32_t>(BB.Instrs.size()));
    for (const MInstr &I : BB.Instrs)
      writeMInstr(W, I);
  }
}

MachineFunction readMachineFunction(ByteReader &R) {
  MachineFunction MF;
  MF.Name = R.readString();
  MF.NextVReg = R.readI32();
  uint32_t NumFrame = R.readU32();
  for (uint32_t K = 0; K < NumFrame && !R.hadError(); ++K) {
    MFrameObject FO;
    FO.Name = R.readString();
    FO.SizeWords = R.readI32();
    if (FO.SizeWords < 0)
      R.markError(); // a negative size would wrap every layout loop
    FO.IsSpill = R.readU8() != 0;
    MF.FrameObjects.push_back(std::move(FO));
  }
  uint32_t NumBlocks = R.readU32();
  for (uint32_t B = 0; B < NumBlocks && !R.hadError(); ++B) {
    MBlock BB;
    BB.Name = R.readString();
    uint32_t NumSuccs = R.readU32();
    for (uint32_t S = 0; S < NumSuccs && !R.hadError(); ++S) {
      int32_t Succ = R.readI32();
      if (Succ < 0 || static_cast<uint32_t>(Succ) >= NumBlocks)
        R.markError(); // successor must name a block of this function
      BB.Succs.push_back(Succ);
    }
    uint32_t NumInstrs = R.readU32();
    for (uint32_t K = 0; K < NumInstrs && !R.hadError(); ++K)
      BB.Instrs.push_back(readMInstr(R));
    MF.Blocks.push_back(std::move(BB));
  }
  MF.finish();
  return MF;
}

} // namespace

std::vector<uint8_t> CompilationRecord::serialize() const {
  ByteWriter W;
  W.writeU32(0x55434352); // 'UCCR'
  W.writeU32(static_cast<uint32_t>(FunctionNames.size()));
  for (const std::string &N : FunctionNames)
    W.writeString(N);
  W.writeU32(static_cast<uint32_t>(GlobalNames.size()));
  for (const std::string &N : GlobalNames)
    W.writeString(N);
  W.writeU32(static_cast<uint32_t>(FinalCode.size()));
  for (const std::shared_ptr<const MachineFunction> &MF : FinalCode)
    writeMachineFunction(W, *MF);
  W.writeU32(static_cast<uint32_t>(FrameOffsets.size()));
  for (const std::vector<int> &Offsets : FrameOffsets) {
    W.writeU32(static_cast<uint32_t>(Offsets.size()));
    for (int Off : Offsets)
      W.writeI32(Off);
  }
  W.writeI32(GlobalLayout.Words);
  W.writeU32(static_cast<uint32_t>(GlobalLayout.Entries.size()));
  for (const OldRegionLayout::Entry &E : GlobalLayout.Entries) {
    W.writeString(E.Name);
    W.writeI32(E.Offset);
    W.writeI32(E.SizeWords);
  }
  return W.take();
}

bool CompilationRecord::deserialize(const std::vector<uint8_t> &Bytes,
                                    CompilationRecord &Out) {
  Out = CompilationRecord();
  ByteReader R(Bytes);
  if (R.readU32() != 0x55434352)
    return false;
  uint32_t NumFns = R.readU32();
  for (uint32_t K = 0; K < NumFns && !R.hadError(); ++K)
    Out.FunctionNames.push_back(R.readString());
  uint32_t NumGlobals = R.readU32();
  for (uint32_t K = 0; K < NumGlobals && !R.hadError(); ++K)
    Out.GlobalNames.push_back(R.readString());
  uint32_t NumCode = R.readU32();
  for (uint32_t K = 0; K < NumCode && !R.hadError(); ++K)
    Out.FinalCode.push_back(
        std::make_shared<const MachineFunction>(readMachineFunction(R)));
  uint32_t NumFrames = R.readU32();
  for (uint32_t K = 0; K < NumFrames && !R.hadError(); ++K) {
    std::vector<int> Offsets;
    uint32_t N = R.readU32();
    for (uint32_t J = 0; J < N && !R.hadError(); ++J)
      Offsets.push_back(R.readI32());
    Out.FrameOffsets.push_back(std::move(Offsets));
  }
  Out.GlobalLayout.Words = R.readI32();
  uint32_t NumEntries = R.readU32();
  for (uint32_t K = 0; K < NumEntries && !R.hadError(); ++K) {
    OldRegionLayout::Entry E;
    E.Name = R.readString();
    E.Offset = R.readI32();
    E.SizeWords = R.readI32();
    if (E.Offset < 0 || E.SizeWords < 0)
      R.markError();
    Out.GlobalLayout.Entries.push_back(std::move(E));
  }
  if (R.hadError() || !R.atEnd())
    return false;
  // Cross-structure invariants the compiler relies on (Record.h): machine
  // code and frame offsets are parallel to the function-name table.
  return Out.FinalCode.size() == Out.FunctionNames.size() &&
         Out.FrameOffsets.size() == Out.FinalCode.size();
}
