//===- codegen/BinaryImage.cpp ------------------------------------------------==//

#include "codegen/BinaryImage.h"

#include "support/ByteStream.h"
#include "support/Format.h"

#include <cassert>

using namespace ucc;

int BinaryImage::findFunction(const std::string &Name) const {
  for (size_t I = 0; I < Functions.size(); ++I)
    if (Functions[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

std::vector<uint32_t> BinaryImage::functionCode(int FnIdx) const {
  assert(FnIdx >= 0 && FnIdx < static_cast<int>(Functions.size()) &&
         "function index out of range");
  const FunctionSpan &S = Functions[static_cast<size_t>(FnIdx)];
  return std::vector<uint32_t>(Code.begin() + S.Start,
                               Code.begin() + S.Start + S.Count);
}

std::vector<uint8_t> BinaryImage::serialize() const {
  ByteWriter W;
  W.writeU32(0x53415652); // 'SAVR'
  W.writeI32(EntryFunc);
  W.writeU32(static_cast<uint32_t>(Functions.size()));
  for (const FunctionSpan &S : Functions) {
    W.writeString(S.Name);
    W.writeU32(S.Start);
    W.writeU32(S.Count);
  }
  W.writeU32(static_cast<uint32_t>(Code.size()));
  for (uint32_t Word : Code)
    W.writeU32(Word);
  W.writeU32(static_cast<uint32_t>(DataInit.size()));
  for (int16_t V : DataInit)
    W.writeU16(static_cast<uint16_t>(V));
  return W.take();
}

bool BinaryImage::deserialize(const std::vector<uint8_t> &Bytes,
                              BinaryImage &Out) {
  ByteReader R(Bytes);
  if (R.readU32() != 0x53415652)
    return false;
  Out.EntryFunc = R.readI32();
  uint32_t NumFns = R.readU32();
  Out.Functions.clear();
  for (uint32_t I = 0; I < NumFns && !R.hadError(); ++I) {
    FunctionSpan S;
    S.Name = R.readString();
    S.Start = R.readU32();
    S.Count = R.readU32();
    Out.Functions.push_back(std::move(S));
  }
  uint32_t NumWords = R.readU32();
  Out.Code.clear();
  for (uint32_t I = 0; I < NumWords && !R.hadError(); ++I)
    Out.Code.push_back(R.readU32());
  uint32_t NumData = R.readU32();
  Out.DataInit.clear();
  for (uint32_t I = 0; I < NumData && !R.hadError(); ++I)
    Out.DataInit.push_back(static_cast<int16_t>(R.readU16()));
  return !R.hadError() && R.atEnd();
}

std::string BinaryImage::disassemble() const {
  std::string Out;
  for (const FunctionSpan &S : Functions) {
    Out += format("%s:  ; fn @%u, %u instrs\n", S.Name.c_str(), S.Start,
                  S.Count);
    for (uint32_t K = 0; K < S.Count; ++K)
      Out += format("  %4u: %s\n", K,
                    disassembleInstr(Code[S.Start + K]).c_str());
  }
  return Out;
}

std::vector<uint32_t> ucc::encodeFunction(const MachineFunction &MF,
                                          const DataLayoutMap &DL,
                                          const FrameLayout &Frame,
                                          std::vector<int> *IRIndexOut) {
  size_t NumBlocks = MF.Blocks.size();

  // Pass 1: decide which trailing JMPs fall through to the next block.
  std::vector<std::vector<bool>> Skip(NumBlocks);
  for (size_t B = 0; B < NumBlocks; ++B) {
    const MBlock &BB = MF.Blocks[B];
    Skip[B].assign(BB.Instrs.size(), false);
    if (!BB.Instrs.empty()) {
      const MInstr &Last = BB.Instrs.back();
      if (Last.Op == MOp::JMP &&
          Last.Target == static_cast<int>(B) + 1)
        Skip[B].back() = true;
    }
  }

  // Pass 2: block start offsets after fallthrough elision.
  std::vector<uint32_t> BlockStart(NumBlocks, 0);
  uint32_t Offset = 0;
  for (size_t B = 0; B < NumBlocks; ++B) {
    BlockStart[B] = Offset;
    for (size_t K = 0; K < MF.Blocks[B].Instrs.size(); ++K)
      if (!Skip[B][K])
        ++Offset;
  }

  // Pass 3: encode.
  std::vector<uint32_t> Words;
  Words.reserve(Offset);
  for (size_t B = 0; B < NumBlocks; ++B) {
    const MBlock &BB = MF.Blocks[B];
    for (size_t K = 0; K < BB.Instrs.size(); ++K) {
      if (Skip[B][K])
        continue;
      const MInstr &I = BB.Instrs[K];
      EncodedInstr E;
      E.Op = I.Op;

      auto physA = [&]() {
        assert(isPhysReg(I.A) && "operand A must be physical by encoding");
        return static_cast<uint8_t>(I.A);
      };
      auto physB = [&]() {
        assert(isPhysReg(I.B) && "operand B must be physical by encoding");
        return static_cast<uint8_t>(I.B);
      };

      if (I.A >= 0)
        E.A = physA();
      if (I.B >= 0)
        E.B = physB();
      if (I.C >= 0) {
        assert(isPhysReg(I.C) && "operand C must be physical by encoding");
        E.Imm = static_cast<uint16_t>(I.C);
      }

      switch (I.Op) {
      case MOp::LDI:
      case MOp::IN:
      case MOp::OUT:
        E.Imm = static_cast<uint16_t>(I.Imm);
        break;
      case MOp::ENTER:
        E.Imm = static_cast<uint16_t>(Frame.FrameWords);
        break;
      case MOp::JMP:
      case MOp::BEQ:
      case MOp::BNE:
      case MOp::BLT:
      case MOp::BGE:
      case MOp::BGT:
      case MOp::BLE:
        assert(I.Target >= 0 &&
               I.Target < static_cast<int>(NumBlocks) &&
               "branch target out of range");
        E.Imm = static_cast<uint16_t>(
            BlockStart[static_cast<size_t>(I.Target)]);
        break;
      case MOp::CALL:
        assert(I.Callee >= 0 && "call without callee");
        E.Imm = static_cast<uint16_t>(I.Callee);
        break;
      case MOp::LDG:
      case MOp::STG:
      case MOp::LDGX:
      case MOp::STGX:
        assert(I.GlobalIdx >= 0 &&
               I.GlobalIdx < static_cast<int>(DL.GlobalOffsets.size()) &&
               "global index out of range");
        E.Imm = static_cast<uint16_t>(
            DL.GlobalOffsets[static_cast<size_t>(I.GlobalIdx)]);
        break;
      case MOp::LDF:
      case MOp::STF:
      case MOp::LDFX:
      case MOp::STFX:
        assert(I.FrameIdx >= 0 &&
               I.FrameIdx < static_cast<int>(Frame.Offsets.size()) &&
               "frame index out of range");
        E.Imm = static_cast<uint16_t>(
            Frame.Offsets[static_cast<size_t>(I.FrameIdx)]);
        break;
      default:
        break;
      }
      Words.push_back(E.pack());
      if (IRIndexOut)
        IRIndexOut->push_back(I.IRIndex);
    }
  }
  return Words;
}

BinaryImage ucc::encodeModule(const MachineModule &MM, const Module &M,
                              const DataLayoutMap &DL,
                              const std::vector<FrameLayout> &Frames,
                              std::vector<std::vector<int>> *IRIndexOut) {
  std::vector<const MachineFunction *> Functions;
  Functions.reserve(MM.Functions.size());
  for (const MachineFunction &MF : MM.Functions)
    Functions.push_back(&MF);
  return encodeModule(Functions, MM.EntryFunc, M, DL, Frames, IRIndexOut);
}

BinaryImage
ucc::encodeModule(const std::vector<const MachineFunction *> &Functions,
                  int EntryFunc, const Module &M, const DataLayoutMap &DL,
                  const std::vector<FrameLayout> &Frames,
                  std::vector<std::vector<int>> *IRIndexOut) {
  assert(Frames.size() == Functions.size() &&
         "one frame layout per function");
  BinaryImage Img;
  Img.EntryFunc = EntryFunc;

  if (IRIndexOut)
    IRIndexOut->resize(Functions.size());
  for (size_t F = 0; F < Functions.size(); ++F) {
    std::vector<uint32_t> Words = encodeFunction(
        *Functions[F], DL, Frames[F],
        IRIndexOut ? &(*IRIndexOut)[F] : nullptr);
    FunctionSpan Span;
    Span.Name = Functions[F]->Name;
    Span.Start = static_cast<uint32_t>(Img.Code.size());
    Span.Count = static_cast<uint32_t>(Words.size());
    Img.Functions.push_back(std::move(Span));
    Img.Code.insert(Img.Code.end(), Words.begin(), Words.end());
  }

  Img.DataInit.assign(static_cast<size_t>(DL.DataWords), 0);
  for (size_t G = 0; G < M.Globals.size(); ++G) {
    const GlobalVar &GV = M.Globals[G];
    int Base = DL.GlobalOffsets[G];
    for (size_t K = 0; K < GV.Init.size(); ++K) {
      size_t At = static_cast<size_t>(Base) + K;
      assert(At < Img.DataInit.size() && "initializer out of data segment");
      Img.DataInit[At] = GV.Init[K];
    }
  }
  return Img;
}
