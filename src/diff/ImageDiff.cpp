//===- diff/ImageDiff.cpp - whole-image diffing and update packages -------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Update-package construction (runs under the `diff` telemetry span;
/// per-script byte accounting happens inside makeEditScript), the Diff_inst
/// metrics read off a package's scripts, the package wire format, the
/// sensor-side applier, and the out-of-order group assembler.
///
//===----------------------------------------------------------------------===//

#include "diff/ImageDiff.h"

#include "support/ByteStream.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cassert>

using namespace ucc;

int ImageDiff::totalDiffInst() const {
  int N = 0;
  for (const FunctionDiff &F : Functions)
    N += F.diffInst();
  return N;
}

int ImageDiff::totalMatched() const {
  int N = 0;
  for (const FunctionDiff &F : Functions)
    N += F.Matched;
  return N;
}

int ImageDiff::totalNewCount() const {
  int N = 0;
  for (const FunctionDiff &F : Functions)
    N += F.NewCount;
  return N;
}

const FunctionDiff *ImageDiff::find(const std::string &Name) const {
  for (const FunctionDiff &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

ImageDiff ucc::diffImages(const BinaryImage &Old, const BinaryImage &New,
                          const ImageUpdate &U) {
  assert(U.Functions.size() == New.Functions.size() &&
         "update does not describe the new image");
  ImageDiff Out;
  // The words a script copies are the words reused; everything it inserts
  // or replaces ships. Every primitive but Insert consumes old words, and
  // every one but Remove produces new ones.
  for (const ImageUpdate::FunctionUpdate &FU : U.Functions) {
    FunctionDiff FD;
    FD.Name = FU.Name;
    if (FU.IsNew)
      FD.NewCount = static_cast<int>(FU.NewCode.size());
    else
      for (const EditPrim &P : FU.Script.Prims) {
        int Count = static_cast<int>(P.Count);
        FD.OldCount += P.Op == EditOp::Insert ? 0 : Count;
        FD.NewCount += P.Op == EditOp::Remove ? 0 : Count;
        FD.Matched += P.Op == EditOp::Copy ? Count : 0;
      }
    Out.Functions.push_back(std::move(FD));
  }
  // Removed functions (present old, absent new) need no transmission, but
  // record them for completeness.
  for (size_t F = 0; F < Old.Functions.size(); ++F) {
    if (New.findFunction(Old.Functions[F].Name) >= 0)
      continue;
    FunctionDiff FD;
    FD.Name = Old.Functions[F].Name;
    FD.OldCount = static_cast<int>(Old.Functions[F].Count);
    Out.Functions.push_back(std::move(FD));
  }

  // Data-segment delta in words.
  size_t Common = std::min(Old.DataInit.size(), New.DataInit.size());
  for (size_t K = 0; K < Common; ++K)
    if (Old.DataInit[K] != New.DataInit[K])
      ++Out.DataWordsChanged;
  Out.DataWordsChanged += static_cast<int>(
      std::max(Old.DataInit.size(), New.DataInit.size()) - Common);
  return Out;
}

ImageDiff ucc::diffImages(const BinaryImage &Old, const BinaryImage &New,
                          int Jobs) {
  return diffImages(Old, New, makeImageUpdate(Old, New, Jobs));
}

size_t ImageUpdate::scriptBytes() const {
  size_t Bytes = 0;
  for (const FunctionUpdate &F : Functions) {
    Bytes += 1; // function-table entry (old index or new marker)
    if (F.IsNew)
      Bytes += F.Name.size() + 1 + F.NewCode.size() * 4;
    else
      Bytes += F.Script.encodedBytes();
  }
  Bytes += DataScript.encodedBytes();
  Bytes += 1; // entry function index
  return Bytes;
}

std::vector<uint8_t> ImageUpdate::serialize() const {
  ByteWriter W;
  W.writeU32(0x55504454); // 'UPDT'
  W.writeI32(EntryFunc);
  W.writeU32(static_cast<uint32_t>(Functions.size()));
  for (const FunctionUpdate &F : Functions) {
    W.writeString(F.Name);
    W.writeU8(F.IsNew ? 1 : 0);
    if (F.IsNew) {
      W.writeU32(static_cast<uint32_t>(F.NewCode.size()));
      for (uint32_t Word : F.NewCode)
        W.writeU32(Word);
    } else {
      std::vector<uint8_t> Script = F.Script.encode();
      W.writeU32(static_cast<uint32_t>(Script.size()));
      W.writeBytes(Script);
    }
  }
  std::vector<uint8_t> Data = DataScript.encode();
  W.writeU32(static_cast<uint32_t>(Data.size()));
  W.writeBytes(Data);
  return W.take();
}

bool ImageUpdate::deserialize(const std::vector<uint8_t> &Bytes,
                              ImageUpdate &Out) {
  Out = ImageUpdate();
  ByteReader R(Bytes);
  if (R.readU32() != 0x55504454)
    return false;
  Out.EntryFunc = R.readI32();
  uint32_t NumFns = R.readU32();
  for (uint32_t K = 0; K < NumFns && !R.hadError(); ++K) {
    FunctionUpdate F;
    F.Name = R.readString();
    F.IsNew = R.readU8() != 0;
    if (F.IsNew) {
      uint32_t Count = R.readU32();
      for (uint32_t J = 0; J < Count && !R.hadError(); ++J)
        F.NewCode.push_back(R.readU32());
    } else {
      uint32_t Len = R.readU32();
      std::vector<uint8_t> Script = R.readBytes(Len);
      if (!EditScript::decode(Script, F.Script))
        return false;
    }
    Out.Functions.push_back(std::move(F));
  }
  uint32_t DataLen = R.readU32();
  std::vector<uint8_t> Data = R.readBytes(DataLen);
  if (!EditScript::decode(Data, Out.DataScript))
    return false;
  return !R.hadError() && R.atEnd();
}

ImageUpdate ucc::makeImageUpdate(const BinaryImage &Old,
                                 const BinaryImage &New, int Jobs) {
  ScopedSpan Span("diff");
  ImageUpdate U;
  U.EntryFunc = New.EntryFunc;
  // Per-function scripts are independent; diff them across the pool and
  // land each in its slot. parallelFor merges the workers' telemetry in
  // item order, so package bytes *and* diff.* counters match --jobs 1.
  int NumFns = static_cast<int>(New.Functions.size());
  U.Functions.resize(static_cast<size_t>(NumFns));
  parallelFor(NumFns, Jobs, [&](int F) {
    ImageUpdate::FunctionUpdate &FU = U.Functions[static_cast<size_t>(F)];
    FU.Name = New.Functions[static_cast<size_t>(F)].Name;
    std::vector<uint32_t> NewCode = New.functionCode(F);
    int OldIdx = Old.findFunction(FU.Name);
    if (OldIdx < 0) {
      FU.IsNew = true;
      FU.NewCode = std::move(NewCode);
    } else {
      FU.Script = makeEditScript(Old.functionCode(OldIdx), NewCode);
    }
  });

  auto toWords = [](const std::vector<int16_t> &Data) {
    std::vector<uint32_t> Words(Data.size());
    for (size_t K = 0; K < Data.size(); ++K)
      Words[K] = static_cast<uint16_t>(Data[K]);
    return Words;
  };
  U.DataScript = makeEditScript(toWords(Old.DataInit), toWords(New.DataInit));
  return U;
}

bool ucc::composeImageUpdates(const BinaryImage &Base,
                              const ImageUpdate &First,
                              const ImageUpdate &Second, ImageUpdate &Out) {
  Out = ImageUpdate();
  BinaryImage Mid;
  if (!applyUpdate(Base, First, Mid))
    return false;

  // First's entries are the functions of Mid, in Mid's order.
  auto firstEntry =
      [&](const std::string &Name) -> const ImageUpdate::FunctionUpdate * {
    for (const ImageUpdate::FunctionUpdate &F : First.Functions)
      if (F.Name == Name)
        return &F;
    return nullptr;
  };

  Out.EntryFunc = Second.EntryFunc;
  for (const ImageUpdate::FunctionUpdate &F2 : Second.Functions) {
    ImageUpdate::FunctionUpdate FU;
    FU.Name = F2.Name;
    if (F2.IsNew) {
      // Introduced by the second step: ships whole either way.
      FU.IsNew = true;
      FU.NewCode = F2.NewCode;
    } else {
      const ImageUpdate::FunctionUpdate *F1 = firstEntry(F2.Name);
      int MidIdx = Mid.findFunction(F2.Name);
      if (!F1 || MidIdx < 0)
        return false;
      if (F1->IsNew) {
        // Introduced by the first step: relative to Base it is still new;
        // push it forward through the second step's script.
        std::vector<uint32_t> FinalCode;
        if (!applyEditScript(Mid.functionCode(MidIdx), F2.Script,
                             FinalCode))
          return false;
        FU.IsNew = true;
        FU.NewCode = std::move(FinalCode);
      } else {
        int BaseIdx = Base.findFunction(F2.Name);
        if (BaseIdx < 0 ||
            !composeEditScripts(Base.functionCode(BaseIdx), F1->Script,
                                F2.Script, FU.Script))
          return false;
      }
    }
    Out.Functions.push_back(std::move(FU));
  }

  std::vector<uint32_t> BaseData(Base.DataInit.size());
  for (size_t K = 0; K < Base.DataInit.size(); ++K)
    BaseData[K] = static_cast<uint16_t>(Base.DataInit[K]);
  return composeEditScripts(BaseData, First.DataScript, Second.DataScript,
                            Out.DataScript);
}

std::vector<UpdateGroup> ucc::splitIntoGroups(const ImageUpdate &Update) {
  int Total = static_cast<int>(Update.Functions.size()) + 1;
  std::vector<UpdateGroup> Groups;
  Groups.reserve(static_cast<size_t>(Total));
  for (size_t F = 0; F < Update.Functions.size(); ++F) {
    UpdateGroup G;
    G.SeqNo = static_cast<int>(F);
    G.TotalGroups = Total;
    G.Fn = Update.Functions[F];
    Groups.push_back(std::move(G));
  }
  UpdateGroup Data;
  Data.SeqNo = Total - 1;
  Data.TotalGroups = Total;
  Data.IsData = true;
  Data.DataScript = Update.DataScript;
  Data.EntryFunc = Update.EntryFunc;
  Groups.push_back(std::move(Data));
  return Groups;
}

bool UpdateAssembler::accept(const UpdateGroup &Group) {
  if (Group.TotalGroups <= 0 || Group.SeqNo < 0 ||
      Group.SeqNo >= Group.TotalGroups)
    return false;
  if (Expected < 0) {
    Expected = Group.TotalGroups;
    Seen.assign(static_cast<size_t>(Expected), false);
    Groups.resize(static_cast<size_t>(Expected));
  }
  if (Group.TotalGroups != Expected)
    return false; // belongs to a different update
  Seen[static_cast<size_t>(Group.SeqNo)] = true;
  Groups[static_cast<size_t>(Group.SeqNo)] = Group;
  return true;
}

bool UpdateAssembler::complete() const {
  if (Expected < 0)
    return false;
  for (bool B : Seen)
    if (!B)
      return false;
  return true;
}

bool UpdateAssembler::materialize(BinaryImage &Out) const {
  if (!complete())
    return false;
  ImageUpdate Update;
  for (const UpdateGroup &G : Groups) {
    if (G.IsData) {
      Update.DataScript = G.DataScript;
      Update.EntryFunc = G.EntryFunc;
    } else {
      Update.Functions.push_back(G.Fn);
    }
  }
  return applyUpdate(Old, Update, Out);
}

bool ucc::applyUpdate(const BinaryImage &Old, const ImageUpdate &Update,
                      BinaryImage &Out) {
  Out = BinaryImage();
  Out.EntryFunc = Update.EntryFunc;
  for (const ImageUpdate::FunctionUpdate &FU : Update.Functions) {
    std::vector<uint32_t> Code;
    if (FU.IsNew) {
      Code = FU.NewCode;
    } else {
      int OldIdx = Old.findFunction(FU.Name);
      if (OldIdx < 0)
        return false;
      if (!applyEditScript(Old.functionCode(OldIdx), FU.Script, Code))
        return false;
    }
    FunctionSpan Span;
    Span.Name = FU.Name;
    Span.Start = static_cast<uint32_t>(Out.Code.size());
    Span.Count = static_cast<uint32_t>(Code.size());
    Out.Functions.push_back(std::move(Span));
    Out.Code.insert(Out.Code.end(), Code.begin(), Code.end());
  }

  std::vector<uint32_t> OldData(Old.DataInit.size());
  for (size_t K = 0; K < Old.DataInit.size(); ++K)
    OldData[K] = static_cast<uint16_t>(Old.DataInit[K]);
  std::vector<uint32_t> NewData;
  if (!applyEditScript(OldData, Update.DataScript, NewData))
    return false;
  Out.DataInit.resize(NewData.size());
  for (size_t K = 0; K < NewData.size(); ++K) {
    // Data words are 16 bits; a wider literal cannot be flashed as sent.
    if (NewData[K] > 0xFFFF)
      return false;
    Out.DataInit[K] = static_cast<int16_t>(NewData[K]);
  }
  return true;
}
