//===- diff/EditScript.cpp - edit scripts over instruction words ----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word alignment (the exact LCS of support/Lcs.h), script construction
/// (with adjacent-primitive merging and remove+insert -> replace folding),
/// script composition, the wire codec, and the sensor-side interpreter.
/// Every script built by makeEditScript reports its per-opcode byte
/// breakdown to the telemetry registry (`diff.*`) — the quantity every
/// experiment's transmission-energy term is built from.
///
//===----------------------------------------------------------------------===//

#include "diff/EditScript.h"

#include "support/ByteStream.h"
#include "support/Lcs.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace ucc;

namespace {

/// Maximum word count representable in one primitive byte (6 bits).
constexpr uint32_t MaxChunk = 63;

/// Number of <=63-word chunks needed for \p Count words.
size_t chunksFor(uint32_t Count) { return (Count + MaxChunk - 1) / MaxChunk; }

} // namespace

size_t EditScript::encodedBytes() const {
  size_t Bytes = 0;
  for (const EditPrim &P : Prims) {
    if (P.Count == 0)
      continue;
    switch (P.Op) {
    case EditOp::Copy:
    case EditOp::Remove:
      Bytes += chunksFor(P.Count);
      break;
    case EditOp::Insert:
    case EditOp::Replace:
      Bytes += chunksFor(P.Count) + static_cast<size_t>(P.Count) * 4;
      break;
    }
  }
  return Bytes;
}

size_t EditScript::primitiveCount() const {
  size_t N = 0;
  for (const EditPrim &P : Prims)
    if (P.Count != 0)
      N += chunksFor(P.Count);
  return N;
}

std::vector<uint8_t> EditScript::encode() const {
  ByteWriter W;
  for (const EditPrim &P : Prims) {
    uint32_t Remaining = P.Count;
    uint32_t WordPos = 0;
    while (Remaining > 0) {
      uint32_t Chunk = std::min(Remaining, MaxChunk);
      W.writeU8(static_cast<uint8_t>((static_cast<uint8_t>(P.Op) << 6) |
                                     Chunk));
      if (P.Op == EditOp::Insert || P.Op == EditOp::Replace) {
        for (uint32_t K = 0; K < Chunk; ++K)
          W.writeU32(P.Words[WordPos + K]);
        WordPos += Chunk;
      }
      Remaining -= Chunk;
    }
  }
  return W.take();
}

bool EditScript::decode(const std::vector<uint8_t> &Bytes, EditScript &Out) {
  Out.Prims.clear();
  ByteReader R(Bytes);
  while (!R.atEnd() && !R.hadError()) {
    uint8_t Head = R.readU8();
    EditPrim P;
    P.Op = static_cast<EditOp>(Head >> 6);
    P.Count = Head & 0x3f;
    if (P.Count == 0)
      return false; // zero-length primitives are never produced
    if (P.Op == EditOp::Insert || P.Op == EditOp::Replace) {
      P.Words.reserve(P.Count);
      for (uint32_t K = 0; K < P.Count; ++K)
        P.Words.push_back(R.readU32());
    }
    Out.Prims.push_back(std::move(P));
  }
  return !R.hadError();
}

std::vector<std::pair<int, int>>
ucc::alignWords(const std::vector<uint32_t> &Old,
                const std::vector<uint32_t> &New) {
  if (Old.size() > MaxAlignWords || New.size() > MaxAlignWords)
    return {};
  return lcsAlign(Old.size(), New.size(),
                  [&](size_t I, size_t J) { return Old[I] == New[J]; });
}

EditScript ucc::scriptFromMatches(
    const std::vector<uint32_t> &Old, const std::vector<uint32_t> &New,
    const std::vector<std::pair<int, int>> &Matches) {
  EditScript Script;

  auto push = [&](EditOp Op, uint32_t Count,
                  std::vector<uint32_t> Words = {}) {
    if (Count == 0)
      return;
    // Merge adjacent primitives of the same kind.
    if (!Script.Prims.empty() && Script.Prims.back().Op == Op) {
      EditPrim &Last = Script.Prims.back();
      Last.Count += Count;
      Last.Words.insert(Last.Words.end(), Words.begin(), Words.end());
      return;
    }
    Script.Prims.push_back(EditPrim{Op, Count, std::move(Words)});
  };

  size_t OldPos = 0, NewPos = 0;
  auto emitGap = [&](size_t OldEnd, size_t NewEnd) {
    size_t Removed = OldEnd - OldPos;
    size_t Inserted = NewEnd - NewPos;
    // A paired removal+insertion becomes a cheaper Replace.
    size_t Replaced = std::min(Removed, Inserted);
    if (Replaced > 0) {
      std::vector<uint32_t> Words(New.begin() + NewPos,
                                  New.begin() + NewPos + Replaced);
      push(EditOp::Replace, static_cast<uint32_t>(Replaced),
           std::move(Words));
    }
    if (Removed > Replaced)
      push(EditOp::Remove, static_cast<uint32_t>(Removed - Replaced));
    if (Inserted > Replaced) {
      std::vector<uint32_t> Words(New.begin() + NewPos + Replaced,
                                  New.begin() + NewEnd);
      push(EditOp::Insert, static_cast<uint32_t>(Inserted - Replaced),
           std::move(Words));
    }
    OldPos = OldEnd;
    NewPos = NewEnd;
  };

  for (const auto &[OldIdx, NewIdx] : Matches) {
    emitGap(static_cast<size_t>(OldIdx), static_cast<size_t>(NewIdx));
    push(EditOp::Copy, 1);
    ++OldPos;
    ++NewPos;
  }
  emitGap(Old.size(), New.size());
  return Script;
}

EditScript ucc::makeEditScript(const std::vector<uint32_t> &Old,
                               const std::vector<uint32_t> &New) {
  EditScript Script = scriptFromMatches(Old, New, alignWords(Old, New));

  if (Telemetry *T = currentTelemetry()) {
    static const char *OpKey[] = {"diff.bytes.copy", "diff.bytes.remove",
                                  "diff.bytes.insert", "diff.bytes.replace"};
    T->addCounter("diff.scripts");
    T->addCounter("diff.prims",
                  static_cast<int64_t>(Script.primitiveCount()));
    T->addCounter("diff.script_bytes",
                  static_cast<int64_t>(Script.encodedBytes()));
    for (const EditPrim &P : Script.Prims) {
      if (P.Count == 0)
        continue;
      size_t Bytes = chunksFor(P.Count);
      if (P.Op == EditOp::Insert || P.Op == EditOp::Replace)
        Bytes += static_cast<size_t>(P.Count) * 4;
      T->addCounter(OpKey[static_cast<size_t>(P.Op)],
                    static_cast<int64_t>(Bytes));
    }
  }
  return Script;
}

bool ucc::composeEditScripts(const std::vector<uint32_t> &Base,
                             const EditScript &First,
                             const EditScript &Second, EditScript &Out) {
  Out = EditScript();

  // Replay First over Base, tracking per-output-word provenance: the Base
  // index a copied word came from, or -1 for inserted/replaced literals.
  std::vector<uint32_t> Mid;
  std::vector<int> MidSrc;
  {
    size_t Pos = 0;
    for (const EditPrim &P : First.Prims) {
      switch (P.Op) {
      case EditOp::Copy:
        if (Pos + P.Count > Base.size())
          return false;
        for (uint32_t K = 0; K < P.Count; ++K) {
          Mid.push_back(Base[Pos + K]);
          MidSrc.push_back(static_cast<int>(Pos + K));
        }
        Pos += P.Count;
        break;
      case EditOp::Remove:
        if (Pos + P.Count > Base.size())
          return false;
        Pos += P.Count;
        break;
      case EditOp::Insert:
      case EditOp::Replace:
        if (P.Words.size() != P.Count)
          return false;
        if (P.Op == EditOp::Replace) {
          if (Pos + P.Count > Base.size())
            return false;
          Pos += P.Count;
        }
        for (uint32_t Word : P.Words) {
          Mid.push_back(Word);
          MidSrc.push_back(-1);
        }
        break;
      }
    }
    if (Pos != Base.size())
      return false;
  }

  // Replay Second over Mid: the final words, each carrying the Base index
  // it was copied from end to end (or -1 once either step synthesized it).
  std::vector<uint32_t> Final;
  std::vector<int> FinalSrc;
  {
    size_t Pos = 0;
    for (const EditPrim &P : Second.Prims) {
      switch (P.Op) {
      case EditOp::Copy:
        if (Pos + P.Count > Mid.size())
          return false;
        for (uint32_t K = 0; K < P.Count; ++K) {
          Final.push_back(Mid[Pos + K]);
          FinalSrc.push_back(MidSrc[Pos + K]);
        }
        Pos += P.Count;
        break;
      case EditOp::Remove:
        if (Pos + P.Count > Mid.size())
          return false;
        Pos += P.Count;
        break;
      case EditOp::Insert:
      case EditOp::Replace:
        if (P.Words.size() != P.Count)
          return false;
        if (P.Op == EditOp::Replace) {
          if (Pos + P.Count > Mid.size())
            return false;
          Pos += P.Count;
        }
        for (uint32_t Word : P.Words) {
          Final.push_back(Word);
          FinalSrc.push_back(-1);
        }
        break;
      }
    }
    if (Pos != Mid.size())
      return false;
  }

  // The surviving provenance is a valid alignment: both scripts copy in
  // order, so Base indices appear strictly increasing along Final.
  std::vector<std::pair<int, int>> Matches;
  for (size_t K = 0; K < FinalSrc.size(); ++K)
    if (FinalSrc[K] >= 0)
      Matches.push_back({FinalSrc[K], static_cast<int>(K)});
  Out = scriptFromMatches(Base, Final, Matches);
  telemetryCount("diff.compositions");
  return true;
}

bool ucc::applyEditScript(const std::vector<uint32_t> &Old,
                          const EditScript &Script,
                          std::vector<uint32_t> &Out) {
  Out.clear();
  size_t OldPos = 0;
  for (const EditPrim &P : Script.Prims) {
    switch (P.Op) {
    case EditOp::Copy:
      if (OldPos + P.Count > Old.size())
        return false;
      Out.insert(Out.end(), Old.begin() + OldPos,
                 Old.begin() + OldPos + P.Count);
      OldPos += P.Count;
      break;
    case EditOp::Remove:
      if (OldPos + P.Count > Old.size())
        return false;
      OldPos += P.Count;
      break;
    case EditOp::Insert:
      if (P.Words.size() != P.Count)
        return false;
      Out.insert(Out.end(), P.Words.begin(), P.Words.end());
      break;
    case EditOp::Replace:
      if (P.Words.size() != P.Count || OldPos + P.Count > Old.size())
        return false;
      Out.insert(Out.end(), P.Words.begin(), P.Words.end());
      OldPos += P.Count;
      break;
    }
  }
  return OldPos == Old.size();
}
