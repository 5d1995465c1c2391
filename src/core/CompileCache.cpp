//===- core/CompileCache.cpp - function-level compilation cache -----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/CompileCache.h"

#include "support/Hash.h"

#include <algorithm>
#include <cassert>

using namespace ucc;

namespace {

/// \p Index's position in \p Seen, appending it when it is new.
uint32_t ordinal(std::vector<int> &Seen, int Index) {
  auto It = std::find(Seen.begin(), Seen.end(), Index);
  if (It == Seen.end())
    It = Seen.insert(It, Index);
  return static_cast<uint32_t>(It - Seen.begin());
}

/// Writes a reference as its first-use ordinal (absent: -1).
void writeRef(KeyWriter &W, std::vector<int> &Seen, int Index) {
  W.i32(Index < 0 ? -1 : static_cast<int32_t>(ordinal(Seen, Index)));
}

/// Writes the interned names \p Refs resolve to under \p Names.
void writeNames(KeyWriter &W, const std::vector<int> &Refs,
                const SymbolTable &Names) {
  W.u32(static_cast<uint32_t>(Refs.size()));
  for (int R : Refs)
    W.u32(Names[static_cast<size_t>(R)]);
}

/// Canonical encoding of a post-opt IR function. Source locations are
/// deliberately excluded: they never influence generated code. Globals
/// and callees are written by first-use ordinal, then their names; \p Seen
/// ends as collectRefs(F).
void writeIRFunction(KeyWriter &W, const Function &F,
                     const SymbolTable &GlobalNames,
                     const SymbolTable &FunctionNames, SymbolRefs &Seen) {
  W.str(F.Name);
  W.ints(F.Params);
  W.i32(F.NumVRegs);
  W.strs(F.VRegNames);
  W.u32(static_cast<uint32_t>(F.FrameObjects.size()));
  for (const FrameObject &FO : F.FrameObjects) {
    W.str(FO.Name);
    W.i32(FO.SizeWords);
  }
  W.u32(static_cast<uint32_t>(F.Blocks.size()));
  for (const BasicBlock &BB : F.Blocks) {
    W.str(BB.Name);
    W.u32(static_cast<uint32_t>(BB.Instrs.size()));
    for (const Instr &I : BB.Instrs) {
      W.u8(static_cast<uint8_t>(I.Op));
      W.u8(static_cast<uint8_t>(I.BinK));
      W.u8(static_cast<uint8_t>(I.UnK));
      W.u8(static_cast<uint8_t>(I.PredK));
      W.i32(I.Dst);
      W.u32(static_cast<uint32_t>(I.Srcs.size()));
      for (VReg S : I.Srcs)
        W.i32(S);
      W.i64(I.Imm);
      writeRef(W, Seen.Globals, I.Global);
      W.i32(I.Slot);
      writeRef(W, Seen.Callees, I.Callee);
      W.i32(I.TrueBB);
      W.i32(I.FalseBB);
    }
  }
  writeNames(W, Seen.Globals, GlobalNames);
  writeNames(W, Seen.Callees, FunctionNames);
}

/// Canonical encoding of the previous version's final machine code for
/// one function (the old-record slice UCC-RA aligns against), with its
/// references written as writeIRFunction writes them.
void writeOldFunction(KeyWriter &W, const MachineFunction &MF,
                      const SymbolTable &GlobalNames,
                      const SymbolTable &FunctionNames) {
  W.str(MF.Name);
  W.i32(MF.NextVReg);
  W.strs(MF.VRegNames);
  W.u32(static_cast<uint32_t>(MF.FrameObjects.size()));
  for (const MFrameObject &FO : MF.FrameObjects) {
    W.str(FO.Name);
    W.i32(FO.SizeWords);
    W.u8(FO.IsSpill ? 1 : 0);
  }
  SymbolRefs Seen;
  W.u32(static_cast<uint32_t>(MF.Blocks.size()));
  for (const MBlock &BB : MF.Blocks) {
    W.str(BB.Name);
    W.ints(BB.Succs);
    W.u32(static_cast<uint32_t>(BB.Instrs.size()));
    for (const MInstr &I : BB.Instrs) {
      W.i32(static_cast<int32_t>(I.Op));
      W.i32(I.A);
      W.i32(I.B);
      W.i32(I.C);
      W.i32(I.VA);
      W.i32(I.VB);
      W.i32(I.VC);
      W.i32(I.Imm);
      W.i32(I.Target);
      writeRef(W, Seen.Callees, I.Callee);
      writeRef(W, Seen.Globals, I.GlobalIdx);
      W.i32(I.FrameIdx);
      W.i32(I.IRIndex);
    }
  }
  writeNames(W, Seen.Globals, GlobalNames);
  writeNames(W, Seen.Callees, FunctionNames);
}

/// The index at \p Index's position of \p From in \p To.
void remap(int &Index, const std::vector<int> &From,
           const std::vector<int> &To) {
  if (Index < 0)
    return;
  auto It = std::find(From.begin(), From.end(), Index);
  assert(It != From.end() && "reference outside the function's refs");
  Index = To[static_cast<size_t>(It - From.begin())];
}

} // namespace

SymbolRefs ucc::collectRefs(const Function &F) {
  SymbolRefs Refs;
  for (const BasicBlock &BB : F.Blocks)
    for (const Instr &I : BB.Instrs) {
      if (I.Global >= 0)
        ordinal(Refs.Globals, I.Global);
      if (I.Callee >= 0)
        ordinal(Refs.Callees, I.Callee);
    }
  return Refs;
}

void ucc::rebind(Function &F, const SymbolRefs &From, const SymbolRefs &To) {
  if (From == To)
    return;
  for (BasicBlock &BB : F.Blocks)
    for (Instr &I : BB.Instrs) {
      remap(I.Global, From.Globals, To.Globals);
      remap(I.Callee, From.Callees, To.Callees);
    }
}

void ucc::rebind(MachineFunction &MF, const SymbolRefs &From,
                 const SymbolRefs &To) {
  if (From == To)
    return;
  for (MBlock &BB : MF.Blocks)
    for (MInstr &I : BB.Instrs) {
      remap(I.GlobalIdx, From.Globals, To.Globals);
      remap(I.Callee, From.Callees, To.Callees);
    }
}

CompileCache::Key CompileCache::buildKey(const CompileKeyInputs &In,
                                         SymbolRefs *Refs) {
  Key K;
  K.reserve(256);
  KeyWriter W(K);
  W.u8('C');
  W.u8(2); // schema version
  W.u8(In.RAKind);
  W.u8(In.DAKind);
  W.u8(In.UseUcc ? 1 : 0);
  W.u8(In.UccFrames ? 1 : 0);
  W.i32(In.SpaceT);
  if (In.UseUcc) {
    const UccAllocOptions &U = *In.Ucc;
    W.i32(U.ChunkK);
    W.f64(U.Cnt);
    W.f64(U.EtransInstr);
    W.f64(U.EexeCycle);
    W.u8(U.EnableSplits ? 1 : 0);
    W.u8(static_cast<uint8_t>(U.Strategy));
    W.i32(U.IlpMaxBinaries);
    W.f64(U.IlpTimeLimitSec);
    W.doubles(*In.Freq);
  }
  SymbolRefs Seen;
  writeIRFunction(W, *In.F, *In.GlobalNames, *In.FunctionNames, Seen);
  if (Refs)
    *Refs = std::move(Seen);
  if (In.OldFinal) {
    W.u8(1);
    writeOldFunction(W, *In.OldFinal, *In.OldGlobalNames,
                     *In.OldFunctionNames);
    if (In.UccFrames && In.OldFrameOffsets) {
      W.u8(1);
      W.ints(*In.OldFrameOffsets);
    } else {
      W.u8(0);
    }
  } else {
    W.u8(0);
  }
  return K;
}

CompiledFunction CompileCache::lookupOrCompute(
    const Key &K, const std::function<CompiledFunction()> &Compute,
    bool *WasHit) {
  return Memo.getOrCompute(K, fnv1a(K), Compute, WasHit);
}

std::shared_ptr<const FrontTable> CompileCache::frontTable() const {
  std::lock_guard<std::mutex> Lock(FrontLock);
  return Front;
}

void CompileCache::storeFrontTable(std::shared_ptr<const FrontTable> Table,
                                   uint64_t Hits, uint64_t Misses) {
  std::lock_guard<std::mutex> Lock(FrontLock);
  Front.swap(Table);
  FrontHits += Hits;
  FrontMisses += Misses;
}

CompileCacheStats CompileCache::stats() const { return Memo.counts(); }

CompileCacheStats CompileCache::frontStats() const {
  std::lock_guard<std::mutex> Lock(FrontLock);
  CompileCacheStats S;
  S.Hits = FrontHits;
  S.Misses = FrontMisses;
  S.Entries = Front ? Front->size() : 0;
  return S;
}

void CompileCache::clear() {
  Memo.clear();
  std::lock_guard<std::mutex> Lock(FrontLock);
  Front.reset();
}
