//===- core/CompileCache.cpp - function-level compilation cache -----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/CompileCache.h"

#include "frontend/AST.h"
#include "support/Hash.h"

using namespace ucc;

namespace {

/// Canonical encoding of a post-opt IR function. Source locations are
/// deliberately excluded: they never influence generated code.
void writeIRFunction(KeyWriter &W, const Function &F) {
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
      W.i32(I.Global);
      W.i32(I.Slot);
      W.i32(I.Callee);
      W.i32(I.TrueBB);
      W.i32(I.FalseBB);
    }
  }
}

/// Canonical encoding of the previous version's final machine code for
/// one function (the old-record slice UCC-RA aligns against).
void writeOldFunction(KeyWriter &W, const MachineFunction &MF) {
  W.str(MF.Name);
  W.i32(MF.NextVReg);
  W.strs(MF.VRegNames);
  W.u32(static_cast<uint32_t>(MF.FrameObjects.size()));
  for (const MFrameObject &FO : MF.FrameObjects) {
    W.str(FO.Name);
    W.i32(FO.SizeWords);
    W.u8(FO.IsSpill ? 1 : 0);
  }
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
      W.i32(I.Callee);
      W.i32(I.GlobalIdx);
      W.i32(I.FrameIdx);
      W.i32(I.IRIndex);
    }
  }
}

} // namespace

uint64_t ucc::digestNameTables(const std::vector<std::string> &GlobalNames,
                               const std::vector<std::string> &FunctionNames) {
  std::vector<uint8_t> Bytes;
  KeyWriter W(Bytes);
  W.strs(GlobalNames);
  W.strs(FunctionNames);
  return fnv1a(Bytes);
}

uint64_t ucc::digestModuleNames(const Module &M) {
  std::vector<uint8_t> Bytes;
  KeyWriter W(Bytes);
  W.u32(static_cast<uint32_t>(M.Globals.size()));
  for (const GlobalVar &G : M.Globals)
    W.str(G.Name);
  W.u32(static_cast<uint32_t>(M.Functions.size()));
  for (const Function &F : M.Functions)
    W.str(F.Name);
  return fnv1a(Bytes);
}

uint64_t ucc::digestSignatures(const ProgramAST &Program) {
  std::vector<uint8_t> Bytes;
  KeyWriter W(Bytes);
  W.u32(static_cast<uint32_t>(Program.Globals.size()));
  for (const GlobalDecl &G : Program.Globals) {
    W.str(G.Name);
    W.i32(G.ArraySize);
  }
  W.u32(static_cast<uint32_t>(Program.Functions.size()));
  for (const FuncDecl &F : Program.Functions) {
    W.str(F.Name);
    W.u32(static_cast<uint32_t>(F.Params.size()));
    W.u8(F.ReturnsInt ? 1 : 0);
  }
  return fnv1a(Bytes);
}

CompileCache::Key CompileCache::buildFrontKey(std::string_view Text,
                                              unsigned StartCol, int BlockBase,
                                              uint64_t SignatureDigest,
                                              size_t Index) {
  Key K;
  K.reserve(Text.size() + 32);
  KeyWriter W(K);
  W.u8('F');
  W.u8(1); // schema version
  W.u64(SignatureDigest);
  W.u32(static_cast<uint32_t>(Index));
  W.i32(BlockBase);
  W.u32(StartCol);
  W.str(Text);
  return K;
}

CompileCache::Key CompileCache::buildKey(const CompileKeyInputs &In) {
  Key K;
  K.reserve(256);
  KeyWriter W(K);
  W.u8('C');
  W.u8(1); // schema version
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
  W.u64(In.NewNamesDigest);
  writeIRFunction(W, *In.F);
  if (In.OldFinal) {
    W.u8(1);
    writeOldFunction(W, *In.OldFinal);
    W.u64(In.OldNamesDigest);
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
