//===- opt/Passes.cpp ---------------------------------------------------------==//

#include "opt/Passes.h"

#include "analysis/Dataflow.h"
#include "analysis/IRAnalysis.h"

#include <cstddef>

using namespace ucc;

// The block-local passes keep their facts in flat per-vreg arrays that live
// for one call and are reused across blocks, instead of a map per block.
// A fact is tagged with the (1-based) number of the block that recorded it,
// so moving to the next block forgets every fact at once. A fact that
// depends on another vreg also records that vreg's definition count at the
// time: any later definition bumps the count, which invalidates every
// dependent fact without searching for them.

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

bool ucc::foldConstants(Function &F) {
  bool Changed = false;
  size_t NumVRegs = static_cast<size_t>(F.NumVRegs);
  // vreg -> known constant value, valid while KnownIn[vreg] is this block.
  std::vector<int16_t> Value(NumVRegs);
  std::vector<unsigned> KnownIn(NumVRegs, 0);
  unsigned Block = 0;
  for (BasicBlock &BB : F.Blocks) {
    ++Block;
    auto known = [&](VReg R) {
      return KnownIn[static_cast<size_t>(R)] == Block;
    };
    auto value = [&](VReg R) { return Value[static_cast<size_t>(R)]; };
    for (Instr &I : BB.Instrs) {
      switch (I.Op) {
      case Opcode::Bin:
        if (known(I.Srcs[0]) && known(I.Srcs[1])) {
          int16_t V = evalBin(I.BinK, value(I.Srcs[0]), value(I.Srcs[1]));
          I.Op = Opcode::Const;
          I.Imm = V;
          I.Srcs.clear();
          Changed = true;
        }
        break;
      case Opcode::Un:
        if (known(I.Srcs[0])) {
          I.Op = Opcode::Const;
          I.Imm = evalUn(I.UnK, value(I.Srcs[0]));
          I.Srcs.clear();
          Changed = true;
        }
        break;
      // Note: Mov of a known constant is deliberately *not* rewritten into
      // a Const here — CSE canonicalizes duplicate constants into copies,
      // and folding them back would oscillate. Copy propagation and DCE
      // clean copies up instead; the known values below still track the
      // value through the move.
      case Opcode::CondBr:
        if (known(I.Srcs[0]) && known(I.Srcs[1])) {
          bool Taken =
              evalCmp(I.PredK, value(I.Srcs[0]), value(I.Srcs[1]));
          I.Op = Opcode::Br;
          I.TrueBB = Taken ? I.TrueBB : I.FalseBB;
          I.FalseBB = -1;
          I.Srcs.clear();
          Changed = true;
        }
        break;
      default:
        break;
      }

      // Update the known values after the (possibly rewritten) instruction.
      if (!I.hasDst())
        continue;
      size_t D = static_cast<size_t>(I.Dst);
      if (I.Op == Opcode::Const) {
        KnownIn[D] = Block;
        Value[D] = static_cast<int16_t>(I.Imm);
      } else if (I.Op == Opcode::Mov && known(I.Srcs[0])) {
        KnownIn[D] = Block;
        Value[D] = value(I.Srcs[0]);
      } else {
        KnownIn[D] = 0;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

bool ucc::propagateCopies(Function &F) {
  bool Changed = false;
  size_t NumVRegs = static_cast<size_t>(F.NumVRegs);
  // Active copies: CopySrc[d] for a `d = mov s` of this block (CopyIn[d]),
  // valid while s keeps the definition count CopyVer[d].
  std::vector<VReg> CopySrc(NumVRegs);
  std::vector<unsigned> CopyVer(NumVRegs), CopyIn(NumVRegs, 0);
  std::vector<unsigned> Defs(NumVRegs, 0);
  unsigned Block = 0;
  for (BasicBlock &BB : F.Blocks) {
    ++Block;
    for (Instr &I : BB.Instrs) {
      for (VReg &S : I.Srcs) {
        size_t K = static_cast<size_t>(S);
        if (CopyIn[K] == Block &&
            Defs[static_cast<size_t>(CopySrc[K])] == CopyVer[K]) {
          S = CopySrc[K];
          Changed = true;
        }
      }
      if (I.hasDst()) {
        size_t D = static_cast<size_t>(I.Dst);
        CopyIn[D] = 0;
        ++Defs[D];
        if (I.Op == Opcode::Mov && I.Srcs[0] != I.Dst) {
          CopyIn[D] = Block;
          CopySrc[D] = I.Srcs[0];
          CopyVer[D] = Defs[static_cast<size_t>(I.Srcs[0])];
        }
      }
      // Calls can't modify vregs of this function; nothing else to kill.
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local CSE
//===----------------------------------------------------------------------===//

namespace {

/// Key identifying a pure computation for CSE: the operation and its
/// operands, each at its current definition count, so a redefined operand
/// yields a different key.
struct ExprKey {
  Opcode Op;
  int SubKind; // BinKind or UnKind
  int64_t Imm;
  VReg Src0, Src1;
  unsigned Ver0, Ver1;

  bool operator==(const ExprKey &RHS) const {
    return Op == RHS.Op && SubKind == RHS.SubKind && Imm == RHS.Imm &&
           Src0 == RHS.Src0 && Src1 == RHS.Src1 && Ver0 == RHS.Ver0 &&
           Ver1 == RHS.Ver1;
  }
};

/// Available expressions of one block: an open-addressing table reused
/// across blocks, emptied in O(1) by advancing its block number.
class ExprTable {
public:
  struct Entry {
    ExprKey Key;
    VReg Holder;        ///< vreg holding the value
    unsigned HolderVer; ///< Holder's definition count when it was computed
    unsigned Block = 0; ///< entry is live only while this is Table's block
  };

  /// Starts a block of at most \p MaxEntries keyed instructions.
  void startBlock(size_t MaxEntries) {
    size_t Cap = 16;
    while (Cap < 2 * MaxEntries)
      Cap *= 2;
    if (Entries.size() < Cap)
      Entries.assign(Cap, Entry{});
    ++Block;
  }

  /// The entry for \p K in this block, or the free entry where it goes.
  Entry &find(const ExprKey &K) {
    uint64_t H = static_cast<uint64_t>(K.Op) * 31 +
                 static_cast<uint64_t>(K.SubKind);
    H = H * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(K.Imm);
    H = H * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(K.Src0);
    H = H * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(K.Src1);
    H = H * 0x9e3779b97f4a7c15ULL + K.Ver0 * 65599u + K.Ver1;
    size_t Mask = Entries.size() - 1;
    for (size_t I = (H ^ (H >> 29)) & Mask;; I = (I + 1) & Mask) {
      Entry &E = Entries[I];
      if (E.Block != Block || E.Key == K)
        return E;
    }
  }

  /// Whether \p E, from find(), holds an expression of this block.
  bool inBlock(const Entry &E) const { return E.Block == Block; }

  /// Makes \p E, from find(), the entry for \p K in this block.
  void fill(Entry &E, const ExprKey &K, VReg Holder, unsigned HolderVer) {
    E = Entry{K, Holder, HolderVer, Block};
  }

private:
  std::vector<Entry> Entries;
  unsigned Block = 0;
};

} // namespace

bool ucc::eliminateCommonSubexprs(Function &F) {
  bool Changed = false;
  // Definition count per vreg: bumping it retires every available
  // expression that reads the vreg or is held in it.
  std::vector<unsigned> Defs(static_cast<size_t>(F.NumVRegs), 0);
  auto ver = [&](VReg R) { return Defs[static_cast<size_t>(R)]; };
  ExprTable Available;
  for (BasicBlock &BB : F.Blocks) {
    Available.startBlock(BB.Instrs.size());
    for (Instr &I : BB.Instrs) {
      ExprKey Key;
      switch (I.Op) {
      case Opcode::Const:
        Key = ExprKey{Opcode::Const, 0, I.Imm, -1, -1, 0, 0};
        break;
      case Opcode::Bin:
        Key = ExprKey{Opcode::Bin, static_cast<int>(I.BinK), 0, I.Srcs[0],
                      I.Srcs[1], ver(I.Srcs[0]), ver(I.Srcs[1])};
        break;
      case Opcode::Un:
        Key = ExprKey{Opcode::Un, static_cast<int>(I.UnK), 0, I.Srcs[0], -1,
                      ver(I.Srcs[0]), 0};
        break;
      default:
        if (I.hasDst())
          ++Defs[static_cast<size_t>(I.Dst)];
        continue;
      }

      ExprTable::Entry &E = Available.find(Key);
      bool Hit = Available.inBlock(E) && ver(E.Holder) == E.HolderVer;
      ++Defs[static_cast<size_t>(I.Dst)];
      if (Hit && E.Holder != I.Dst) {
        // Replace the computation with a copy from the existing value.
        I.Op = Opcode::Mov;
        I.Srcs = {E.Holder};
        I.Imm = 0;
        Changed = true;
        continue;
      }
      Available.fill(E, Key, I.Dst, ver(I.Dst));
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dead-code elimination
//===----------------------------------------------------------------------===//

static bool isPure(const Instr &I) {
  switch (I.Op) {
  case Opcode::Const:
  case Opcode::Mov:
  case Opcode::Bin:
  case Opcode::Un:
  case Opcode::LoadG:
  case Opcode::LoadF:
    return true;
  default:
    return false;
  }
}

// One liveness fixpoint, then one backward sweep per block with a running
// live set: a pure instruction whose result is not live is dropped (its
// operands stay unread), anything else kills its def and reads its uses.
// So one sweep removes a whole dead chain inside a block. Removing a dead
// pure instruction only shrinks liveness everywhere, so whatever is dead
// stays dead and the set the fixpoint removes is unique; another round is
// needed only when a sweep removed something, since that may have made a
// predecessor block's value dead.
bool ucc::eliminateDeadCode(Function &F) {
  bool Changed = false;
  BitVector Live;
  for (bool Removed = true; Removed;) {
    Removed = false;
    Liveness L = computeIRLiveness(F);
    for (size_t B = 0; B < F.Blocks.size(); ++B) {
      std::vector<Instr> &Instrs = F.Blocks[B].Instrs;
      Live = L.LiveOut[B];
      // Kept instructions are packed at the tail, in order, from Keep on.
      size_t Keep = Instrs.size();
      for (size_t K = Instrs.size(); K-- > 0;) {
        Instr &I = Instrs[K];
        if (isPure(I) && I.hasDst() &&
            !Live.test(static_cast<size_t>(I.Dst))) {
          Removed = true;
          continue;
        }
        if (I.hasDst())
          Live.reset(static_cast<size_t>(I.Dst));
        for (VReg S : I.Srcs)
          Live.set(static_cast<size_t>(S));
        if (--Keep != K)
          Instrs[Keep] = std::move(I);
      }
      Instrs.erase(Instrs.begin(),
                   Instrs.begin() + static_cast<std::ptrdiff_t>(Keep));
    }
    Changed |= Removed;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// CFG simplification
//===----------------------------------------------------------------------===//

bool ucc::simplifyCFG(Function &F) {
  bool Changed = false;

  // 1. Thread branches through trivial forwarding blocks (a single `br`).
  auto forwardTarget = [&](int B) -> int {
    const BasicBlock &BB = F.Blocks[static_cast<size_t>(B)];
    if (BB.Instrs.size() == 1 && BB.Instrs[0].Op == Opcode::Br &&
        BB.Instrs[0].TrueBB != B)
      return BB.Instrs[0].TrueBB;
    return -1;
  };

  for (BasicBlock &BB : F.Blocks) {
    if (BB.Instrs.empty())
      continue;
    Instr &T = BB.Instrs.back();
    auto thread = [&](int &Target) {
      // Follow forwarding chains with a step bound to survive cycles.
      for (int Steps = 0; Steps < 8; ++Steps) {
        int Next = forwardTarget(Target);
        if (Next < 0)
          break;
        Target = Next;
        Changed = true;
      }
    };
    if (T.Op == Opcode::Br)
      thread(T.TrueBB);
    if (T.Op == Opcode::CondBr) {
      thread(T.TrueBB);
      thread(T.FalseBB);
      if (T.TrueBB == T.FalseBB) {
        T.Op = Opcode::Br;
        T.Srcs.clear();
        T.FalseBB = -1;
        Changed = true;
      }
    }
  }

  // 2. Remove unreachable blocks, remapping indices.
  size_t N = F.Blocks.size();
  std::vector<bool> Reachable(N, false);
  std::vector<int> Stack = {0};
  Reachable[0] = true;
  while (!Stack.empty()) {
    int B = Stack.back();
    Stack.pop_back();
    for (int S : F.Blocks[static_cast<size_t>(B)].successors()) {
      if (!Reachable[static_cast<size_t>(S)]) {
        Reachable[static_cast<size_t>(S)] = true;
        Stack.push_back(S);
      }
    }
  }

  bool AnyUnreachable = false;
  for (size_t B = 0; B < N; ++B)
    AnyUnreachable |= !Reachable[B];
  if (!AnyUnreachable)
    return Changed;

  std::vector<int> NewIndex(N, -1);
  std::vector<BasicBlock> NewBlocks;
  for (size_t B = 0; B < N; ++B) {
    if (!Reachable[B])
      continue;
    NewIndex[B] = static_cast<int>(NewBlocks.size());
    NewBlocks.push_back(std::move(F.Blocks[B]));
  }
  for (BasicBlock &BB : NewBlocks) {
    for (Instr &I : BB.Instrs) {
      if (I.TrueBB >= 0)
        I.TrueBB = NewIndex[static_cast<size_t>(I.TrueBB)];
      if (I.FalseBB >= 0)
        I.FalseBB = NewIndex[static_cast<size_t>(I.FalseBB)];
    }
  }
  F.Blocks = std::move(NewBlocks);
  return true;
}

//===----------------------------------------------------------------------===//
// Pipeline driver
//===----------------------------------------------------------------------===//

bool ucc::optimizeFunction(Function &F) {
  bool EverChanged = false;
  // Bounded fixpoint: each pass is monotone (shrinks or simplifies the
  // function), so a handful of rounds always suffices in practice.
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    Changed |= simplifyCFG(F);
    Changed |= foldConstants(F);
    Changed |= propagateCopies(F);
    Changed |= eliminateCommonSubexprs(F);
    Changed |= eliminateDeadCode(F);
    EverChanged |= Changed;
    if (!Changed)
      break;
  }
  return EverChanged;
}

bool ucc::optimizeModule(Module &M) {
  bool EverChanged = false;
  for (Function &F : M.Functions)
    EverChanged |= optimizeFunction(F);
  return EverChanged;
}
