//===- regalloc/UccAlloc.cpp - update-conscious register allocation -------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// UCC-RA implementation: LCS alignment of the new pre-allocation code
/// against the old final code, chunking with threshold K, the greedy
/// preference/split planner, and the bridge into the full ILP window model
/// for straight-line functions. Per-function UccAllocStats are mirrored
/// into the telemetry registry (`ra.*`) on every exit path.
///
//===----------------------------------------------------------------------===//

#include "regalloc/UccAlloc.h"

#include "diff/Align.h"
#include "regalloc/LiveIntervals.h"
#include "regalloc/UccIlpModel.h"

#include "support/Arena.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace ucc;

std::vector<std::vector<bool>>
ucc::computeDominators(const MachineFunction &MF) {
  size_t N = MF.Blocks.size();
  std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, true));
  if (N == 0)
    return Dom;
  // Entry dominated only by itself.
  Dom[0].assign(N, false);
  Dom[0][0] = true;

  std::vector<std::vector<int>> Preds(N);
  for (size_t B = 0; B < N; ++B)
    for (int S : MF.Blocks[B].Succs)
      Preds[static_cast<size_t>(S)].push_back(static_cast<int>(B));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = 1; B < N; ++B) {
      std::vector<bool> NewDom(N, true);
      bool AnyPred = false;
      for (int P : Preds[B]) {
        AnyPred = true;
        for (size_t K = 0; K < N; ++K)
          NewDom[K] = NewDom[K] && Dom[static_cast<size_t>(P)][K];
      }
      if (!AnyPred)
        NewDom.assign(N, false); // unreachable
      NewDom[B] = true;
      if (NewDom != Dom[B]) {
        Dom[B] = std::move(NewDom);
        Changed = true;
      }
    }
  }
  return Dom;
}

namespace {

/// Structural similarity of two machine instructions across program
/// versions: same opcode and same version-independent operands (immediates,
/// symbol names, branch shape). Register operands are deliberately ignored
/// — deciding them identically is UCC-RA's whole job.
bool instrsSimilar(const MInstr &O, int OldBlock, const MachineFunction &OldF,
                   const MInstr &N, int NewBlock, const MachineFunction &NewF,
                   const UccContext &Ctx) {
  if (O.Op != N.Op)
    return false;
  switch (O.Op) {
  case MOp::LDI:
  case MOp::IN:
  case MOp::OUT:
    return O.Imm == N.Imm;
  case MOp::JMP:
  case MOp::BEQ:
  case MOp::BNE:
  case MOp::BLT:
  case MOp::BGE:
  case MOp::BGT:
  case MOp::BLE:
    // Compare the branch's block-relative shape.
    return (O.Target - OldBlock) == (N.Target - NewBlock);
  case MOp::CALL:
    return (*Ctx.OldFunctionNames)[static_cast<size_t>(O.Callee)] ==
           (*Ctx.NewFunctionNames)[static_cast<size_t>(N.Callee)];
  case MOp::LDG:
  case MOp::STG:
  case MOp::LDGX:
  case MOp::STGX:
    return (*Ctx.OldGlobalNames)[static_cast<size_t>(O.GlobalIdx)] ==
           (*Ctx.NewGlobalNames)[static_cast<size_t>(N.GlobalIdx)];
  case MOp::LDF:
  case MOp::STF:
  case MOp::LDFX:
  case MOp::STFX:
    // Frame objects are identified by (uniquified) name, which is derived
    // from the source variable and thus stable across versions.
    return OldF.FrameObjects[static_cast<size_t>(O.FrameIdx)].Name ==
           NewF.FrameObjects[static_cast<size_t>(N.FrameIdx)].Name;
  default:
    return true;
  }
}

/// One flattened instruction reference.
struct Flat {
  const MInstr *I;
  int Block;
  int IndexInBlock;
};

/// Per-round scratch lives in a bump arena: flattened instruction lists,
/// the match table, and the chunk mask are short-lived and allocation-hot.
using FlatList = ArenaVector<Flat>;
using IntList = ArenaVector<int>;
using BoolList = ArenaVector<bool>;

FlatList flatten(const MachineFunction &MF, Arena &A) {
  FlatList Out = makeArenaVector<Flat>(A);
  Out.reserve(static_cast<size_t>(MF.instrCount()));
  for (size_t B = 0; B < MF.Blocks.size(); ++B)
    for (size_t K = 0; K < MF.Blocks[B].Instrs.size(); ++K)
      Out.push_back(Flat{&MF.Blocks[B].Instrs[K], static_cast<int>(B),
                         static_cast<int>(K)});
  return Out;
}

/// The per-variable allocation plan.
struct Plan {
  enum class Kind { Whole, Split, Spill } K = Kind::Whole;
  int WholeReg = -1;
  // Split: EarlyReg on [Start, MovPos), LateReg from MovPos on; a
  // `mov LateReg, EarlyReg` is inserted immediately before MovPos.
  int EarlyReg = -1;
  int LateReg = -1;
  int MovPos = -1;

  int regAt(int Pos) const {
    if (K == Kind::Whole)
      return WholeReg;
    return Pos < MovPos ? EarlyReg : LateReg;
  }
};

/// Tracks which linear ranges each physical register is claimed for.
class RegClaims {
public:
  explicit RegClaims(const IntervalAnalysis &IA) : IA(IA) {}

  bool freeOn(int Reg, int Start, int End) const {
    if (IA.physBusyInRange(Reg, Start, End))
      return false;
    for (const auto &[S, E] : Claims[static_cast<size_t>(Reg)])
      if (S <= End && Start <= E)
        return false;
    return true;
  }

  void claim(int Reg, int Start, int End) {
    Claims[static_cast<size_t>(Reg)].push_back({Start, End});
  }

private:
  const IntervalAnalysis &IA;
  std::vector<std::vector<std::pair<int, int>>> Claims{
      static_cast<size_t>(NumPhysRegs)};
};

/// Everything known about one virtual register during planning.
struct VRegInfo {
  int VReg = -1;
  LiveInterval Interval;
  std::vector<std::pair<int, int>> Anchors; ///< (pos, required phys reg)
  int SoftPref = -1; ///< preference without an unchanged-chunk anchor
  std::vector<int> DefPositions;
  std::vector<int> OccPositions; ///< every referencing position
};

/// Attempts the paper's full ILP on a straight-line (single-block)
/// function. Returns true when the model fit the budget, solved, and was
/// applied; false falls back to the greedy engine.
bool tryIlpSingleBlock(MachineFunction &MF, const FlatList &NewLin,
                       const FlatList &OldLin, const IntList &MatchedOld,
                       const BoolList &InChangedChunk,
                       const UccAllocOptions &Opts,
                       const std::vector<double> &Freq,
                       const IntervalAnalysis &IA, UccAllocStats &Stats) {
  if (MF.Blocks.size() != 1)
    return false;
  size_t NewN = NewLin.size();

  // Window variable ids for every virtual register.
  std::map<int, int> VarOf;
  std::vector<int> VRegOf;
  auto varId = [&](int VReg) {
    auto [It, Inserted] = VarOf.emplace(VReg, static_cast<int>(VRegOf.size()));
    if (Inserted)
      VRegOf.push_back(VReg);
    return It->second;
  };

  WindowSpec Spec;
  Spec.NumRegs = NumPhysRegs;
  Spec.Etrans = Opts.EtransInstr;
  Spec.Eexe = Opts.EexeCycle;
  Spec.Cnt = Opts.Cnt;
  Spec.Instrs.reserve(NewN);

  // Which MInstr field each use slot reads (parallel to WindowInstr.Uses).
  struct SlotRef {
    int MInstr::*Reg;
    int MInstr::*Prov;
  };
  std::vector<std::vector<SlotRef>> UseSlots(NewN);

  for (size_t J = 0; J < NewN; ++J) {
    MInstr &I = MF.Blocks[0].Instrs[J];
    const MInstr *O =
        MatchedOld[J] >= 0 ? OldLin[static_cast<size_t>(MatchedOld[J])].I
                           : nullptr;
    bool Anchor = O && !InChangedChunk[J];

    WindowInstr W;
    W.Changed = InChangedChunk[J];
    int IRIdx = I.IRIndex;
    W.Freq = (IRIdx >= 0 && IRIdx < static_cast<int>(Freq.size()))
                 ? Freq[static_cast<size_t>(IRIdx)]
                 : 1.0;
    uint16_t Mask = 0;
    for (int R = 0; R < NumPhysRegs; ++R)
      if (IA.PhysBusy[static_cast<size_t>(R)].test(J))
        Mask |= static_cast<uint16_t>(1u << R);
    W.BusyMask = Mask;

    RegList Uses;
    minstrUses(I, Uses);
    auto addUse = [&](int MInstr::*Reg, int MInstr::*Prov, int OldReg) {
      if (I.*Reg < 0 || !isVirtReg(I.*Reg) || !Uses.contains(I.*Reg))
        return;
      W.Uses.push_back(varId(I.*Reg));
      W.UsePref.push_back(Anchor && isPhysReg(OldReg) ? OldReg : -1);
      UseSlots[J].push_back(SlotRef{Reg, Prov});
    };
    addUse(&MInstr::A, &MInstr::VA, O ? O->A : -1);
    addUse(&MInstr::B, &MInstr::VB, O ? O->B : -1);
    addUse(&MInstr::C, &MInstr::VC, O ? O->C : -1);

    RegList Defs;
    minstrDefs(I, Defs);
    if (!Defs.empty() && isVirtReg(Defs[0]) && !mopIsCall(I.Op)) {
      W.Def = varId(I.A);
      W.DefPref = Anchor && O && isPhysReg(O->A) ? O->A : -1;
    }
    Spec.Instrs.push_back(std::move(W));
  }
  Spec.NumVars = static_cast<int>(VRegOf.size());
  Spec.EntryReg.assign(static_cast<size_t>(Spec.NumVars), -1);
  Spec.ExitReg.assign(static_cast<size_t>(Spec.NumVars), -1);
  Spec.LiveOut.assign(static_cast<size_t>(Spec.NumVars), false);

  WindowModelStats ModelStats = windowModelStats(Spec);
  if (ModelStats.NumBinaries > Opts.IlpMaxBinaries)
    return false;

  ILPOptions IO;
  IO.TimeLimitSec = Opts.IlpTimeLimitSec;
  WindowSolution Sol = solveWindowCached(Spec, IO, /*UsePrefHint=*/true);
  if (Sol.Status != SolveStatus::Optimal &&
      Sol.Status != SolveStatus::Feasible)
    return false;

  // --- Apply: substitute operand registers.
  for (size_t J = 0; J < NewN; ++J) {
    MInstr &I = MF.Blocks[0].Instrs[J];
    const WindowInstr &W = Spec.Instrs[J];
    for (size_t Slot = 0; Slot < UseSlots[J].size(); ++Slot) {
      SlotRef Ref = UseSlots[J][Slot];
      I.*(Ref.Prov) = I.*(Ref.Reg);
      I.*(Ref.Reg) = Sol.UseRegs[J][Slot];
      assert(isPhysReg(I.*(Ref.Reg)) && "ILP left a use unassigned");
    }
    if (W.Def >= 0) {
      I.VA = I.A;
      I.A = Sol.DefReg[J];
      assert(isPhysReg(I.A) && "ILP left a def unassigned");
    }
  }

  // --- Apply: insert movs and spill code.
  std::vector<int> SlotOfVar(static_cast<size_t>(Spec.NumVars), -1);
  auto spillSlot = [&](int Var) {
    if (SlotOfVar[static_cast<size_t>(Var)] < 0)
      SlotOfVar[static_cast<size_t>(Var)] = MF.makeFrameObject(
          format("ilpspill.%d", Var), 1, /*IsSpill=*/true);
    return SlotOfVar[static_cast<size_t>(Var)];
  };

  std::vector<std::vector<MInstr>> Before(NewN), After(NewN);
  for (const WindowSolution::MovOp &M : Sol.Movs) {
    MInstr Mov;
    Mov.Op = MOp::MOV;
    Mov.A = M.ToReg;
    Mov.B = M.FromReg;
    Mov.VA = VRegOf[static_cast<size_t>(M.Var)];
    Mov.VB = Mov.VA;
    Mov.IRIndex = NewLin[static_cast<size_t>(M.Stmt)].I->IRIndex;
    Before[static_cast<size_t>(M.Stmt)].push_back(Mov);
  }
  for (const WindowSolution::SpillOp &S : Sol.Spills) {
    MInstr Op;
    Op.FrameIdx = spillSlot(S.Var);
    Op.A = S.Reg;
    Op.VA = VRegOf[static_cast<size_t>(S.Var)];
    if (S.IsLoad) {
      Op.Op = MOp::LDF;
      Op.IRIndex = NewLin[static_cast<size_t>(S.Stmt)].I->IRIndex;
      Before[static_cast<size_t>(S.Stmt)].push_back(Op);
    } else {
      Op.Op = MOp::STF;
      int AfterStmt = S.Stmt - 1; // stores land after the prior statement
      Op.IRIndex = NewLin[static_cast<size_t>(AfterStmt)].I->IRIndex;
      After[static_cast<size_t>(AfterStmt)].push_back(Op);
    }
  }

  std::vector<MInstr> Rebuilt;
  Rebuilt.reserve(NewN + Sol.Movs.size() + Sol.Spills.size());
  for (size_t J = 0; J < NewN; ++J) {
    for (const MInstr &I : Before[J])
      Rebuilt.push_back(I);
    Rebuilt.push_back(MF.Blocks[0].Instrs[J]);
    for (const MInstr &I : After[J])
      Rebuilt.push_back(I);
  }
  MF.Blocks[0].Instrs = std::move(Rebuilt);

  Stats.UsedIlp = true;
  Stats.IlpPivots = Sol.Pivots;
  Stats.InsertedMovs = Sol.InsertedMovs;
  Stats.PrefHonored = Sol.PrefHonored;
  Stats.PrefBroken = Sol.PrefBroken;
  Stats.SpilledVRegs += Sol.SpillLoads > 0 ? 1 : 0;

  if (Telemetry *T = currentTelemetry()) {
    T->addCounter("ra.ilp_binaries", Sol.NumBinaries);
    T->addCounter("ra.ilp_constraints", Sol.NumConstraints);
    // The theta approximation (eq. 15) charges Theta*Etrans per broken
    // operand slot; the true nonlinear objective (eq. 12) charges Etrans
    // once per unchanged statement with any broken slot. Measure the gap
    // on the solution actually chosen.
    int BrokenStmts = 0;
    for (size_t J = 0; J < Spec.Instrs.size(); ++J) {
      const WindowInstr &W = Spec.Instrs[J];
      if (W.Changed)
        continue;
      bool Broken = false;
      for (size_t Slot = 0; Slot < W.Uses.size(); ++Slot)
        if (W.UsePref[Slot] >= 0 &&
            Sol.UseRegs[J][Slot] != W.UsePref[Slot])
          Broken = true;
      if (W.Def >= 0 && W.DefPref >= 0 && Sol.DefReg[J] != W.DefPref)
        Broken = true;
      BrokenStmts += Broken;
    }
    double Nonlinear = Spec.Etrans * BrokenStmts;
    double Linearized = Spec.Theta * Spec.Etrans * Sol.PrefBroken;
    T->addGauge("ra.theta_gap_joules", Nonlinear - Linearized);
  }
  return true;
}

} // namespace

UccAllocStats ucc::allocateUcc(MachineFunction &MF, const UccContext &Ctx,
                               const UccAllocOptions &Opts,
                               const std::vector<double> &Freq) {
  UccAllocStats Stats;

  // Mirrors the final Stats into the `ra.*` telemetry counters on every
  // exit path (no-op without an active registry).
  struct StatsExporter {
    const UccAllocStats &S;
    ~StatsExporter() {
      Telemetry *T = currentTelemetry();
      if (!T)
        return;
      T->addCounter("ra.functions");
      T->addCounter("ra.total_instrs", S.TotalInstrs);
      T->addCounter("ra.matched_instrs", S.MatchedInstrs);
      T->addCounter("ra.chunks_changed", S.ChangedChunks);
      T->addCounter("ra.chunks_unchanged", S.UnchangedChunks);
      T->addCounter("ra.anchor_occurrences", S.AnchorOccurrences);
      T->addCounter("ra.pref_honored", S.PrefHonored);
      T->addCounter("ra.pref_broken", S.PrefBroken);
      T->addCounter("ra.inserted_movs", S.InsertedMovs);
      T->addCounter("ra.spilled_vregs", S.SpilledVRegs);
      if (S.UsedIlp)
        T->addCounter("ra.ilp_windows");
    }
  } Exporter{Stats};

  // No old code for this function: plain update-oblivious allocation.
  if (!Ctx.OldFinal) {
    RAStats LS = allocateLinearScan(MF);
    Stats.SpilledVRegs = LS.SpilledVRegs;
    Stats.TotalInstrs = MF.instrCount();
    return Stats;
  }

  memoryHomeAcrossCalls(MF);
  Arena Scratch;
  FlatList OldLin = flatten(*Ctx.OldFinal, Scratch);

  for (int Round = 0; Round < 32; ++Round) {
    // Per-round statistics; a spill restarts the round from scratch.
    Stats.AnchorOccurrences = 0;
    Stats.PrefHonored = 0;
    Stats.PrefBroken = 0;
    Stats.InsertedMovs = 0;

    IntervalAnalysis IA = analyzeIntervals(MF);
    FlatList NewLin = flatten(MF, Scratch);
    size_t OldN = OldLin.size(), NewN = NewLin.size();
    Stats.TotalInstrs = static_cast<int>(NewN);

    // --- Alignment (skip pathological sizes; everything becomes changed).
    IntList MatchedOld(NewN, -1, ArenaAllocator<int>(Scratch));
    if (OldN * NewN <= 25'000'000) {
      auto Matches = lcsAlign(OldN, NewN, [&](size_t I, size_t J) {
        return instrsSimilar(*OldLin[I].I, OldLin[I].Block, *Ctx.OldFinal,
                             *NewLin[J].I, NewLin[J].Block, MF, Ctx);
      });
      for (const auto &[OldIdx, NewIdx] : Matches)
        MatchedOld[static_cast<size_t>(NewIdx)] = OldIdx;
    }

    // --- Chunking with threshold K (section 3.2): unchanged runs shorter
    // than K are folded into the surrounding changed chunk.
    BoolList InChangedChunk(NewN, false, ArenaAllocator<bool>(Scratch));
    {
      size_t J = 0;
      while (J < NewN) {
        bool Changed = MatchedOld[J] < 0;
        size_t RunEnd = J;
        while (RunEnd < NewN && (MatchedOld[RunEnd] < 0) == Changed)
          ++RunEnd;
        bool Fold = Changed || (RunEnd - J) <
                                   static_cast<size_t>(Opts.ChunkK);
        for (size_t K = J; K < RunEnd; ++K)
          InChangedChunk[K] = Fold;
        J = RunEnd;
      }
      // Chunk census of this (final, unless a spill restarts) round:
      // maximal runs of the folded classification.
      Stats.ChangedChunks = 0;
      Stats.UnchangedChunks = 0;
      for (size_t K = 0; K < NewN; ++K)
        if (K == 0 || InChangedChunk[K] != InChangedChunk[K - 1])
          ++(InChangedChunk[K] ? Stats.ChangedChunks
                               : Stats.UnchangedChunks);
    }

    int Matched = 0;
    for (size_t J = 0; J < NewN; ++J)
      Matched += MatchedOld[J] >= 0;
    Stats.MatchedInstrs = Matched;

    // Strategy Hybrid: try the paper's full 0/1 program when the
    // function is straight-line and the model fits the budget.
    if (Opts.Strategy == UccStrategy::Hybrid &&
        tryIlpSingleBlock(MF, NewLin, OldLin, MatchedOld, InChangedChunk,
                          Opts, Freq, IA, Stats)) {
      Stats.TotalInstrs = MF.instrCount();
      return Stats;
    }

    // --- Collect per-vreg occurrences, anchors and preferences.
    std::map<int, VRegInfo> Info;
    auto infoFor = [&](int V) -> VRegInfo & {
      VRegInfo &VI = Info[V];
      if (VI.VReg < 0) {
        VI.VReg = V;
        VI.Interval =
            IA.VRegIntervals[static_cast<size_t>(V - FirstVReg)];
      }
      return VI;
    };

    for (size_t J = 0; J < NewN; ++J) {
      const MInstr &N = *NewLin[J].I;
      const MInstr *O =
          MatchedOld[J] >= 0 ? OldLin[static_cast<size_t>(MatchedOld[J])].I
                             : nullptr;
      bool Anchor = O && !InChangedChunk[J];

      auto slot = [&](int NewReg, int OldReg) {
        if (!isVirtReg(NewReg))
          return;
        VRegInfo &VI = infoFor(NewReg);
        VI.OccPositions.push_back(static_cast<int>(J));
        if (O && isPhysReg(OldReg)) {
          if (Anchor)
            VI.Anchors.push_back({static_cast<int>(J), OldReg});
          else if (VI.SoftPref < 0)
            VI.SoftPref = OldReg;
        }
      };
      slot(N.A, O ? O->A : -1);
      slot(N.B, O ? O->B : -1);
      slot(N.C, O ? O->C : -1);
      RegList NDefs;
      minstrDefs(N, NDefs);
      for (int D : NDefs)
        if (isVirtReg(D))
          infoFor(D).DefPositions.push_back(static_cast<int>(J));
    }

    // --- Frequencies per linear position (via originating IR statement).
    auto freqAt = [&](int Pos) {
      int IRIdx = NewLin[static_cast<size_t>(Pos)].I->IRIndex;
      if (IRIdx >= 0 && IRIdx < static_cast<int>(Freq.size()))
        return Freq[static_cast<size_t>(IRIdx)];
      return 1.0;
    };

    // --- Dominators for the split-safety check.
    std::vector<std::vector<bool>> Dom = computeDominators(MF);

    // --- Plan registers, anchored variables first.
    std::vector<VRegInfo *> OrderedVRegs;
    for (auto &[V, VI] : Info)
      if (VI.Interval.valid())
        OrderedVRegs.push_back(&VI);
    std::sort(OrderedVRegs.begin(), OrderedVRegs.end(),
              [](const VRegInfo *L, const VRegInfo *R) {
                bool LA = !L->Anchors.empty(), RA = !R->Anchors.empty();
                if (LA != RA)
                  return LA; // anchored first
                if (L->Interval.Start != R->Interval.Start)
                  return L->Interval.Start < R->Interval.Start;
                return L->VReg < R->VReg;
              });

    RegClaims Claims(IA);
    std::map<int, Plan> Plans;
    std::vector<int> Spilled;

    for (VRegInfo *VI : OrderedVRegs) {
      int S = VI->Interval.Start, E = VI->Interval.End;
      Plan P;

      // Majority anchor register and its occurrence count.
      int AnchorReg = -1, AnchorCount = 0;
      if (!VI->Anchors.empty()) {
        std::map<int, int> Votes;
        for (const auto &[Pos, Reg] : VI->Anchors)
          ++Votes[Reg];
        for (const auto &[Reg, N] : Votes)
          if (N > AnchorCount) {
            AnchorCount = N;
            AnchorReg = Reg;
          }
      }
      Stats.AnchorOccurrences += static_cast<int>(VI->Anchors.size());

      auto finishWhole = [&](int Reg) {
        P.K = Plan::Kind::Whole;
        P.WholeReg = Reg;
        Claims.claim(Reg, S, E);
      };

      bool Planned = false;

      // Plan 1: the preferred register for the whole range.
      int HardOrSoft = AnchorReg >= 0 ? AnchorReg : VI->SoftPref;
      if (HardOrSoft >= 0 && Claims.freeOn(HardOrSoft, S, E)) {
        finishWhole(HardOrSoft);
        Planned = true;
      }

      // Plan 2: split the range so the anchored region keeps the old
      // register (paper Fig. 4(c)), if the energy model approves.
      if (!Planned && AnchorReg >= 0 && Opts.EnableSplits) {
        int MovPos = -1;
        for (const auto &[Pos, Reg] : VI->Anchors)
          if (Reg == AnchorReg && (MovPos < 0 || Pos < MovPos))
            MovPos = Pos;

        bool Safe = MovPos > S && Claims.freeOn(AnchorReg, MovPos, E);
        // All defs must precede the split point.
        for (int D : VI->DefPositions)
          Safe &= D < MovPos;
        // The split block must dominate every later reference.
        if (Safe) {
          int MovBlock = NewLin[static_cast<size_t>(MovPos)].Block;
          for (int Occ : VI->OccPositions)
            if (Occ >= MovPos) {
              int OB = NewLin[static_cast<size_t>(Occ)].Block;
              Safe &= Dom[static_cast<size_t>(OB)]
                         [static_cast<size_t>(MovBlock)];
            }
        }
        if (Safe) {
          int Alt = -1;
          for (int R = 0; R < NumPhysRegs; ++R)
            if (R != AnchorReg && Claims.freeOn(R, S, MovPos)) {
              Alt = R;
              break;
            }
          if (Alt >= 0) {
            double CostMov = Opts.EtransInstr +
                             Opts.Cnt * Opts.EexeCycle * freqAt(MovPos);
            double CostBreak = Opts.EtransInstr * AnchorCount;
            if (CostMov < CostBreak) {
              P.K = Plan::Kind::Split;
              P.EarlyReg = Alt;
              P.LateReg = AnchorReg;
              P.MovPos = MovPos;
              Claims.claim(Alt, S, MovPos);
              Claims.claim(AnchorReg, MovPos, E);
              ++Stats.InsertedMovs;
              Planned = true;
            }
          }
        }
      }

      // Plan 3: any free register for the whole range.
      if (!Planned) {
        for (int R = 0; R < NumPhysRegs; ++R)
          if (Claims.freeOn(R, S, E)) {
            finishWhole(R);
            Planned = true;
            break;
          }
      }

      if (!Planned) {
        Spilled.push_back(VI->VReg);
        continue;
      }
      Plans[VI->VReg] = P;

      // Anchor bookkeeping.
      for (const auto &[Pos, Reg] : VI->Anchors) {
        if (Plans[VI->VReg].regAt(Pos) == Reg)
          ++Stats.PrefHonored;
        else
          ++Stats.PrefBroken;
      }
    }

    if (!Spilled.empty()) {
      Stats.SpilledVRegs += static_cast<int>(Spilled.size());
      rewriteSpills(MF, Spilled);
      continue;
    }

    // --- Rewrite: substitute registers and insert split movs.
    // Substitution first (positions still match NewLin).
    {
      int Pos = 0;
      for (MBlock &BB : MF.Blocks) {
        for (MInstr &I : BB.Instrs) {
          auto subst = [&](int &Reg, int &Orig) {
            if (Reg < 0 || isPhysReg(Reg))
              return;
            auto It = Plans.find(Reg);
            assert(It != Plans.end() && "vreg without a plan");
            Orig = Reg;
            Reg = It->second.regAt(Pos);
            assert(Reg >= 0 && Reg < NumPhysRegs && "bad planned register");
          };
          subst(I.A, I.VA);
          subst(I.B, I.VB);
          subst(I.C, I.VC);
          ++Pos;
        }
      }
    }

    // Collect mov insertions as (block, index-in-block, instr), then apply
    // per block in descending index order so earlier indices stay valid.
    std::vector<std::vector<std::pair<int, MInstr>>> Inserts(
        MF.Blocks.size());
    for (const auto &[V, P] : Plans) {
      if (P.K != Plan::Kind::Split)
        continue;
      const Flat &At = NewLin[static_cast<size_t>(P.MovPos)];
      MInstr Mov;
      Mov.Op = MOp::MOV;
      Mov.A = P.LateReg;
      Mov.B = P.EarlyReg;
      Mov.VA = V;
      Mov.VB = V;
      Mov.IRIndex = At.I->IRIndex;
      Inserts[static_cast<size_t>(At.Block)].push_back(
          {At.IndexInBlock, Mov});
    }
    for (size_t B = 0; B < Inserts.size(); ++B) {
      auto &List = Inserts[B];
      std::sort(List.begin(), List.end(),
                [](const auto &L, const auto &R) { return L.first > R.first; });
      for (const auto &[Idx, Mov] : List)
        MF.Blocks[B].Instrs.insert(MF.Blocks[B].Instrs.begin() + Idx, Mov);
    }
    Stats.ArenaBytes = static_cast<int64_t>(Scratch.bytesAllocated());
    return Stats;
  }

  assert(false && "UCC-RA failed to converge");
  Stats.ArenaBytes = static_cast<int64_t>(Scratch.bytesAllocated());
  return Stats;
}
