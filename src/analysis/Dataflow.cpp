//===- analysis/Dataflow.cpp ------------------------------------------------==//

#include "analysis/Dataflow.h"

#include <cassert>

using namespace ucc;

Liveness ucc::solveLiveness(const LivenessProblem &P) {
  size_t NumBlocks = P.Gen.size();
  size_t NumValues = NumBlocks ? P.Gen[0].size() : 0;

  Liveness L;
  L.LiveIn.assign(NumBlocks, BitVector(NumValues));
  L.LiveOut.assign(NumBlocks, BitVector(NumValues));

  // Classic round-robin fixpoint; backward problems converge fastest when
  // iterating blocks in reverse layout order.
  BitVector Out(NumValues);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = NumBlocks; BI-- > 0;) {
      Out.clear();
      for (int S : P.Succs[BI]) {
        assert(S >= 0 && static_cast<size_t>(S) < NumBlocks &&
               "bad successor index");
        Out.unionWith(L.LiveIn[static_cast<size_t>(S)]);
      }
      if (!(Out == L.LiveOut[BI])) {
        L.LiveOut[BI] = Out;
        Changed = true;
      }
      // LiveIn = Gen | (Out - Kill)
      Out.subtract(P.Kill[BI]);
      Out.unionWith(P.Gen[BI]);
      if (!(Out == L.LiveIn[BI])) {
        L.LiveIn[BI] = Out;
        Changed = true;
      }
    }
  }
  return L;
}

Liveness ucc::computeLiveness(const FlowGraph &G) {
  size_t NumBlocks = G.Blocks.size();
  size_t NumValues = static_cast<size_t>(G.NumValues);

  LivenessProblem P;
  P.Gen.assign(NumBlocks, BitVector(NumValues));
  P.Kill.assign(NumBlocks, BitVector(NumValues));
  P.Succs.reserve(NumBlocks);
  for (size_t B = 0; B < NumBlocks; ++B) {
    for (const DefUse &I : G.Blocks[B].Instrs) {
      for (int U : I.Uses)
        if (!P.Kill[B].test(static_cast<size_t>(U)))
          P.Gen[B].set(static_cast<size_t>(U));
      for (int D : I.Defs)
        P.Kill[B].set(static_cast<size_t>(D));
    }
    P.Succs.push_back(G.Blocks[B].Succs);
  }
  return solveLiveness(P);
}

std::vector<BitVector> Liveness::liveAfterPerInstr(const FlowGraph &G,
                                                   int B) const {
  const FlowBlock &Block = G.Blocks[static_cast<size_t>(B)];
  size_t N = Block.Instrs.size();
  std::vector<BitVector> Result(N, BitVector(LiveOut[0].size()));
  BitVector Live = LiveOut[static_cast<size_t>(B)];
  for (size_t K = N; K-- > 0;) {
    Result[K] = Live;
    const DefUse &I = Block.Instrs[K];
    for (int D : I.Defs)
      Live.reset(static_cast<size_t>(D));
    for (int U : I.Uses)
      Live.set(static_cast<size_t>(U));
  }
  return Result;
}
