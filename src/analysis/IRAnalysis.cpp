//===- analysis/IRAnalysis.cpp ----------------------------------------------==//

#include "analysis/IRAnalysis.h"

#include <algorithm>
#include <cmath>

using namespace ucc;

Liveness ucc::computeIRLiveness(const Function &F) {
  size_t NumBlocks = F.Blocks.size();
  size_t NumValues = static_cast<size_t>(F.NumVRegs);
  LivenessProblem P;
  P.Gen.assign(NumBlocks, BitVector(NumValues));
  P.Kill.assign(NumBlocks, BitVector(NumValues));
  P.Succs.reserve(NumBlocks);
  for (size_t B = 0; B < NumBlocks; ++B) {
    BitVector &Gen = P.Gen[B];
    BitVector &Kill = P.Kill[B];
    for (const Instr &I : F.Blocks[B].Instrs) {
      for (VReg S : I.Srcs)
        if (!Kill.test(static_cast<size_t>(S)))
          Gen.set(static_cast<size_t>(S));
      if (I.hasDst())
        Kill.set(static_cast<size_t>(I.Dst));
    }
    P.Succs.push_back(F.Blocks[B].successors());
  }
  return solveLiveness(P);
}

std::vector<int> ucc::loopDepths(const Function &F) {
  size_t N = F.Blocks.size();
  std::vector<int> Depth(N, 0);
  // Every back edge source -> target (target earlier in layout) nests the
  // layout range [target, source] one level deeper.
  for (size_t B = 0; B < N; ++B) {
    for (int S : F.Blocks[B].successors()) {
      if (S < 0 || static_cast<size_t>(S) > B)
        continue;
      for (size_t K = static_cast<size_t>(S); K <= B; ++K)
        ++Depth[K];
    }
  }
  return Depth;
}

std::vector<double> ucc::blockFrequencies(const Function &F, double Cap) {
  std::vector<int> Depth = loopDepths(F);
  std::vector<double> Freq(Depth.size(), 1.0);
  for (size_t B = 0; B < Depth.size(); ++B)
    Freq[B] = std::min(Cap, std::pow(10.0, Depth[B]));
  return Freq;
}

std::vector<double> ucc::statementFrequencies(const Function &F, double Cap) {
  std::vector<double> BlockFreq = blockFrequencies(F, Cap);
  std::vector<double> Freq;
  Freq.reserve(static_cast<size_t>(F.instrCount()));
  for (size_t B = 0; B < F.Blocks.size(); ++B)
    for (size_t K = 0; K < F.Blocks[B].Instrs.size(); ++K)
      Freq.push_back(BlockFreq[B]);
  return Freq;
}
