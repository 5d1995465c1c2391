//===- support/Lcs.h - generic LCS alignment ------------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generic longest-common-subsequence alignment over an arbitrary equality
/// predicate. The word-level binary differ (`alignWords`) and UCC-RA's
/// machine-instruction aligner both build on this.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_LCS_H
#define UCC_SUPPORT_LCS_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ucc {

/// Cell cap for lcsAlign's quadratic table (a 1 GiB uint32_t table).
/// Callers bound their inputs well below it: `alignWords` at
/// MaxAlignWords per side, UCC-RA at 25M cells.
constexpr size_t LcsAlignCellCap = size_t(1) << 28;

/// Computes an LCS alignment between sequences of lengths \p M and \p N
/// under \p Equal(i, j). Returns matched index pairs, strictly increasing
/// in both components, with the maximal match count and a fixed
/// tie-breaking (a skip in the first sequence wins ties). O(M*N) time
/// and space; inputs must keep (M+1)*(N+1) within LcsAlignCellCap
/// (asserted, so callers pre-check their sizes).
template <typename EqualFn>
std::vector<std::pair<int, int>> lcsAlign(size_t M, size_t N, EqualFn Equal) {
  assert(M + 1 <= LcsAlignCellCap / (N + 1) &&
         "lcsAlign table above LcsAlignCellCap");
  std::vector<uint32_t> Table((M + 1) * (N + 1), 0);
  auto At = [&](size_t I, size_t J) -> uint32_t & {
    return Table[I * (N + 1) + J];
  };
  for (size_t I = M; I-- > 0;) {
    for (size_t J = N; J-- > 0;) {
      if (Equal(I, J))
        At(I, J) = At(I + 1, J + 1) + 1;
      else
        At(I, J) = std::max(At(I + 1, J), At(I, J + 1));
    }
  }
  std::vector<std::pair<int, int>> Matches;
  size_t I = 0, J = 0;
  while (I < M && J < N) {
    if (Equal(I, J)) {
      Matches.push_back({static_cast<int>(I), static_cast<int>(J)});
      ++I;
      ++J;
    } else if (At(I + 1, J) >= At(I, J + 1)) {
      ++I;
    } else {
      ++J;
    }
  }
  return Matches;
}

} // namespace ucc

#endif // UCC_SUPPORT_LCS_H
