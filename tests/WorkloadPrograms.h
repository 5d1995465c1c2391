//===- tests/WorkloadPrograms.h - every shipped MiniC program by name ----===//
//
// The program list the pinned-output tests hash: every workload and both
// sides of every update case in src/workloads, each once, under a stable
// name (OptTest pins the optimizer on it, FrontendTest the lowering), and
// the block-name-blind print both pins also hash.
//
//===----------------------------------------------------------------------===//

#ifndef UCC_TESTS_WORKLOADPROGRAMS_H
#define UCC_TESTS_WORKLOADPROGRAMS_H

#include "ir/IR.h"
#include "support/Format.h"
#include "workloads/Workloads.h"

#include <cinttypes>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ucc {

/// Every program in src/workloads, by a stable name.
inline std::vector<std::pair<std::string, std::string>> workloadPrograms() {
  std::vector<std::pair<std::string, std::string>> Programs;
  auto Add = [&](const std::string &Name, const std::string &Source) {
    for (const auto &P : Programs)
      if (P.second == Source)
        return; // most cases start from an unedited workload
    Programs.emplace_back(Name, Source);
  };
  for (const Workload &W : workloads())
    Add(W.Name, W.Source);
  auto AddCase = [&](const std::string &Name, const UpdateCase &C) {
    Add(Name + ".old", C.OldSource);
    Add(Name + ".new", C.NewSource);
  };
  for (const UpdateCase &C : updateCases())
    AddCase("case" + std::to_string(C.Id), C);
  for (const UpdateCase &C : dataLayoutCases())
    AddCase("case" + std::to_string(C.Id), C);
  AddCase("liverange", liveRangeExtensionCase());
  return Programs;
}

/// \p M printed with every block named by its index in its function
/// (`b0`, `b1`, ...). A digest of this text pins everything the frontend
/// and the optimizer produce except how blocks are named.
inline std::string printWithIndexedBlocks(Module M) {
  for (Function &F : M.Functions)
    for (size_t B = 0; B < F.Blocks.size(); ++B)
      F.Blocks[B].Name = format("b%zu", B);
  return M.print();
}

/// \p Digests as the body of a C++ array initializer, three a line, for
/// pasting into a pin table.
inline std::string digestTable(const std::vector<uint64_t> &Digests) {
  std::string Table;
  for (size_t K = 0; K < Digests.size(); ++K)
    Table += format("%s0x%016" PRIx64 "ULL,%s", K % 3 ? "" : "      ",
                    Digests[K], K % 3 == 2 ? "\n" : " ");
  return Table + "\n";
}

} // namespace ucc

#endif // UCC_TESTS_WORKLOADPROGRAMS_H
