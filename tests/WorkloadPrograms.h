//===- tests/WorkloadPrograms.h - every shipped MiniC program by name ----===//
//
// The program list the pinned-output tests hash: every workload and both
// sides of every update case in src/workloads, each once, under a stable
// name (OptTest pins the optimizer on it, FrontendTest the lowering).
//
//===----------------------------------------------------------------------===//

#ifndef UCC_TESTS_WORKLOADPROGRAMS_H
#define UCC_TESTS_WORKLOADPROGRAMS_H

#include "workloads/Workloads.h"

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

} // namespace ucc

#endif // UCC_TESTS_WORKLOADPROGRAMS_H
