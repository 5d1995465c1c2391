//===- ir/Verifier.h - structural IR validity checks ----------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verification for IR modules. Every pipeline stage that builds
/// or mutates IR runs the verifier in tests; pipeline drivers assert on it.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_IR_VERIFIER_H
#define UCC_IR_VERIFIER_H

#include <cstddef>
#include <string>
#include <vector>

namespace ucc {

struct Module;

/// Checks \p M for structural validity. Returns a list of human-readable
/// problem descriptions; an empty result means the module is well-formed.
///
/// Checked invariants:
///  * every block ends in exactly one terminator, and terminators appear
///    only at block ends;
///  * all block / global / frame-slot / callee / vreg indices are in range;
///  * operand counts match opcodes;
///  * call argument counts match callee parameter counts;
///  * the entry function index is valid if set.
std::vector<std::string> verifyModule(const Module &M);

/// The checks verifyModule() makes on function \p FnIdx of \p M alone
/// (everything but the entry index), with the same messages.
std::vector<std::string> verifyFunction(const Module &M, size_t FnIdx);

/// Convenience: true when verifyModule() reports no problems.
bool moduleIsValid(const Module &M);

} // namespace ucc

#endif // UCC_IR_VERIFIER_H
