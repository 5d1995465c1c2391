//===- tests/VerifierTest.cpp - structural IR checks ----------------------===//

#include "ir/IR.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace ucc;

namespace {

/// A minimal valid module: `void main() { halt; }`.
Module minimalModule() {
  Module M;
  Function F;
  F.Name = "main";
  int BB = F.makeBlock("entry");
  Instr Halt;
  Halt.Op = Opcode::Halt;
  F.Blocks[static_cast<size_t>(BB)].Instrs.push_back(Halt);
  M.Functions.push_back(std::move(F));
  M.EntryFunc = 0;
  return M;
}

TEST(VerifierTest, AcceptsMinimalModule) {
  EXPECT_TRUE(verifyModule(minimalModule()).empty());
}

TEST(VerifierTest, RejectsMissingTerminator) {
  Module M = minimalModule();
  M.Functions[0].Blocks[0].Instrs.clear();
  Instr Const;
  Const.Op = Opcode::Const;
  Const.Dst = M.Functions[0].makeVReg();
  M.Functions[0].Blocks[0].Instrs.push_back(Const);
  auto Problems = verifyModule(M);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("terminator"), std::string::npos);
}

TEST(VerifierTest, RejectsTerminatorMidBlock) {
  Module M = minimalModule();
  Instr Ret;
  Ret.Op = Opcode::Ret;
  auto &Instrs = M.Functions[0].Blocks[0].Instrs;
  Instrs.insert(Instrs.begin(), Ret); // ret before the halt
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(VerifierTest, RejectsOutOfRangeVReg) {
  Module M = minimalModule();
  Instr Mov;
  Mov.Op = Opcode::Mov;
  Mov.Dst = 0; // no vregs exist
  Mov.Srcs = {3};
  auto &Instrs = M.Functions[0].Blocks[0].Instrs;
  Instrs.insert(Instrs.begin(), Mov);
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(VerifierTest, RejectsBadBlockReference) {
  Module M = minimalModule();
  Instr Br;
  Br.Op = Opcode::Br;
  Br.TrueBB = 7;
  M.Functions[0].Blocks[0].Instrs.back() = Br;
  auto Problems = verifyModule(M);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("block reference"), std::string::npos);
}

TEST(VerifierTest, RejectsBadGlobalAndSlotIndices) {
  Module M = minimalModule();
  Instr Load;
  Load.Op = Opcode::LoadG;
  Load.Dst = M.Functions[0].makeVReg();
  Load.Global = 4; // no globals declared
  auto &Instrs = M.Functions[0].Blocks[0].Instrs;
  Instrs.insert(Instrs.begin(), Load);
  EXPECT_FALSE(verifyModule(M).empty());

  Module M2 = minimalModule();
  Instr Store;
  Store.Op = Opcode::StoreF;
  Store.Slot = 2; // no frame objects
  Store.Srcs = {M2.Functions[0].makeVReg()};
  M2.Functions[0].Blocks[0].Instrs.insert(
      M2.Functions[0].Blocks[0].Instrs.begin(), Store);
  EXPECT_FALSE(verifyModule(M2).empty());
}

TEST(VerifierTest, RejectsCallArityMismatch) {
  Module M = minimalModule();
  Function Callee;
  Callee.Name = "two";
  Callee.Params = {Callee.makeVReg("a"), Callee.makeVReg("b")};
  int BB = Callee.makeBlock("entry");
  Instr Ret;
  Ret.Op = Opcode::Ret;
  Callee.Blocks[static_cast<size_t>(BB)].Instrs.push_back(Ret);
  M.Functions.push_back(std::move(Callee));

  Instr Call;
  Call.Op = Opcode::Call;
  Call.Callee = 1;
  Call.Srcs = {}; // needs two arguments
  auto &Instrs = M.Functions[0].Blocks[0].Instrs;
  Instrs.insert(Instrs.begin(), Call);
  auto Problems = verifyModule(M);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("args"), std::string::npos);
}

TEST(VerifierTest, RejectsWrongOperandCount) {
  Module M = minimalModule();
  Instr Bin;
  Bin.Op = Opcode::Bin;
  Bin.Dst = M.Functions[0].makeVReg();
  Bin.Srcs = {Bin.Dst}; // binary op needs two sources
  auto &Instrs = M.Functions[0].Blocks[0].Instrs;
  Instrs.insert(Instrs.begin(), Bin);
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(VerifierTest, RejectsBadEntryIndex) {
  Module M = minimalModule();
  M.EntryFunc = 9;
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(OperandList, HoldsFourOperandsAndThrowsOnAFifth) {
  // The operand list is inline and fixed at four; a fifth operand is a
  // compiler bug that must fail loudly in every build type, not only
  // under an assert.
  Instr Call;
  Call.Op = Opcode::Call;
  Call.Srcs = {1, 2, 3, 4};
  EXPECT_EQ(Call.Srcs.size(), 4u);
  EXPECT_EQ(Call.Srcs[3], 4);
  EXPECT_THROW(Call.Srcs.push_back(5), std::length_error);
  EXPECT_EQ(Call.Srcs.size(), 4u);
}

} // namespace
