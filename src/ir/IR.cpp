//===- ir/IR.cpp -----------------------------------------------------------==//

#include "ir/IR.h"

#include "support/Format.h"

#include <stdexcept>

using namespace ucc;

void OperandList::overflow() {
  throw std::length_error("IR instruction with more than 4 operands");
}

std::vector<int> BasicBlock::successors() const {
  if (Instrs.empty())
    return {};
  const Instr &T = Instrs.back();
  switch (T.Op) {
  case Opcode::Br:
    return {T.TrueBB};
  case Opcode::CondBr:
    return {T.TrueBB, T.FalseBB};
  default:
    return {};
  }
}

int Function::instrCount() const {
  int N = 0;
  for (const BasicBlock &BB : Blocks)
    N += static_cast<int>(BB.Instrs.size());
  return N;
}

int Module::findFunction(const std::string &Name) const {
  for (size_t I = 0, E = Functions.size(); I != E; ++I)
    if (Functions[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

int Module::findGlobal(const std::string &Name) const {
  for (size_t I = 0, E = Globals.size(); I != E; ++I)
    if (Globals[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

const char *ucc::binKindName(BinKind Op) {
  switch (Op) {
  case BinKind::Add:
    return "add";
  case BinKind::Sub:
    return "sub";
  case BinKind::Mul:
    return "mul";
  case BinKind::Div:
    return "div";
  case BinKind::Rem:
    return "rem";
  case BinKind::And:
    return "and";
  case BinKind::Or:
    return "or";
  case BinKind::Xor:
    return "xor";
  case BinKind::Shl:
    return "shl";
  case BinKind::Shr:
    return "shr";
  }
  return "?";
}

const char *ucc::unKindName(UnKind Op) {
  switch (Op) {
  case UnKind::Neg:
    return "neg";
  case UnKind::Not:
    return "not";
  }
  return "?";
}

const char *ucc::cmpPredName(CmpPred Pred) {
  switch (Pred) {
  case CmpPred::EQ:
    return "eq";
  case CmpPred::NE:
    return "ne";
  case CmpPred::LT:
    return "lt";
  case CmpPred::LE:
    return "le";
  case CmpPred::GT:
    return "gt";
  case CmpPred::GE:
    return "ge";
  }
  return "?";
}

const char *ucc::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:
    return "const";
  case Opcode::Mov:
    return "mov";
  case Opcode::Bin:
    return "bin";
  case Opcode::Un:
    return "un";
  case Opcode::LoadG:
    return "loadg";
  case Opcode::StoreG:
    return "storeg";
  case Opcode::LoadF:
    return "loadf";
  case Opcode::StoreF:
    return "storef";
  case Opcode::Call:
    return "call";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Ret:
    return "ret";
  case Opcode::In:
    return "in";
  case Opcode::Out:
    return "out";
  case Opcode::Halt:
    return "halt";
  }
  return "?";
}

int16_t ucc::evalBin(BinKind Op, int16_t A, int16_t B) {
  int32_t X = A, Y = B;
  int32_t R = 0;
  switch (Op) {
  case BinKind::Add:
    R = X + Y;
    break;
  case BinKind::Sub:
    R = X - Y;
    break;
  case BinKind::Mul:
    R = X * Y;
    break;
  case BinKind::Div:
    R = (Y == 0) ? 0 : X / Y;
    break;
  case BinKind::Rem:
    R = (Y == 0) ? 0 : X % Y;
    break;
  case BinKind::And:
    R = X & Y;
    break;
  case BinKind::Or:
    R = X | Y;
    break;
  case BinKind::Xor:
    R = X ^ Y;
    break;
  case BinKind::Shl:
    R = X << (Y & 15);
    break;
  case BinKind::Shr:
    R = X >> (Y & 15);
    break;
  }
  return static_cast<int16_t>(R);
}

int16_t ucc::evalUn(UnKind Op, int16_t A) {
  switch (Op) {
  case UnKind::Neg:
    return static_cast<int16_t>(-static_cast<int32_t>(A));
  case UnKind::Not:
    return static_cast<int16_t>(~A);
  }
  return 0;
}

bool ucc::evalCmp(CmpPred Pred, int16_t A, int16_t B) {
  switch (Pred) {
  case CmpPred::EQ:
    return A == B;
  case CmpPred::NE:
    return A != B;
  case CmpPred::LT:
    return A < B;
  case CmpPred::LE:
    return A <= B;
  case CmpPred::GT:
    return A > B;
  case CmpPred::GE:
    return A >= B;
  }
  return false;
}
