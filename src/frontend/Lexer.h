//===- frontend/Lexer.h - MiniC lexical analysis ---------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for MiniC, the small C-like language the workload suite is
/// written in (the "NesC / avr-gcc input" stand-in, see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_FRONTEND_LEXER_H
#define UCC_FRONTEND_LEXER_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace ucc {

/// Token kinds produced by the lexer.
enum class TokKind {
  Eof,
  Ident,
  IntLit,
  // Keywords.
  KwInt,
  KwVoid,
  KwIf,
  KwElse,
  KwWhile,
  KwFor,
  KwReturn,
  KwBreak,
  KwContinue,
  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Semi,
  Assign,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Amp,
  Pipe,
  Caret,
  Tilde,
  Bang,
  Shl,
  Shr,
  AmpAmp,
  PipePipe,
  EqEq,
  NotEq,
  Lt,
  Le,
  Gt,
  Ge,
};

/// One lexed token. Trivially copyable: Text views the lexed source, so a
/// token stream is only valid while that source is.
struct Token {
  TokKind Kind = TokKind::Eof;
  uint32_t Offset = 0;   ///< byte offset of the first character
  std::string_view Text; ///< identifier and keyword spelling
  int64_t IntValue = 0;  ///< for IntLit
  SourceLoc Loc;
};

/// Returns a printable name for \p Kind (diagnostics).
const char *tokKindName(TokKind Kind);

/// Tokenizes \p Source. Lexical errors are reported to \p Diag; lexing
/// continues past errors so the parser can report more problems in one run.
/// The returned stream always ends with an Eof token, and its tokens view
/// \p Source.
std::vector<Token> lex(std::string_view Source, DiagnosticEngine &Diag);

} // namespace ucc

#endif // UCC_FRONTEND_LEXER_H
