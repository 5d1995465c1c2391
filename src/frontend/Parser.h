//===- frontend/Parser.h - MiniC recursive-descent parser -----------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing a ProgramAST. Syntax errors are
/// reported through the DiagnosticEngine; the parser recovers at statement
/// boundaries so several errors can be reported per run. OutlineParser
/// parses the same grammar one function body at a time, on demand.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_FRONTEND_PARSER_H
#define UCC_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>

namespace ucc {

/// Parses MiniC \p Source into an AST. Returns the (possibly partial) AST;
/// callers must check \p Diag for errors before using it.
ProgramAST parseProgram(const std::string &Source, DiagnosticEngine &Diag);

class ParserImpl;

/// Parses a file's top level and leaves every function body unparsed until
/// asked for, so a caller that already holds a function's IR need not
/// build its AST. The whole file is lexed; globals and function headers
/// are parsed as parseProgram() parses them, and each body is located by
/// brace matching. An unbalanced body is diagnosed. On a file with no
/// diagnostics, parsing every body gives the AST parseProgram() gives.
class OutlineParser {
public:
  /// \p Source must outlive the parser.
  OutlineParser(const std::string &Source, DiagnosticEngine &Diag);
  ~OutlineParser();

  /// Globals and function headers; a FuncDecl's Body stays null until
  /// parseBody() fills it.
  const ProgramAST &program() const;
  /// Function \p I's source, from its return type through its closing
  /// brace.
  std::string_view text(size_t I) const;
  /// Where function \p I's source starts.
  SourceLoc start(size_t I) const;
  /// Parses function \p I's body into program().Functions[I].Body.
  void parseBody(size_t I);

private:
  std::unique_ptr<ParserImpl> Impl;
};

} // namespace ucc

#endif // UCC_FRONTEND_PARSER_H
