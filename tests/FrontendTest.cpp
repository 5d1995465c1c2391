//===- tests/FrontendTest.cpp - lexer/parser/irgen unit tests -------------===//

#include "ProgramGen.h"
#include "WorkloadPrograms.h"

#include "frontend/IRGen.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "support/Format.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cinttypes>

using namespace ucc;

namespace {

TEST(Lexer, BasicTokens) {
  DiagnosticEngine Diag;
  auto Toks = lex("int x = 42; // comment\nx = x + 0x1f;", Diag);
  ASSERT_FALSE(Diag.hasErrors());
  ASSERT_GE(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[1].Text, "x");
  EXPECT_EQ(Toks[2].Kind, TokKind::Assign);
  EXPECT_EQ(Toks[3].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[3].IntValue, 42);
  EXPECT_EQ(Toks.back().Kind, TokKind::Eof);
}

TEST(Lexer, HexAndOperators) {
  DiagnosticEngine Diag;
  auto Toks = lex("0xff << 2 >> 1 && || == != <= >=", Diag);
  ASSERT_FALSE(Diag.hasErrors());
  EXPECT_EQ(Toks[0].IntValue, 255);
  EXPECT_EQ(Toks[1].Kind, TokKind::Shl);
  EXPECT_EQ(Toks[3].Kind, TokKind::Shr);
  EXPECT_EQ(Toks[5].Kind, TokKind::AmpAmp);
  EXPECT_EQ(Toks[6].Kind, TokKind::PipePipe);
  EXPECT_EQ(Toks[7].Kind, TokKind::EqEq);
  EXPECT_EQ(Toks[8].Kind, TokKind::NotEq);
  EXPECT_EQ(Toks[9].Kind, TokKind::Le);
  EXPECT_EQ(Toks[10].Kind, TokKind::Ge);
}

TEST(Lexer, ReportsBadCharacter) {
  DiagnosticEngine Diag;
  lex("int $bad;", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(Lexer, ReportsOversizedLiteral) {
  DiagnosticEngine Diag;
  lex("int x = 70000;", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(Lexer, StrayCharacterIsOneErrorAndTriviaIsSkipped) {
  DiagnosticEngine Diag;
  auto Toks = lex("0 @ ;", Diag);
  ASSERT_EQ(Diag.errorCount(), 1u) << Diag.str();
  EXPECT_EQ(Diag.diagnostics()[0].Message, "unexpected character '@'");
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[1].Kind, TokKind::Semi);
  EXPECT_EQ(Toks[1].Loc.Col, 5u);
}

TEST(Lexer, LongStrayRunReportsEachCharacterAndReturns) {
  // One diagnostic per character, and no stack growth per character.
  const std::string Run(200000, '@');
  DiagnosticEngine Diag;
  Module M = compileToIR("int main() { return " + Run + " 0; }", Diag);
  EXPECT_EQ(Diag.errorCount(), Run.size());
  EXPECT_TRUE(M.Functions.empty());
}

TEST(Lexer, OversizedLiteralsAreReportedAsWritten) {
  // Accumulating these into 64 bits would wrap; the lexer must still see
  // that they exceed 16 bits and quote them as spelled.
  for (const char *Lit : {"123456789012345678901234567890",
                          "0x123456789abcdef0123456789",
                          "18446744073709551616", "0X10000", "65536"}) {
    DiagnosticEngine Diag;
    const std::string Source = std::string("return ") + Lit + ";";
    auto Toks = lex(Source, Diag);
    ASSERT_EQ(Diag.errorCount(), 1u) << Lit;
    EXPECT_EQ(Diag.diagnostics()[0].Message,
              std::string("integer literal ") + Lit + " exceeds 16 bits");
    ASSERT_EQ(Toks.size(), 4u) << Lit;
    EXPECT_GT(Toks[1].IntValue, 0xffff) << Lit;
  }
  for (const char *Lit : {"65535", "0xffff", "0x0000000000000000000000ff"}) {
    DiagnosticEngine Diag;
    lex(std::string("return ") + Lit + ";", Diag);
    EXPECT_FALSE(Diag.hasErrors()) << Lit << ": " << Diag.str();
  }
  DiagnosticEngine Diag;
  compileToIR("int main() { return 123456789012345678901234567890; }", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(Lexer, UnterminatedBlockComment) {
  DiagnosticEngine Diag;
  lex("/* never closed", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(Parser, GlobalScalarAndArray) {
  DiagnosticEngine Diag;
  ProgramAST P = parseProgram("int a = 3; int tbl[4] = {1, 2, 3, 4};", Diag);
  ASSERT_FALSE(Diag.hasErrors()) << Diag.str();
  ASSERT_EQ(P.Globals.size(), 2u);
  EXPECT_EQ(P.Globals[0].Name, "a");
  EXPECT_EQ(P.Globals[0].ArraySize, 0);
  ASSERT_EQ(P.Globals[0].Init.size(), 1u);
  EXPECT_EQ(P.Globals[0].Init[0], 3);
  EXPECT_EQ(P.Globals[1].ArraySize, 4);
  ASSERT_EQ(P.Globals[1].Init.size(), 4u);
}

TEST(Parser, FunctionWithControlFlow) {
  DiagnosticEngine Diag;
  const char *Src = R"(
    int gcd(int a, int b) {
      while (b != 0) {
        int t = b;
        b = a % b;
        a = t;
      }
      return a;
    }
  )";
  ProgramAST P = parseProgram(Src, Diag);
  ASSERT_FALSE(Diag.hasErrors()) << Diag.str();
  ASSERT_EQ(P.Functions.size(), 1u);
  EXPECT_EQ(P.Functions[0].Name, "gcd");
  EXPECT_TRUE(P.Functions[0].ReturnsInt);
  EXPECT_EQ(P.Functions[0].Params.size(), 2u);
}

TEST(Parser, ReportsSyntaxError) {
  DiagnosticEngine Diag;
  parseProgram("void f() { int x = ; }", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(Parser, TooManyParams) {
  DiagnosticEngine Diag;
  parseProgram("void f(int a, int b, int c, int d, int e) {}", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(IRGen, SimpleFunctionVerifies) {
  DiagnosticEngine Diag;
  Module M = compileToIR(R"(
    int g = 5;
    int add(int a, int b) { return a + b; }
    void main() {
      int x = add(g, 2);
      __out(0, x);
      __halt();
    }
  )",
                         Diag);
  ASSERT_FALSE(Diag.hasErrors()) << Diag.str();
  auto Problems = verifyModule(M);
  EXPECT_TRUE(Problems.empty()) << (Problems.empty() ? "" : Problems[0]);
  EXPECT_EQ(M.Functions.size(), 2u);
  EXPECT_EQ(M.EntryFunc, M.findFunction("main"));
}

TEST(IRGen, UndeclaredIdentifier) {
  DiagnosticEngine Diag;
  compileToIR("void main() { x = 1; }", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(IRGen, BreakOutsideLoop) {
  DiagnosticEngine Diag;
  compileToIR("void main() { break; }", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(IRGen, VoidFunctionAsValue) {
  DiagnosticEngine Diag;
  compileToIR("void f() {} void main() { int x = f(); }", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(IRGen, WrongArgCount) {
  DiagnosticEngine Diag;
  compileToIR("int f(int a) { return a; } void main() { f(1, 2); }", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(IRGen, ReturnValueFromVoid) {
  DiagnosticEngine Diag;
  compileToIR("void f() { return 3; } void main() {}", Diag);
  EXPECT_TRUE(Diag.hasErrors());
}

TEST(IRGen, ShortCircuitLowering) {
  DiagnosticEngine Diag;
  Module M = compileToIR(R"(
    void main() {
      int a = 1;
      int b = 0;
      if (a && (b || a)) {
        __out(0, 1);
      }
      __halt();
    }
  )",
                         Diag);
  ASSERT_FALSE(Diag.hasErrors()) << Diag.str();
  EXPECT_TRUE(moduleIsValid(M));
  // Short-circuit lowering produces multiple blocks.
  EXPECT_GT(M.Functions[0].Blocks.size(), 3u);
}

TEST(IRGen, LocalArrays) {
  DiagnosticEngine Diag;
  Module M = compileToIR(R"(
    void main() {
      int buf[8];
      int i;
      for (i = 0; i < 8; i = i + 1) {
        buf[i] = i * i;
      }
      __out(0, buf[3]);
      __halt();
    }
  )",
                         Diag);
  ASSERT_FALSE(Diag.hasErrors()) << Diag.str();
  EXPECT_TRUE(moduleIsValid(M));
  ASSERT_EQ(M.Functions[0].FrameObjects.size(), 1u);
  EXPECT_EQ(M.Functions[0].FrameObjects[0].SizeWords, 8);
}

TEST(IRGen, PrintsReadableIR) {
  DiagnosticEngine Diag;
  Module M = compileToIR("int g; void main() { g = 7; __halt(); }", Diag);
  ASSERT_FALSE(Diag.hasErrors());
  std::string Text = M.print();
  EXPECT_NE(Text.find("global @g[1]"), std::string::npos);
  EXPECT_NE(Text.find("storeg @g"), std::string::npos);
  EXPECT_NE(Text.find("halt"), std::string::npos);
}

/// Continues FNV-1a hash \p H over the lowered, unoptimized text of
/// \p Source and over every diagnostic the frontend reported for it. With
/// \p IndexedBlocks the text is printWithIndexedBlocks'.
uint64_t loweredDigest(const std::string &Source, uint64_t H = Fnv1aBasis,
                       bool IndexedBlocks = false) {
  DiagnosticEngine Diag;
  Module M = compileToIR(Source, Diag);
  std::string Text = IndexedBlocks ? printWithIndexedBlocks(std::move(M))
                                   : M.print();
  for (const Diagnostic &D : Diag.diagnostics())
    Text += format("%u:%u: %s\n", D.Loc.Line, D.Loc.Col, D.Message.c_str());
  return fnv1a(Text.data(), Text.size(), H);
}

/// Programs the frontend must reject: the parser's and the lowering's
/// diagnostics, and lexer errors whose reports the stray-character loop
/// and the bounded literal left unchanged (a stray character not followed
/// by trivia, a decimal literal within int64_t).
const char *const MalformedPrograms[] = {
    "void f() { int x = ; }",
    "void f(int a, int b, int c, int d, int e) {}",
    "void main() { x = 1; }",
    "void main() { x[1] = 2; }",
    "void main() { break; }",
    "void main() { continue; }",
    "void f() {} void main() { int x = f(); }",
    "int f(int a) { return a; } void main() { f(1, 2); }",
    "void main() { int x = g(1); }",
    "void f() { return 3; } void main() {}",
    "int f() { return; } void main() {}",
    "int g; int g; void main() {}",
    "void f() {} void f() {} void main() {}",
    "void main() { int a; int a; }",
    "int f(int a, int a) { return a; } void main() {}",
    "void main() { int a[4]; a = 1; }",
    "int t[3]; void main() { t = 1; }",
    "int s; void main() { s[0] = 1; }",
    "void main() { int s; int x = s[1]; }",
    "void main() { int a[2]; int x = a; }",
    "int f(int a) { a[1] = 2; return a; }",
    "int t[2] = {1, 2, 3}; void main() {}",
    "void g = 1;",
    "int main( { }",
    "void main() { if (1 { } }",
    "void main() { int a[0]; }",
    "int a[-1];",
    "void main() { int b[2] = 1; }",
    "void main() { return 0 }",
    "int main() { return 1 + ; }",
    "void main() { __out(x, 1); }",
    "void main() { __halt(; }",
    "12 int;",
    "}",
    "void main() { {  }",
    "void main() { int a = 1 int b = 2; }",
    "int x = 70000;",
    "int $bad; void main() {}",
    "/* never closed",
    "",
};

/// The frontend's output, pinned: a lexer, parser or lowering rewrite must
/// leave every unoptimized module bit-identical (block and vreg names
/// included) and report the same diagnostics at the same places. Covers
/// every shipped program, the optimizer corpus's generator seeds (program
/// plus one mutation) and MalformedPrograms. On a mismatch the failure
/// message carries the full table of current digests.
TEST(Frontend, LoweredModulesArePinned) {
  static const std::pair<const char *, uint64_t> PinnedPrograms[] = {
      {"Blink", 0x3cb797687a7b2ed0ULL},
      {"CntToLeds", 0x66618138055c2281ULL},
      {"CntToRfm", 0x3cd4d2c7e4812f8cULL},
      {"CntToLedsAndRfm", 0x9ce5d9723c06de70ULL},
      {"AES", 0x876f634aea0b30afULL},
      {"case1.new", 0x0a6b1fb8f12ccd1dULL},
      {"case2.new", 0x85e900968eb73db0ULL},
      {"case3.new", 0x474b5cbc688322b4ULL},
      {"case4.new", 0x0021b7308fc39441ULL},
      {"case5.new", 0xf11323fe1c51ac72ULL},
      {"case6.new", 0xee1d522a7bf5ffd8ULL},
      {"case7.new", 0xca1d6491e3334647ULL},
      {"case8.new", 0x278602a2240b15d0ULL},
      {"case9.new", 0x149c7556c02ca336ULL},
      {"case10.new", 0x2223d3d7c58a2278ULL},
      {"case11.new", 0x8acb7d2cfad0e10fULL},
      {"case101.new", 0xe54f40b285b14827ULL},
      {"case102.new", 0x0c34ad5ce9f825d3ULL},
      {"liverange.old", 0x65802631c579d955ULL},
      {"liverange.new", 0xa26040d94ecdfea9ULL},
  };
  static const uint64_t PinnedCorpus[] = {
      0x1394f1737d8590a7ULL, 0xa845315b5999f8e9ULL, 0x5d1f7d96f269ebfdULL,
      0x90000bbce8b28485ULL, 0x23ffd608dc277cfeULL, 0xe690e0c0edbc108eULL,
      0x1c17d972eff4429cULL, 0x1a128764d40ea96aULL, 0xab793a9df52af562ULL,
      0x469aee70c7fd0852ULL, 0xf6a4a31b680d6ebdULL, 0x4bdd727908f33933ULL,
      0x50a186015af424afULL, 0x44768ec848406e19ULL, 0x4f4c328fd0c9c1deULL,
      0x5930c80c49cef6c9ULL, 0x483f628c4bf5f02eULL, 0x9522c06db680fcbdULL,
      0xfc6b99ee787e6387ULL, 0xb79bbe7418905376ULL, 0xd14faffc20ad2afdULL,
      0xe0e45669593ce8aaULL, 0xfe42abf1731c1c84ULL, 0xcde7f838f612bb46ULL,
      0x3f69045457b2e6d1ULL, 0xc6c367f04176f826ULL, 0x0f92cf7810ff8377ULL,
      0x435929e84129b92cULL, 0x8ce871c953dc172eULL, 0x486c722613facbffULL,
      0x28e313dd05576e9fULL, 0x11e226f79eb9e016ULL, 0x7fe363c4fb5112f7ULL,
      0x184d81b2f12b33daULL, 0x4e530d30836272faULL, 0xc0e6771ec8ffab72ULL,
      0x81a694d26373574bULL, 0x4c51d6af535b05d2ULL, 0x037cf6e1c51b4824ULL,
      0xba9e4ff5bf4d6beaULL, 0x1a0882777e1b4902ULL, 0x469f071893527586ULL,
      0x00fa4647af4b27faULL, 0xd5a40557b0be5964ULL, 0xa2d1b81fd338be75ULL,
      0x517a6c5f212af588ULL, 0x6f473b8d71c6e57aULL, 0x0c62c73bd0f1fb3fULL,
      0x5275be0c3c7ccdf0ULL, 0xad8537da1e2c0759ULL, 0xdb9ac48cc00c8549ULL,
      0xfcab312cce23196bULL, 0x012844834a35299bULL, 0xb6f42d0f3933bbd1ULL,
      0xdc2181027326559fULL, 0xa885782323bbb9a7ULL, 0xc08c8a025cb4bb88ULL,
      0x9ae8a35abf24a60cULL, 0xe0990c1108ec1813ULL, 0x14d52bf3f13b5bf4ULL,
      0x79d1a758bae56dc4ULL, 0xf0dfc17814ad944bULL, 0x39514847d414028aULL,
      0xa10369b639ffc53aULL, 0x6bc921bcbd276c54ULL, 0xa52ca05680e59e51ULL,
      0x2dda92720c009d32ULL, 0x5848512f601cb356ULL, 0x47f3b5894d9c588aULL,
      0x0ed65a4c38165b45ULL, 0x434ee24521099802ULL, 0x16bb34ebabd4aa8fULL,
      0xf7e821be5314ecf9ULL, 0xf0d59e10293c8b57ULL, 0x447328ac5912f42eULL,
      0xd1b8648bf35cbbd7ULL, 0x504f484de5675222ULL, 0x2a680f6e0767f3aeULL,
      0x481b2d5c9d234f86ULL, 0x77e264b48d35aed9ULL, 0x229e8ac8c66bcf98ULL,
      0x54c89fad37798622ULL, 0xfa40f246642a8ec0ULL, 0xe548d280ad51e42dULL,
      0x5f57efaaac682300ULL, 0xc14e2b80b2ac5a16ULL, 0x35ab66b5f567f028ULL,
      0xb2b273b14a74b622ULL, 0x75c3a18060c255d6ULL, 0x55451a55fda7918fULL,
      0x09372e79a1ba8fa6ULL, 0x915308ead81c3726ULL, 0x8cdf962083a603beULL,
      0xf1353f44704f6343ULL, 0xfbc716d993615481ULL, 0x7d67fa77181d8968ULL,
      0xa04a31bc997049d6ULL, 0x76659d9eb54e1766ULL, 0x46d059dd11e13e44ULL,
      0x49e81489a756eddeULL, 0x455b8ef0020036e2ULL, 0xcd0298fd96be7095ULL,
      0x5ebf661101834ddaULL, 0x20607cdc7ffe0a3bULL, 0x3160f99134b8869dULL,
      0x782919be01c213beULL, 0x0c7733a2e0f42a09ULL, 0xe6dee4d98184c3a2ULL,
      0xb286e0c3ae4de8d8ULL, 0x8eb4a1e268ef1a0fULL, 0x0b3acb0287aee771ULL,
      0xea9f15d27439e8afULL, 0xcc582cc13e8ed0fdULL, 0x0868da0cf4742893ULL,
      0x684629ba75aeaa45ULL, 0xc6a8c897a299dfd5ULL, 0xe2eaacf732a17c82ULL,
      0x7bf0bbcb5f06aa07ULL, 0x1e82bf4810aafb4bULL, 0x7689b27a8b37cbacULL,
      0x76334408370b609aULL, 0xae66ed093f234324ULL, 0x281fb19e87c8858dULL,
      0x335b25b563d169e7ULL, 0x123f256e7c0c0342ULL, 0xfc9b0ad17dba27b8ULL,
      0x41f777d0fff0f873ULL, 0x13330ef800d1b8a2ULL,
  };
  static const uint64_t PinnedMalformed[] = {
      0x97a7227f0fb320e2ULL, 0x5369db1b84c6e55cULL, 0xeac4e5be073eaa67ULL,
      0xeac4e5be073eaa67ULL, 0xdc6a79f94c02a8e0ULL, 0x19d4f502fea31a06ULL,
      0xd5e52903d1f325faULL, 0x9c4aa20ccb440c76ULL, 0x66efa270ec555e29ULL,
      0x0f83e522b41fafe8ULL, 0x625db2e09cb57d90ULL, 0x6a71a54e34c438adULL,
      0xf4b884ce3760e3a7ULL, 0xbaef575e1867c37fULL, 0x675192edc3f85c72ULL,
      0x1d5b1d64dbc216f5ULL, 0x1db36111073d14a4ULL, 0x6402fff4e1b121f2ULL,
      0x3f425c40bbd40440ULL, 0xa7f40cb0c4e0d0a0ULL, 0xb795a3d5ce7d8e94ULL,
      0x68d29b1acebefe68ULL, 0x3a0711acc0ab180cULL, 0x7e809252615ead0dULL,
      0x1a3a9b9b60c73eb0ULL, 0xbf43d7cedb87b1d2ULL, 0x98c7c834b4777c4eULL,
      0x3a5285d5cd660a69ULL, 0xb663b611dbf686e6ULL, 0x540d68b0d2c2d088ULL,
      0x930bd33c649c1c76ULL, 0xeb4c3bdd5e8d5bc9ULL, 0x885255148856e809ULL,
      0x401f03d1edf0ec4eULL, 0x441fc8fd95cd37cfULL, 0x2bf39eec02efc62fULL,
      0xd431a5785f41bc01ULL, 0x7bf0458c4f3c370bULL, 0x5941b24a254a514dULL,
      0xcbf29ce484222325ULL,
  };
  // The same inputs in the same order (programs, corpus, malformed),
  // hashed over printWithIndexedBlocks: a change to how blocks are named
  // leaves these as they are.
  static const uint64_t PinnedIndexedBlocks[] = {
      0x58251b40d27bb9e4ULL, 0xe3be086caa85bc7cULL, 0xff6affab0d488ffcULL,
      0x0f829a0cb4ebe0b1ULL, 0xd1215f30c6fcf1a8ULL, 0x514727c7a319b378ULL,
      0x5fb2ce394497ddfdULL, 0xc24d1b2b2c4f87b8ULL, 0x92340451a2ae04ebULL,
      0x1d7ad70913da0351ULL, 0x8577f3942aaa7810ULL, 0x5e53f0b52a3c0e48ULL,
      0x1d487d33e02985ceULL, 0xd0ddd8aea7310202ULL, 0x519e3163af8488a2ULL,
      0xfe224b791be8dcc7ULL, 0x70ce5873b19894bdULL, 0x1d437db2524cb498ULL,
      0xd45a6c784f72fb5fULL, 0x0d7726ca4627159bULL, 0x823e9830e0caaf93ULL,
      0x796f3fc93578822eULL, 0x0b9a9091fc45bc09ULL, 0xe5c630567e68edf7ULL,
      0x0a7ec102e3972b79ULL, 0x63ca3e0b5aabf323ULL, 0x1b29cf31ddb5698fULL,
      0xef0e5d05b3343012ULL, 0x902d2e112ba04fa9ULL, 0xceae996489b631efULL,
      0x338b3e11e6df2e75ULL, 0x05db634674e0d7e9ULL, 0xfb31b66df1f73b0fULL,
      0x0d167d7532c97303ULL, 0xd862700585e6c86cULL, 0x8173666409084629ULL,
      0x87c8674747d79cecULL, 0x52f6fc2ab9127ae9ULL, 0x85dbdfd037ca5f97ULL,
      0x578de1f753fd9f85ULL, 0x4ba82be15cb7a84eULL, 0x700730970ed5e0b5ULL,
      0xd8a61a31550e4ac6ULL, 0x1031ce2c1b315bbbULL, 0x4adb7683d1bcb486ULL,
      0xa8a98bc6baa683c9ULL, 0xa2cf56dbb31c8fb1ULL, 0xb0b2e7b2a085eaccULL,
      0x8cfc9d42b5e28070ULL, 0x3c1cff73b5282b1dULL, 0x64eb741c6a4e4f81ULL,
      0x6f7c3481146aaa84ULL, 0x1784ab7f0b63bc14ULL, 0xa7228d4df513e280ULL,
      0x893850d9b927eeccULL, 0x65cef21e4736c603ULL, 0x3eea201b3c16fdefULL,
      0x7090491929e6ca03ULL, 0x0e2d48990b5289b5ULL, 0x3efa642e5e6576a3ULL,
      0x1c19f23152ea0bd8ULL, 0x710e9c5191a335a6ULL, 0xb3300417434475ceULL,
      0xe1c5c2efd9fd88f7ULL, 0xc757c1faf4985a35ULL, 0x3e2a889459bb3ed2ULL,
      0x5715aba4d2b47d7aULL, 0x3e0d50205e421621ULL, 0xbfeff92041658577ULL,
      0x06f97ca3287e9d6dULL, 0x084e5f07117305eeULL, 0x07791063dd2088a0ULL,
      0x62f6e2387b051e89ULL, 0xce929c42242db279ULL, 0xf1129bb9dc22ebbaULL,
      0x7d685eef42ca7942ULL, 0xf74ae758a73ed98dULL, 0x0a7669ce00545e2cULL,
      0x6306850e232fe323ULL, 0x9c35d0baf749c417ULL, 0xd9fc26f7e8903a96ULL,
      0xc7d4d5898c99deffULL, 0x81d65c37a9f3177aULL, 0x60eb1e9afd5a21fbULL,
      0x4bde6a9c8fd6ef01ULL, 0xd0ea9ae223b1cd00ULL, 0xb73e1a1f23898b77ULL,
      0x13924c5b1fe14d74ULL, 0xb8056262293facabULL, 0xdd0bbfeaeaf3ebfeULL,
      0xe0d2e81bad231c37ULL, 0x0029b0c5ed56d752ULL, 0x171a76cc1575ed74ULL,
      0xd7d1458df781f7a3ULL, 0x67e966559b31f8b7ULL, 0xf72c57bf8622a1bbULL,
      0x6949969825d2f23cULL, 0x631ce04e0212ee43ULL, 0x5719a1624d113e6fULL,
      0xb8093c9854943f07ULL, 0xf8cdf7c786610a30ULL, 0x13a33e26c6c33a8fULL,
      0xaa4382c4f97cdfe8ULL, 0x22d66bce3fb170cfULL, 0xb8154afbc739201cULL,
      0x00988f63b7d32d8fULL, 0x31953cf907fa7068ULL, 0xc82e76753cfc7bb7ULL,
      0x2197fd1f58a4237fULL, 0xf921c5e4ae58cb11ULL, 0xb481b741134c1909ULL,
      0x45caafb6e7859a42ULL, 0x6397d35230bf4578ULL, 0x7038105518f99bfaULL,
      0x48e5a3b6d5e453a9ULL, 0x17dde8073d782cc3ULL, 0xb10eae387cff2bdcULL,
      0x569742185c657f33ULL, 0x2da57c98c5f91e28ULL, 0xef2b2328b29e75bdULL,
      0xe2e598ce41ce460aULL, 0x2c16fff6d2ec62d0ULL, 0x481516217c1d3ec8ULL,
      0xd9b672fe6fde140bULL, 0x2ed74f9e05f08103ULL, 0x29f220c6b61dc18bULL,
      0x553291e184c7d36dULL, 0x6caa5fdc6a03b5d4ULL, 0xe7914d6c590f4e24ULL,
      0x33cc6887b4f4330dULL, 0xa03a99cb47c64bb0ULL, 0xcc338105af1b4ab9ULL,
      0x8100bbd75012081fULL, 0xd81fb5c411260bdaULL, 0xc49e40566e564f73ULL,
      0xbf8e037bbe31e93dULL, 0xb6e2eecc8fcaf247ULL, 0x5d2d315d48b7b1f2ULL,
      0xe3ad3540c99d86f5ULL, 0xde5914fa28429ae2ULL, 0xb578ffffe91d566aULL,
      0x6231f972e9f8e12cULL, 0xf3c9f0423ba2e780ULL, 0x1d89975ecb482b29ULL,
      0x3363bd70e2537484ULL, 0x84b31702c4210e6cULL, 0xe25f36d55d15ee19ULL,
      0x43063abf6f2d6484ULL, 0x97a7227f0fb320e2ULL, 0x5369db1b84c6e55cULL,
      0x51870ed38b2b608dULL, 0x51870ed38b2b608dULL, 0x77db027a326a5caeULL,
      0x57255c690ab7b85cULL, 0xe10da3dd9a70df6cULL, 0x940193757e8a6898ULL,
      0x64eb2635dd634203ULL, 0x637827d1713e03a0ULL, 0x61c95513c165024eULL,
      0x6a71a54e34c438adULL, 0xf4b884ce3760e3a7ULL, 0x0f23e2d10a9e931dULL,
      0xf83b6ace9112b480ULL, 0x4bd16e9ac850858bULL, 0x955898b5ebc84192ULL,
      0x84bab662e825fac6ULL, 0x37f6752e8f418292ULL, 0xbcc398e60f363af2ULL,
      0xfd0bcff65782c848ULL, 0x68d29b1acebefe68ULL, 0x3a0711acc0ab180cULL,
      0x7e809252615ead0dULL, 0x1a3a9b9b60c73eb0ULL, 0xbf43d7cedb87b1d2ULL,
      0x98c7c834b4777c4eULL, 0x3a5285d5cd660a69ULL, 0xb663b611dbf686e6ULL,
      0x540d68b0d2c2d088ULL, 0x930bd33c649c1c76ULL, 0xeb4c3bdd5e8d5bc9ULL,
      0x885255148856e809ULL, 0x401f03d1edf0ec4eULL, 0x441fc8fd95cd37cfULL,
      0x2bf39eec02efc62fULL, 0xd431a5785f41bc01ULL, 0x7bf0458c4f3c370bULL,
      0x5941b24a254a514dULL, 0xcbf29ce484222325ULL,
  };
  constexpr int CorpusSeeds = 128;

  std::string Table;
  bool Mismatch = false;
  std::vector<uint64_t> Indexed;
  std::vector<std::pair<std::string, std::string>> Programs =
      workloadPrograms();
  for (size_t K = 0; K < Programs.size(); ++K) {
    Indexed.push_back(loweredDigest(Programs[K].second, Fnv1aBasis, true));
    uint64_t D = loweredDigest(Programs[K].second);
    Table += format("      {\"%s\", 0x%016" PRIx64 "ULL},\n",
                    Programs[K].first.c_str(), D);
    bool Same = K < std::size(PinnedPrograms) &&
                Programs[K].first == PinnedPrograms[K].first &&
                D == PinnedPrograms[K].second;
    EXPECT_TRUE(Same) << Programs[K].first;
    Mismatch |= !Same;
  }
  EXPECT_EQ(Programs.size(), std::size(PinnedPrograms));
  for (int Seed = 0; Seed < CorpusSeeds; ++Seed) {
    ProgramGen Gen(static_cast<uint64_t>(Seed));
    uint64_t D = loweredDigest(Gen.render());
    uint64_t DI = loweredDigest(Gen.render(), Fnv1aBasis, true);
    Gen.mutate();
    D = loweredDigest(Gen.render(), D);
    Indexed.push_back(loweredDigest(Gen.render(), DI, true));
    Table += format("%s0x%016" PRIx64 "ULL,%s", Seed % 3 ? "" : "      ", D,
                    Seed % 3 == 2 ? "\n" : " ");
    bool Same = static_cast<size_t>(Seed) < std::size(PinnedCorpus) &&
                D == PinnedCorpus[Seed];
    EXPECT_TRUE(Same) << "generator seed " << Seed;
    Mismatch |= !Same;
  }
  EXPECT_EQ(static_cast<size_t>(CorpusSeeds), std::size(PinnedCorpus));
  Table += "\n";
  for (size_t K = 0; K < std::size(MalformedPrograms); ++K) {
    Indexed.push_back(loweredDigest(MalformedPrograms[K], Fnv1aBasis, true));
    uint64_t D = loweredDigest(MalformedPrograms[K]);
    Table += format("%s0x%016" PRIx64 "ULL,%s", K % 3 ? "" : "      ", D,
                    K % 3 == 2 ? "\n" : " ");
    bool Same = K < std::size(PinnedMalformed) && D == PinnedMalformed[K];
    EXPECT_TRUE(Same) << "malformed program: " << MalformedPrograms[K];
    Mismatch |= !Same;
  }
  EXPECT_EQ(std::size(MalformedPrograms), std::size(PinnedMalformed));
  EXPECT_FALSE(Mismatch) << "current digests:\n" << Table;
  std::vector<uint64_t> Pinned(std::begin(PinnedIndexedBlocks),
                               std::end(PinnedIndexedBlocks));
  EXPECT_EQ(Indexed, Pinned) << "indexed:\n" << digestTable(Indexed);
}

} // namespace
