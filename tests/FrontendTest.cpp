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
/// \p Source and over every diagnostic the frontend reported for it.
uint64_t loweredDigest(const std::string &Source, uint64_t H = Fnv1aBasis) {
  DiagnosticEngine Diag;
  Module M = compileToIR(Source, Diag);
  std::string Text = M.print();
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
      {"Blink", 0x1a53a6924c8603e4ULL},
      {"CntToLeds", 0x5cffd10479056fb0ULL},
      {"CntToRfm", 0x9cc0990c3ca108c4ULL},
      {"CntToLedsAndRfm", 0xd61d92089422d925ULL},
      {"AES", 0x268880e31df0c024ULL},
      {"case1.new", 0x092c2549f661f544ULL},
      {"case2.new", 0x57011c66becff89fULL},
      {"case3.new", 0x2a1fce2c4adbe158ULL},
      {"case4.new", 0xde8a650f464a7909ULL},
      {"case5.new", 0xa6e80c7f3420251dULL},
      {"case6.new", 0x5d15f827142f6224ULL},
      {"case7.new", 0x1119f022ff9c3abbULL},
      {"case8.new", 0xa8d858770710d624ULL},
      {"case9.new", 0x991414e69c64062aULL},
      {"case10.new", 0xe3f3cc0844e83110ULL},
      {"case11.new", 0x7e499e9d3a3572bcULL},
      {"case101.new", 0xbc270e58e8576eebULL},
      {"case102.new", 0xda1e5f5c6d8046baULL},
      {"liverange.old", 0x65802631c579d955ULL},
      {"liverange.new", 0xa26040d94ecdfea9ULL},
  };
  static const uint64_t PinnedCorpus[] = {
      0x3d48e44b277ebb5dULL, 0x1215dacba38eb046ULL, 0x08591ceb5e6a4ca5ULL,
      0xf71db25c9136a6bbULL, 0xe342a6ae1d9c8854ULL, 0xe929961c22e03cc3ULL,
      0x07624cca7f2006b8ULL, 0xf325f3f68c939196ULL, 0x53ab4e1555c901adULL,
      0x0b87394de2de8278ULL, 0xdeaa598bb6d181b9ULL, 0x8e329c6b91a66494ULL,
      0x763cf1ca3722dc0bULL, 0x1ac7302ff4a4b6fdULL, 0xdcb98d2cc78ce40eULL,
      0xf2ba9bb187c560adULL, 0x678b9f510eb434e4ULL, 0xd0dcd302c48e78d9ULL,
      0xdd3bd39d958a335dULL, 0x4a4ef83f7dfdaf9cULL, 0xd9de7b831508ded5ULL,
      0x15348486a1c0d238ULL, 0x8577be3ae59c6566ULL, 0xf01cf4db250ecfa1ULL,
      0x76966f94368d07c2ULL, 0xdeb5d168c06e0888ULL, 0x9bc8606b85b50778ULL,
      0xdef9062603cf914aULL, 0x74501898e606337aULL, 0x1e5b1721cb6f3eedULL,
      0x3905cf9f1a6f0bd4ULL, 0xa3879ee74af2193dULL, 0x0fd39de23e88c24bULL,
      0x609cf484a0938c29ULL, 0xd3799f0df4bc5fc8ULL, 0xb99697aebb1f8bd2ULL,
      0xfdf4877bc724dea4ULL, 0x0b69bb1ac33da734ULL, 0x98ca7e11a64ddc84ULL,
      0xde0d38fff6571fc9ULL, 0x375b5ce5f67417bcULL, 0x37fe2b71558f6e6cULL,
      0xb318f713426bd659ULL, 0x9a5327364e66dad6ULL, 0xa4309cde8d9ca627ULL,
      0xf9a47185bea7f76cULL, 0x8fb32b74695081d5ULL, 0x756f796966286bbfULL,
      0x6914f90d34da9741ULL, 0xe7058833bfd6dd11ULL, 0x09fc4d1da4b06495ULL,
      0x5a3154e47f5b3fbbULL, 0x24caa8c65d7ecb6dULL, 0xb520599cd749e3f7ULL,
      0x868a824b72456587ULL, 0x6992364375549c1aULL, 0x182bcdb0a427b3e4ULL,
      0xf635dc5c1f9d6b14ULL, 0xb67a01f213f72610ULL, 0x744ebc1c56295dd5ULL,
      0x97bf7714dc989749ULL, 0xbf563b3e60f89f51ULL, 0x4a11efc4ccfa5304ULL,
      0x41781578bc4459b6ULL, 0x80daf8c23c318149ULL, 0xdb06014d7a648866ULL,
      0x5d03430f7f424499ULL, 0x1a3df5a7aac82598ULL, 0xb0dfd5cbd6552805ULL,
      0x41fe68fde1d357fdULL, 0x9b27dc8f7af94030ULL, 0xbee6dddbe77dd51eULL,
      0x2b2067f3d5116923ULL, 0x28b09dce43f8d176ULL, 0x0dc85937701376eaULL,
      0xaf2bb1f455dc846dULL, 0xd7c820d0fc525de6ULL, 0x17de3d01d3593b82ULL,
      0x438f9eb833c86221ULL, 0x8d9c24c75bfbccf5ULL, 0xbd313b759de1f1e8ULL,
      0xb524c9d0e06690faULL, 0xfeff0cf51f1c16ccULL, 0xdf9fd56f1c8a2301ULL,
      0xe8aad2b3dd2198f7ULL, 0xc04674504ff50e84ULL, 0xeea317b50bdb271cULL,
      0x2b0d18d7e3d5d477ULL, 0x3ec1246efee519a8ULL, 0x79379dc1d88e8211ULL,
      0x650e394419c4c672ULL, 0xb4081bb612e8a596ULL, 0xb8452f60f2c2a88eULL,
      0xbdfed289d9a51eeeULL, 0x73bae192647613b1ULL, 0x690af4b54f869d87ULL,
      0xa040da6aacd703f4ULL, 0xbb51fff43edfdb54ULL, 0xecefb246b87faaccULL,
      0x4dafad858bab8500ULL, 0xbc7a9d183c85ab66ULL, 0x2511c009a8abb7d2ULL,
      0x57d403ca0bf8f737ULL, 0x146f8658105b004fULL, 0xfa3e41d9b476076bULL,
      0xe0ddefb1d8bb53c0ULL, 0x5bac234bf4e1ce6bULL, 0x6b8c29d45b0c5646ULL,
      0xe2143c74d5533a8eULL, 0xbb9c4ed5aaeb522bULL, 0x7142bc87dfb59da7ULL,
      0x761478bad1a41bffULL, 0xdc5e389cd331e4c8ULL, 0xf9bad812c3cae3dbULL,
      0x657f5a9c3c116197ULL, 0x4fb7b13730dda3deULL, 0x3c27ec8c19d2ffdaULL,
      0x6853d58e08378606ULL, 0xb6f74c7ef899f3c7ULL, 0x4692643b7aa99f94ULL,
      0x103927fb0e2d5eedULL, 0xae66ed093f234324ULL, 0xc3cafd2b54d35879ULL,
      0xfb06b7c700c91756ULL, 0x65c95de5a8d441eeULL, 0xcb860a86f8cf1b02ULL,
      0xa42a9eabbf1c825dULL, 0xc0c05b3c7f6835deULL,
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
  constexpr int CorpusSeeds = 128;

  std::string Table;
  bool Mismatch = false;
  std::vector<std::pair<std::string, std::string>> Programs =
      workloadPrograms();
  for (size_t K = 0; K < Programs.size(); ++K) {
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
    Gen.mutate();
    D = loweredDigest(Gen.render(), D);
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
    uint64_t D = loweredDigest(MalformedPrograms[K]);
    Table += format("%s0x%016" PRIx64 "ULL,%s", K % 3 ? "" : "      ", D,
                    K % 3 == 2 ? "\n" : " ");
    bool Same = K < std::size(PinnedMalformed) && D == PinnedMalformed[K];
    EXPECT_TRUE(Same) << "malformed program: " << MalformedPrograms[K];
    Mismatch |= !Same;
  }
  EXPECT_EQ(std::size(MalformedPrograms), std::size(PinnedMalformed));
  EXPECT_FALSE(Mismatch) << "current digests:\n" << Table;
}

} // namespace
