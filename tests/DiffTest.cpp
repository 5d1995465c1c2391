//===- tests/DiffTest.cpp - edit scripts and image diffing ----------------===//

#include "ProgramGen.h"

#include "core/Compiler.h"
#include "diff/EditScript.h"
#include "diff/ImageDiff.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/RNG.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>

using namespace ucc;

namespace {

std::vector<uint32_t> randomWords(RNG &Rng, size_t N) {
  std::vector<uint32_t> Words(N);
  for (uint32_t &W : Words)
    W = static_cast<uint32_t>(Rng.below(64)); // small alphabet: collisions
  return Words;
}

/// Mutates a word sequence with random point edits, insertions, removals.
std::vector<uint32_t> mutate(RNG &Rng, std::vector<uint32_t> Words,
                             int Edits) {
  for (int K = 0; K < Edits; ++K) {
    uint64_t Kind = Rng.below(3);
    if (Words.empty() || Kind == 0) {
      Words.insert(Words.begin() +
                       static_cast<long>(Rng.below(Words.size() + 1)),
                   static_cast<uint32_t>(Rng.below(64)));
    } else if (Kind == 1) {
      Words[Rng.below(Words.size())] = static_cast<uint32_t>(Rng.below(64));
    } else {
      Words.erase(Words.begin() + static_cast<long>(Rng.below(Words.size())));
    }
  }
  return Words;
}

/// An image of \p Fns (name, code) laid out in order, with \p Data.
BinaryImage imageOf(
    const std::vector<std::pair<std::string, std::vector<uint32_t>>> &Fns,
    std::vector<int16_t> Data = {}) {
  BinaryImage Img;
  for (const auto &[Name, Code] : Fns) {
    Img.Functions.push_back({Name, static_cast<uint32_t>(Img.Code.size()),
                             static_cast<uint32_t>(Code.size())});
    Img.Code.insert(Img.Code.end(), Code.begin(), Code.end());
  }
  Img.DataInit = std::move(Data);
  Img.EntryFunc = Img.Functions.empty() ? -1 : 0;
  return Img;
}

/// Diff_inst by aligning every surviving function with alignWords, the
/// reference the script-derived diffImages must reproduce.
ImageDiff alignedDiff(const BinaryImage &Old, const BinaryImage &New) {
  ImageDiff Out;
  for (size_t F = 0; F < New.Functions.size(); ++F) {
    FunctionDiff FD;
    FD.Name = New.Functions[F].Name;
    std::vector<uint32_t> NewCode = New.functionCode(static_cast<int>(F));
    FD.NewCount = static_cast<int>(NewCode.size());
    int OldIdx = Old.findFunction(FD.Name);
    if (OldIdx >= 0) {
      std::vector<uint32_t> OldCode = Old.functionCode(OldIdx);
      FD.OldCount = static_cast<int>(OldCode.size());
      FD.Matched = static_cast<int>(alignWords(OldCode, NewCode).size());
    }
    Out.Functions.push_back(std::move(FD));
  }
  for (const FunctionSpan &F : Old.Functions)
    if (New.findFunction(F.Name) < 0) {
      FunctionDiff FD;
      FD.Name = F.Name;
      FD.OldCount = static_cast<int>(F.Count);
      Out.Functions.push_back(std::move(FD));
    }
  size_t Common = std::min(Old.DataInit.size(), New.DataInit.size());
  for (size_t K = 0; K < Common; ++K)
    Out.DataWordsChanged += Old.DataInit[K] != New.DataInit[K];
  Out.DataWordsChanged += static_cast<int>(
      std::max(Old.DataInit.size(), New.DataInit.size()) - Common);
  return Out;
}

/// diffImages, from a package and from the two images alone, equals the
/// per-function alignment reference, function by function.
void expectDiffMatchesAlignment(const BinaryImage &Old, const BinaryImage &New,
                                const std::string &What) {
  ImageDiff Want = alignedDiff(Old, New);
  for (const ImageDiff &Got :
       {diffImages(Old, New, makeImageUpdate(Old, New)),
        diffImages(Old, New)}) {
    ASSERT_EQ(Got.Functions.size(), Want.Functions.size()) << What;
    for (size_t F = 0; F < Want.Functions.size(); ++F) {
      const FunctionDiff &G = Got.Functions[F], &W = Want.Functions[F];
      EXPECT_EQ(G.Name, W.Name) << What;
      EXPECT_EQ(G.OldCount, W.OldCount) << What << ": " << W.Name;
      EXPECT_EQ(G.NewCount, W.NewCount) << What << ": " << W.Name;
      EXPECT_EQ(G.Matched, W.Matched) << What << ": " << W.Name;
    }
    EXPECT_EQ(Got.DataWordsChanged, Want.DataWordsChanged) << What;
  }
}

TEST(EditScript, IdenticalSequencesAreOneCopy) {
  std::vector<uint32_t> Words = {1, 2, 3, 4, 5};
  EditScript S = makeEditScript(Words, Words);
  ASSERT_EQ(S.Prims.size(), 1u);
  EXPECT_EQ(S.Prims[0].Op, EditOp::Copy);
  EXPECT_EQ(S.Prims[0].Count, 5u);
  EXPECT_EQ(S.encodedBytes(), 1u);
}

TEST(EditScript, EmptyToFullIsOneInsert) {
  std::vector<uint32_t> New = {7, 8, 9};
  EditScript S = makeEditScript({}, New);
  ASSERT_EQ(S.Prims.size(), 1u);
  EXPECT_EQ(S.Prims[0].Op, EditOp::Insert);
  EXPECT_EQ(S.encodedBytes(), 1u + 3u * 4u);
}

TEST(EditScript, SingleWordChangeIsOneReplace) {
  std::vector<uint32_t> Old = {1, 2, 3, 4, 5};
  std::vector<uint32_t> New = {1, 2, 9, 4, 5};
  EditScript S = makeEditScript(Old, New);
  // copy 2, replace 1, copy 2
  EXPECT_EQ(S.encodedBytes(), 1u + (1u + 4u) + 1u);
  std::vector<uint32_t> Out;
  ASSERT_TRUE(applyEditScript(Old, S, Out));
  EXPECT_EQ(Out, New);
}

TEST(EditScript, LongRunsSplitAt63) {
  std::vector<uint32_t> Words(200, 42);
  EditScript S = makeEditScript(Words, Words);
  // 200 copies need ceil(200/63) = 4 primitive bytes.
  EXPECT_EQ(S.encodedBytes(), 4u);
  EXPECT_EQ(S.primitiveCount(), 4u);
}

TEST(EditScript, EncodeDecodeRoundTrip) {
  RNG Rng(99);
  std::vector<uint32_t> Old = randomWords(Rng, 120);
  std::vector<uint32_t> New = mutate(Rng, Old, 25);
  EditScript S = makeEditScript(Old, New);

  std::vector<uint8_t> Bytes = S.encode();
  EXPECT_EQ(Bytes.size(), S.encodedBytes());

  EditScript Back;
  ASSERT_TRUE(EditScript::decode(Bytes, Back));
  std::vector<uint32_t> Out;
  ASSERT_TRUE(applyEditScript(Old, Back, Out));
  EXPECT_EQ(Out, New);
}

TEST(EditScript, RejectsTruncatedScript) {
  EditScript S = makeEditScript({1, 2, 3}, {4, 5, 6});
  std::vector<uint8_t> Bytes = S.encode();
  Bytes.pop_back();
  EditScript Back;
  EXPECT_FALSE(EditScript::decode(Bytes, Back));
}

TEST(EditScript, RejectsScriptForWrongBase) {
  std::vector<uint32_t> Old = {1, 2, 3, 4, 5, 6};
  EditScript S = makeEditScript(Old, {1, 2, 9});
  std::vector<uint32_t> WrongBase = {1, 2};
  std::vector<uint32_t> Out;
  EXPECT_FALSE(applyEditScript(WrongBase, S, Out))
      << "script must notice the old image is shorter than expected";
}

/// The fundamental patcher property: apply(old, script(old, new)) == new.
class ScriptRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ScriptRoundTrip, PatchReproducesNew) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 7 + 3);
  size_t OldLen = Rng.below(300);
  int Edits = static_cast<int>(Rng.below(60));
  std::vector<uint32_t> Old = randomWords(Rng, OldLen);
  std::vector<uint32_t> New = mutate(Rng, Old, Edits);

  EditScript S = makeEditScript(Old, New);
  std::vector<uint32_t> Out;
  ASSERT_TRUE(applyEditScript(Old, S, Out));
  EXPECT_EQ(Out, New);

  // The script is never larger than "remove everything, insert everything".
  size_t Naive = (Old.size() + 62) / 63 + (New.size() + 62) / 63 +
                 New.size() * 4;
  EXPECT_LE(S.encodedBytes(), Naive + 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptRoundTrip, ::testing::Range(0, 30));

/// Chain composition: compose(A->B, B->C) patches A straight to C, and is
/// never cheaper than a fresh A->C diff (reuse provenance only shrinks
/// along a chain).
class ScriptComposition : public ::testing::TestWithParam<int> {};

TEST_P(ScriptComposition, ComposedScriptPatchesEndToEnd) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 11 + 5);
  std::vector<uint32_t> V1 = randomWords(Rng, Rng.below(250));
  std::vector<uint32_t> V2 =
      mutate(Rng, V1, static_cast<int>(Rng.below(40)));
  std::vector<uint32_t> V3 =
      mutate(Rng, V2, static_cast<int>(Rng.below(40)));

  EditScript S12 = makeEditScript(V1, V2);
  EditScript S23 = makeEditScript(V2, V3);
  EditScript S13;
  ASSERT_TRUE(composeEditScripts(V1, S12, S23, S13));

  std::vector<uint32_t> Patched;
  ASSERT_TRUE(applyEditScript(V1, S13, Patched));
  EXPECT_EQ(Patched, V3);

  // A fresh endpoint diff sees every accidental match; the composed chain
  // only keeps words both steps copied.
  EXPECT_GE(S13.encodedBytes(), makeEditScript(V1, V3).encodedBytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptComposition, ::testing::Range(0, 30));

TEST(EditScript, ComposeRejectsScriptsForTheWrongBase) {
  std::vector<uint32_t> V1 = {1, 2, 3, 4, 5};
  std::vector<uint32_t> V2 = {1, 2, 9, 4, 5};
  EditScript S12 = makeEditScript(V1, V2);
  EditScript S23 = makeEditScript({7, 7, 7, 7, 7, 7, 7, 7, 7}, {7});
  EditScript Out;
  EXPECT_FALSE(composeEditScripts(V1, S12, S23, Out))
      << "second script expects a 9-word base, the first produces 5 words";
  EXPECT_FALSE(composeEditScripts({1, 2}, S12, S23, Out))
      << "first script does not apply to a 2-word base";
}

TEST(EditScript, ComposeAcrossThreeSteps) {
  // Composition is associative enough to fold a whole chain: fold the
  // per-step scripts left to right and patch the base once.
  RNG Rng(99);
  std::vector<uint32_t> Versions[4];
  Versions[0] = randomWords(Rng, 120);
  for (int K = 1; K < 4; ++K)
    Versions[K] = mutate(Rng, Versions[K - 1], 25);

  EditScript Acc = makeEditScript(Versions[0], Versions[1]);
  for (int K = 2; K < 4; ++K) {
    EditScript Step = makeEditScript(Versions[K - 1], Versions[K]);
    EditScript Next;
    ASSERT_TRUE(composeEditScripts(Versions[0], Acc, Step, Next));
    Acc = std::move(Next);
  }
  std::vector<uint32_t> Patched;
  ASSERT_TRUE(applyEditScript(Versions[0], Acc, Patched));
  EXPECT_EQ(Patched, Versions[3]);
}

TEST(Alignment, FindsLongestCommonRun) {
  std::vector<uint32_t> Old = {9, 1, 2, 3, 4, 9, 9};
  std::vector<uint32_t> New = {1, 2, 3, 4, 8};
  auto Matches = alignWords(Old, New);
  ASSERT_EQ(Matches.size(), 4u);
  EXPECT_EQ(Matches[0].first, 1);
  EXPECT_EQ(Matches[0].second, 0);
}

TEST(Alignment, MatchesAreStrictlyIncreasing) {
  RNG Rng(5);
  std::vector<uint32_t> Old = randomWords(Rng, 80);
  std::vector<uint32_t> New = mutate(Rng, Old, 30);
  auto Matches = alignWords(Old, New);
  for (size_t K = 1; K < Matches.size(); ++K) {
    EXPECT_LT(Matches[K - 1].first, Matches[K].first);
    EXPECT_LT(Matches[K - 1].second, Matches[K].second);
  }
  for (const auto &[I, J] : Matches)
    EXPECT_EQ(Old[static_cast<size_t>(I)], New[static_cast<size_t>(J)]);
}

TEST(ImageDiffs, CountsPerFunction) {
  BinaryImage Old;
  Old.Functions = {{"main", 0, 3}, {"helper", 3, 2}};
  Old.Code = {10, 11, 12, 20, 21};
  Old.EntryFunc = 0;

  BinaryImage New;
  New.Functions = {{"main", 0, 3}, {"fresh", 3, 2}};
  New.Code = {10, 99, 12, 30, 31};
  New.EntryFunc = 0;

  ImageDiff D = diffImages(Old, New);
  const FunctionDiff *Main = D.find("main");
  ASSERT_NE(Main, nullptr);
  EXPECT_EQ(Main->Matched, 2);
  EXPECT_EQ(Main->diffInst(), 1);

  const FunctionDiff *Fresh = D.find("fresh");
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(Fresh->OldCount, 0);
  EXPECT_EQ(Fresh->diffInst(), 2);

  const FunctionDiff *Helper = D.find("helper");
  ASSERT_NE(Helper, nullptr);
  EXPECT_EQ(Helper->NewCount, 0);
  EXPECT_EQ(Helper->diffInst(), 0); // removals cost nothing on air

  EXPECT_EQ(D.totalDiffInst(), 3);
}

//===----------------------------------------------------------------------===//
// The word aligner (EditScript.h: alignWords, MaxAlignWords)
//===----------------------------------------------------------------------===//

/// Relocates random blocks: the LCS keeps either a moved block or the
/// words it jumped over, an edit pattern point mutations never produce.
std::vector<uint32_t> moveBlocks(RNG &Rng, std::vector<uint32_t> Words,
                                 int Moves) {
  for (int K = 0; K < Moves && Words.size() > 8; ++K) {
    size_t Len = 1 + Rng.below(Words.size() / 4);
    size_t From = Rng.below(Words.size() - Len + 1);
    std::vector<uint32_t> Block(
        Words.begin() + static_cast<long>(From),
        Words.begin() + static_cast<long>(From + Len));
    Words.erase(Words.begin() + static_cast<long>(From),
                Words.begin() + static_cast<long>(From + Len));
    size_t To = Rng.below(Words.size() + 1);
    Words.insert(Words.begin() + static_cast<long>(To), Block.begin(),
                 Block.end());
  }
  return Words;
}

/// LCS length by the textbook forward recurrence over two rolling rows:
/// an oracle written independently of lcsAlign's backward table.
size_t lcsLength(const std::vector<uint32_t> &A,
                 const std::vector<uint32_t> &B) {
  std::vector<size_t> Prev(B.size() + 1, 0), Cur(B.size() + 1, 0);
  for (size_t I = 1; I <= A.size(); ++I) {
    for (size_t J = 1; J <= B.size(); ++J)
      Cur[J] = A[I - 1] == B[J - 1] ? Prev[J - 1] + 1
                                    : std::max(Prev[J], Cur[J - 1]);
    std::swap(Prev, Cur);
  }
  return Prev[B.size()];
}

TEST(ExactAlignment, RefusesOversizedTables) {
  // Above MaxAlignWords on either side the aligner builds no table: the
  // pair gets no matches and its script ships the new words whole, yet
  // still patches exactly. Only the longer side counts, so one extra word
  // flips a pair whose table would be tiny.
  std::vector<uint32_t> Big(MaxAlignWords + 1);
  for (size_t K = 0; K < Big.size(); ++K)
    Big[K] = static_cast<uint32_t>(K);
  std::vector<uint32_t> Head = {0, 1, 2};
  EXPECT_TRUE(alignWords(Big, Head).empty());
  EXPECT_TRUE(alignWords(Head, Big).empty());
  std::vector<uint32_t> AtLimit(Big.begin(), Big.end() - 1);
  EXPECT_EQ(alignWords(AtLimit, Head).size(), 3u);

  // A one-word edit of an oversized function costs exactly the whole
  // replace: ceil(4097 / 63) = 66 primitive bytes plus 4 bytes per word.
  std::vector<uint32_t> Edited = Big;
  Edited[2000] = 99999;
  EditScript S = makeEditScript(Big, Edited);
  ASSERT_EQ(S.Prims.size(), 1u);
  EXPECT_EQ(S.Prims[0].Op, EditOp::Replace);
  EXPECT_EQ(S.encodedBytes(), 66u + 4u * (MaxAlignWords + 1));
  std::vector<uint32_t> Out;
  ASSERT_TRUE(applyEditScript(Big, S, Out));
  EXPECT_EQ(Out, Edited);
}

/// Random insert/delete/mutate/move mixes: the default script must patch
/// Old into New exactly, and its alignment must reach the LCS length the
/// independent oracle computes.
class DiffEngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DiffEngineFuzz, PatchesExactlyAndStaysNearTheOracle) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 29 + 7);
  std::vector<uint32_t> Old = randomWords(Rng, 200 + Rng.below(1200));
  std::vector<uint32_t> New =
      mutate(Rng, Old, static_cast<int>(Rng.below(120)));
  New = moveBlocks(Rng, std::move(New), static_cast<int>(Rng.below(4)));

  EditScript S = makeEditScript(Old, New);
  std::vector<uint32_t> Out;
  ASSERT_TRUE(applyEditScript(Old, S, Out));
  EXPECT_EQ(Out, New);

  EXPECT_EQ(alignWords(Old, New).size(), lcsLength(Old, New));

  // The same pair as a function of an image: Diff_inst read off the
  // package's script equals the alignment's.
  expectDiffMatchesAlignment(imageOf({{"f", Old}}), imageOf({{"f", New}}),
                             "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffEngineFuzz, ::testing::Range(0, 40));

CompileOutput compileOrDie(const std::string &Source,
                           const CompileOptions &Opts = CompileOptions(),
                           const CompilationRecord *Record = nullptr) {
  DiagnosticEngine Diag;
  auto Out = Record ? Compiler::recompile(Source, *Record, Opts, Diag)
                    : Compiler::compile(Source, Opts, Diag);
  EXPECT_TRUE(Out.has_value()) << Diag.str() << "\nsource:\n" << Source;
  return Out ? std::move(*Out) : CompileOutput();
}

/// Continues FNV-1a hash \p H over the serialized update package turning
/// \p Old into \p New and over every per-function `Matched` count of
/// diffImages (as little-endian 32-bit words).
uint64_t updateDigest(const BinaryImage &Old, const BinaryImage &New,
                      uint64_t H = Fnv1aBasis) {
  std::vector<uint8_t> Bytes = makeImageUpdate(Old, New).serialize();
  for (const FunctionDiff &F : diffImages(Old, New).Functions) {
    uint32_t Matched = static_cast<uint32_t>(F.Matched);
    for (int Shift = 0; Shift < 32; Shift += 8)
      Bytes.push_back(static_cast<uint8_t>(Matched >> Shift));
  }
  return fnv1a(Bytes.data(), Bytes.size(), H);
}

/// The differ's output, pinned: an aligner change must leave every update
/// package and every Diff_inst count bit-identical. Inputs are the paper's
/// Fig. 9 update cases (old compile against both the fresh compile and the
/// UCC-RA + UCC-DA recompile of the new source) and generator programs
/// with one mutation (GCC-RA + UCC-DA recompile, perfbench's path). A
/// compiler change that moves these images re-pins from the table the
/// failure message prints; a differ change must not.
TEST(Diff, UpdatePackagesArePinned) {
  static const uint64_t PinnedCases[] = {
      0x4e8ee30c34580b05ULL, 0x4e59460f37748e81ULL, 0x8da6f4e32bc77679ULL,
      0x9daecf917248a221ULL, 0x1edbe610c64aced5ULL, 0x25e6faebd124eb47ULL,
      0x3e24bcba969dba52ULL, 0x5243a33eeccb351dULL, 0x4947ae3715f78293ULL,
      0x7d31005d9be6b938ULL, 0xe7888fbb787140f5ULL, 0xdd904880df8da264ULL,
      0xab64b35bfac33c35ULL,
  };
  static const uint64_t PinnedCorpus[] = {
      0xf39fd63934564430ULL, 0xf82213827372a4d5ULL, 0x8793ad4cae6aa0e6ULL,
      0xd47f23081153e239ULL, 0x5e822338ed4ca959ULL, 0x4f3f4b2b7e4de35fULL,
      0x9009816ed6aa0eceULL, 0x620c961c9e093c38ULL, 0x49b64ecb5e54ca75ULL,
      0xa73f138a65de92bbULL, 0xf9c1cc424aa1b0aeULL, 0xaf9aac646ca2196fULL,
      0xc0481d298b75e671ULL, 0xe5ddd8d2bba80c8bULL, 0xd5ee23b9397bbccaULL,
      0xdb0d7c6bba59e984ULL, 0x7d6025ff3df6326aULL, 0x5fc4e034ee707578ULL,
      0x2d4ca9a39a6aea25ULL, 0x852ddd619be16582ULL, 0x11d731f534a2ea65ULL,
      0x0f1582a285247232ULL, 0x0b353347b354edeeULL, 0x03f9825eba0b7761ULL,
      0x6b478dc29ccabdd6ULL, 0x51f6a39af30e9351ULL, 0x0683e430357890f7ULL,
      0x981e9fd77d546cd3ULL, 0x196bf0c9992a1e01ULL, 0x60276f66635fa615ULL,
      0x77e65845915e7531ULL, 0x536d15b17c8ab660ULL, 0x31ed3010eddf6e66ULL,
      0x5badd12319440c0cULL, 0xc94bd9408a1054cfULL, 0xb6c2cdda1f945cfbULL,
      0xbd9c0d8938691677ULL, 0x99073db395499916ULL, 0x59d7f139a3c1b291ULL,
      0xf03ec852b12123b7ULL, 0x0ba97d0095aee60aULL, 0x36034a70dc35fc57ULL,
      0x35367a8d011e8093ULL, 0x58445863372e4e40ULL, 0x366eb3cb43d52b06ULL,
      0xdec48ac5ad4b0df1ULL, 0x369ff8fd8bbc8335ULL, 0x84e99dd40a7330f6ULL,
      0x81e6bcba30e6dfc5ULL, 0x67475abfafc7c0efULL, 0x944ce657ad9ad7f9ULL,
      0xd95a248e51bc4318ULL, 0xd740c513f40d2ce0ULL, 0xbd8718ef29b9c58bULL,
      0x2def2e60e5209eafULL, 0x222fccc03baad708ULL, 0xa44776c08c13a475ULL,
      0xe8fa40594c8ba3deULL, 0xadb77ccfd3ef16f6ULL, 0x47b11803564dcfe2ULL,
      0xc141a97db1383d23ULL, 0xe479308e150fa5b5ULL, 0xee80ec57624476b4ULL,
      0xfab9b5350fad4164ULL, 0x37a2f4514153a0a6ULL, 0x8a2d99db58eac6adULL,
      0x4dc52ba26dda6bacULL, 0xa406974ce8c98defULL, 0xcd9b406e60f80e6dULL,
      0xabac20f9938f471bULL, 0xeebf0de2eea33a88ULL, 0xc5bf0b37e87e8ac2ULL,
      0xe0215b6f9fe8885fULL, 0x84da6783003f3896ULL, 0x47b7786d437ad4ceULL,
      0x7ce7bbf27220c301ULL, 0x162aca46f8f29cc3ULL, 0xb88367409f1efaeaULL,
      0x21edce51498f7964ULL, 0xdaf92a7f9d2fe2d6ULL, 0x47cc2774d5386e01ULL,
      0x59ccd9428c42af39ULL, 0x89b81b19b0cbd11cULL, 0xd19863d5e3f5b21cULL,
      0x872175415a23c6e1ULL, 0x6b2eb26668508f2eULL, 0xb8e6fca38625330dULL,
      0x7fb0c16a9d3a846dULL, 0x131c45b7b9fd7f52ULL, 0x7c951edd555dd6e8ULL,
      0x238b9a904dd30504ULL, 0xa630f16dde30a572ULL, 0xd57bad2e580816ccULL,
      0x18f22fa95bd84430ULL, 0xdf59983286df911cULL, 0xae758a0f61c495d0ULL,
      0xf1e20a38a255a902ULL, 0x30d3edbc6beef879ULL, 0x92449148a6d2dc1dULL,
      0x2e5bb618f5c497e6ULL, 0x164346e8188f7965ULL, 0x1754131351f3b9aaULL,
      0xfeace098456ea863ULL, 0x7013bd65b7d80dcbULL, 0x64edf5900a49a8b4ULL,
      0x1ade93549f0d717fULL, 0x088354c0599ff345ULL, 0x29c23af2c467a1b2ULL,
      0xa39a64b39bafd64aULL, 0xe57020ca6a972604ULL, 0x80fff8dfc5ff3437ULL,
      0x78ef1809ea48bb3aULL, 0xa6b16bd612df2df0ULL, 0x59361d0f24d667cfULL,
      0x2988b69ecf25d082ULL, 0x340df635d72711a9ULL, 0x77138fed3f140b54ULL,
      0x4f235f1bf24b03fcULL, 0xa23d962f88e78ea9ULL, 0x6cc8711cce715a94ULL,
      0xeb5fec821fa04977ULL, 0xebcb60ed6e4b0603ULL, 0x00f080563575a57dULL,
      0x8d40d1338c1b25b7ULL, 0x2597e848fd6dfa4dULL, 0x40dd4bdbcb5d58f9ULL,
      0x9107e6e9f297dbacULL, 0x205d4ac9e0130cadULL,
  };
  constexpr int CorpusSeeds = 128;

  std::string Table;
  bool Mismatch = false;
  auto Check = [&](uint64_t D, const uint64_t *Pinned, size_t NumPinned,
                   size_t K, const std::string &What) {
    Table += format("%s0x%016" PRIx64 "ULL,%s", K % 3 ? "" : "      ", D,
                    K % 3 == 2 ? "\n" : " ");
    bool Same = K < NumPinned && D == Pinned[K];
    EXPECT_TRUE(Same) << What;
    Mismatch |= !Same;
  };

  CompileOptions Ucc;
  Ucc.RA = RegAllocKind::UpdateConscious;
  Ucc.DA = DataAllocKind::UpdateConscious;
  const std::vector<UpdateCase> &Cases = updateCases();
  for (size_t K = 0; K < Cases.size(); ++K) {
    CompileOutput Old = compileOrDie(Cases[K].OldSource);
    CompileOutput Fresh = compileOrDie(Cases[K].NewSource);
    CompileOutput Updated = compileOrDie(Cases[K].NewSource, Ucc, &Old.Record);
    uint64_t D = updateDigest(Old.Image, Fresh.Image);
    D = updateDigest(Old.Image, Updated.Image, D);
    Check(D, PinnedCases, std::size(PinnedCases), K,
          "update case " + std::to_string(Cases[K].Id));
  }
  EXPECT_EQ(Cases.size(), std::size(PinnedCases));
  Table += "\n";

  CompileOptions Da;
  Da.DA = DataAllocKind::UpdateConscious;
  for (int Seed = 0; Seed < CorpusSeeds; ++Seed) {
    ProgramGen Gen(static_cast<uint64_t>(Seed));
    CompileOutput Old = compileOrDie(Gen.render());
    Gen.mutate();
    CompileOutput New = compileOrDie(Gen.render(), Da, &Old.Record);
    Check(updateDigest(Old.Image, New.Image), PinnedCorpus,
          std::size(PinnedCorpus), static_cast<size_t>(Seed),
          "generator seed " + std::to_string(Seed));
  }
  EXPECT_EQ(static_cast<size_t>(CorpusSeeds), std::size(PinnedCorpus));
  EXPECT_FALSE(Mismatch) << "current digests:\n" << Table;
}

TEST(ImageDiffs, ScriptCountsEqualTheAlignmentOnHandBuiltImages) {
  // A kept function with one edit, a removed one, a new one, and a kept
  // one over MaxAlignWords (no matches: it ships whole), plus
  // a data segment that changes one word and grows by one.
  std::vector<uint32_t> Big(MaxAlignWords + 1);
  for (size_t K = 0; K < Big.size(); ++K)
    Big[K] = static_cast<uint32_t>(K);
  std::vector<uint32_t> BigEdited = Big;
  BigEdited[100] = 99999;
  BigEdited.push_back(7);
  BinaryImage Old = imageOf(
      {{"main", {10, 11, 12, 13}}, {"gone", {20, 21, 22}}, {"big", Big}},
      {1, 2, 3});
  BinaryImage New = imageOf({{"main", {10, 99, 12, 13, 14}},
                             {"big", BigEdited},
                             {"fresh", {30, 31}}},
                            {1, 5, 3, 4});
  expectDiffMatchesAlignment(Old, New, "hand-built");

  ImageDiff D = diffImages(Old, New);
  ASSERT_EQ(D.Functions.size(), 4u);
  EXPECT_EQ(D.find("main")->Matched, 3);
  EXPECT_EQ(D.find("main")->diffInst(), 2);
  EXPECT_EQ(D.find("big")->Matched, 0);
  EXPECT_EQ(D.find("big")->OldCount, static_cast<int>(MaxAlignWords + 1));
  EXPECT_EQ(D.find("big")->diffInst(), static_cast<int>(MaxAlignWords + 2));
  EXPECT_EQ(D.find("fresh")->OldCount, 0);
  EXPECT_EQ(D.find("fresh")->diffInst(), 2);
  EXPECT_EQ(D.find("gone")->OldCount, 3);
  EXPECT_EQ(D.find("gone")->NewCount, 0);
  EXPECT_EQ(D.DataWordsChanged, 2);
  EXPECT_EQ(D.totalDiffInst(), 2 + static_cast<int>(MaxAlignWords + 2) + 2);
}

TEST(ImageDiffs, ScriptCountsEqualTheAlignmentOnThePinnedCorpora) {
  // The inputs of Diff.UpdatePackagesArePinned: the Fig. 9 cases under
  // both allocators, and generator programs with one mutation.
  CompileOptions Ucc;
  Ucc.RA = RegAllocKind::UpdateConscious;
  Ucc.DA = DataAllocKind::UpdateConscious;
  for (const UpdateCase &Case : updateCases()) {
    CompileOutput Old = compileOrDie(Case.OldSource);
    CompileOutput Fresh = compileOrDie(Case.NewSource);
    CompileOutput Updated = compileOrDie(Case.NewSource, Ucc, &Old.Record);
    std::string What = "update case " + std::to_string(Case.Id);
    expectDiffMatchesAlignment(Old.Image, Fresh.Image, What + " (GCC-RA)");
    expectDiffMatchesAlignment(Old.Image, Updated.Image, What + " (UCC-RA)");
    UpdatePackage Pkg = makeUpdate(Old, Updated);
    EXPECT_EQ(Pkg.Diff.totalDiffInst(),
              alignedDiff(Old.Image, Updated.Image).totalDiffInst())
        << What;
  }

  CompileOptions Da;
  Da.DA = DataAllocKind::UpdateConscious;
  for (int Seed = 0; Seed < 128; ++Seed) {
    ProgramGen Gen(static_cast<uint64_t>(Seed));
    CompileOutput Old = compileOrDie(Gen.render());
    Gen.mutate();
    CompileOutput New = compileOrDie(Gen.render(), Da, &Old.Record);
    expectDiffMatchesAlignment(Old.Image, New.Image,
                               "generator seed " + std::to_string(Seed));
  }
}

TEST(ImageDiffs, UpdatePackageRoundTrip) {
  BinaryImage Old;
  Old.Functions = {{"main", 0, 4}};
  Old.Code = {1, 2, 3, 4};
  Old.DataInit = {7, 8};
  Old.EntryFunc = 0;

  BinaryImage New;
  New.Functions = {{"main", 0, 5}, {"extra", 5, 2}};
  New.Code = {1, 2, 9, 3, 4, 50, 51};
  New.DataInit = {7, 8, 9};
  New.EntryFunc = 0;

  ImageUpdate U = makeImageUpdate(Old, New);
  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(Old, U, Patched));
  EXPECT_EQ(Patched.Code, New.Code);
  EXPECT_EQ(Patched.DataInit, New.DataInit);
  ASSERT_EQ(Patched.Functions.size(), 2u);
  EXPECT_EQ(Patched.Functions[1].Name, "extra");
  EXPECT_EQ(Patched.Functions[1].Start, 5u);
}

/// A package whose data script writes \p Word over the second of two old
/// data words and keeps the one function, `main`, as it is.
ImageUpdate dataWordPackage(uint32_t Word) {
  ImageUpdate U;
  ImageUpdate::FunctionUpdate Main;
  Main.Name = "main";
  Main.Script.Prims = {{EditOp::Copy, 2, {}}};
  U.Functions.push_back(std::move(Main));
  U.DataScript.Prims = {{EditOp::Copy, 1, {}}, {EditOp::Replace, 1, {Word}}};
  U.EntryFunc = 0;
  return U;
}

TEST(ImageDiffs, PatcherRefusesDataWordsWiderThan16Bits) {
  BinaryImage Old;
  Old.Functions = {{"main", 0, 2}};
  Old.Code = {1, 2};
  Old.DataInit = {7, 8};
  Old.EntryFunc = 0;
  BinaryImage Patched;
  ASSERT_TRUE(applyUpdate(Old, dataWordPackage(0xFFFF), Patched));
  EXPECT_EQ(Patched.DataInit, (std::vector<int16_t>{7, -1}));
  EXPECT_FALSE(applyUpdate(Old, dataWordPackage(0x10008), Patched))
      << "0x10008 would flash as 8";
  EXPECT_FALSE(applyUpdate(Old, dataWordPackage(0xFFFFFFFF), Patched));

  // The wire format carries 32-bit words, so a wide data word decodes;
  // the patcher is what must refuse it.
  ImageUpdate Back;
  ASSERT_TRUE(ImageUpdate::deserialize(dataWordPackage(0x10008).serialize(),
                                       Back));
  ASSERT_EQ(Back.DataScript.Prims.size(), 2u);
  EXPECT_EQ(Back.DataScript.Prims[1].Words, (std::vector<uint32_t>{0x10008}));
  EXPECT_FALSE(applyUpdate(Old, Back, Patched));

  // The out-of-order assembler materializes through the same patcher.
  UpdateAssembler Node(Old);
  for (const UpdateGroup &G : splitIntoGroups(Back))
    ASSERT_TRUE(Node.accept(G));
  EXPECT_FALSE(Node.materialize(Patched));
}

} // namespace
