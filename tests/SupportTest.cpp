//===- tests/SupportTest.cpp - support-library unit tests -----------------===//

#include "support/BitVector.h"
#include "support/ByteStream.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

using namespace ucc;

namespace {

TEST(Format, BasicFormatting) {
  EXPECT_EQ(format("%d + %d = %d", 2, 3, 5), "2 + 3 = 5");
  EXPECT_EQ(format("%s/%c", "abc", 'x'), "abc/x");
  EXPECT_EQ(format("%.3f", 1.5), "1.500");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Format, LongStringsDoNotTruncate) {
  std::string Long(5000, 'y');
  std::string Out = format("<%s>", Long.c_str());
  EXPECT_EQ(Out.size(), 5002u);
}

TEST(Diagnostics, CollectsAndRenders) {
  DiagnosticEngine Diag;
  EXPECT_FALSE(Diag.hasErrors());
  Diag.warning({2, 5}, "looks odd");
  EXPECT_FALSE(Diag.hasErrors());
  Diag.error({3, 1}, "broken");
  EXPECT_TRUE(Diag.hasErrors());
  EXPECT_EQ(Diag.errorCount(), 1u);
  std::string Text = Diag.str();
  EXPECT_NE(Text.find("2:5: warning: looks odd"), std::string::npos);
  EXPECT_NE(Text.find("3:1: error: broken"), std::string::npos);
  Diag.clear();
  EXPECT_FALSE(Diag.hasErrors());
}

TEST(BitVectorTest, SetResetAndCount) {
  BitVector BV(130);
  EXPECT_FALSE(BV.any());
  BV.set(0);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 3u);
  BV.reset(64);
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVectorTest, SetOperations) {
  BitVector A(100), B(100);
  A.set(3);
  A.set(70);
  B.set(70);
  B.set(80);

  BitVector U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_EQ(U.count(), 3u);
  EXPECT_FALSE(U.unionWith(B)); // already included

  BitVector I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(70));

  BitVector S = A;
  S.subtract(B);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.test(3));
}

TEST(BitVectorTest, ForEachVisitsAscending) {
  BitVector BV(200);
  std::vector<size_t> Expect = {1, 63, 64, 65, 128, 199};
  for (size_t K : Expect)
    BV.set(K);
  std::vector<size_t> Seen;
  BV.forEach([&](size_t K) { Seen.push_back(K); });
  EXPECT_EQ(Seen, Expect);
}

TEST(ByteStream, ScalarRoundTrip) {
  ByteWriter W;
  W.writeU8(0xab);
  W.writeU16(0x1234);
  W.writeU32(0xdeadbeef);
  W.writeU64(0x0123456789abcdefULL);
  W.writeI32(-42);
  W.writeString("hello");

  ByteReader R(W.bytes());
  EXPECT_EQ(R.readU8(), 0xab);
  EXPECT_EQ(R.readU16(), 0x1234);
  EXPECT_EQ(R.readU32(), 0xdeadbeefu);
  EXPECT_EQ(R.readU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(R.readI32(), -42);
  EXPECT_EQ(R.readString(), "hello");
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.hadError());
}

TEST(ByteStream, OverrunLatchesError) {
  ByteWriter W;
  W.writeU16(7);
  ByteReader R(W.bytes());
  (void)R.readU32(); // only two bytes available
  EXPECT_TRUE(R.hadError());
  EXPECT_EQ(R.readU8(), 0u); // stays in error state
  EXPECT_EQ(R.readString(), "");
}

TEST(ByteStream, TruncatedStringDetected) {
  ByteWriter W;
  W.writeU32(100); // claims a 100-byte string
  W.writeU8('x');
  ByteReader R(W.bytes());
  EXPECT_EQ(R.readString(), "");
  EXPECT_TRUE(R.hadError());
}

TEST(RNGTest, DeterministicPerSeed) {
  RNG A(12345), B(12345), C(54321);
  bool Differs = false;
  for (int K = 0; K < 100; ++K) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    Differs |= VA != C.next();
  }
  EXPECT_TRUE(Differs);
}

TEST(RNGTest, BoundsRespected) {
  RNG Rng(7);
  for (int K = 0; K < 1000; ++K) {
    EXPECT_LT(Rng.below(17), 17u);
    int64_t V = Rng.range(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = Rng.unitReal();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RNGTest, CoversTheRange) {
  RNG Rng(11);
  std::set<uint64_t> Seen;
  for (int K = 0; K < 400; ++K)
    Seen.insert(Rng.below(8));
  EXPECT_EQ(Seen.size(), 8u);
}

/// FixedDivisor::remainder is exact: at the ends of the 64-bit range,
/// around multiples of the divisor, and over a seeded sweep; and
/// below(FixedDivisor) draws what below() draws.
TEST(RNGTest, FixedDivisorRemainderIsExact) {
  const uint64_t Max = std::numeric_limits<uint64_t>::max();
  const uint64_t Divisors[] = {1,
                               2,
                               3,
                               7,
                               8,
                               500,
                               1008,
                               (uint64_t(1) << 32) - 1,
                               (uint64_t(1) << 32) + 15,
                               (uint64_t(1) << 63) + 1,
                               Max};
  for (uint64_t D : Divisors) {
    FixedDivisor F(D);
    EXPECT_EQ(F.divisor(), D);
    uint64_t Top = Max - Max % D; // the largest multiple of D
    for (uint64_t X : {uint64_t(0), Max, D - 1, D, D + 1, Top - 1, Top})
      EXPECT_EQ(F.remainder(X), X % D) << "D=" << D << " X=" << X;
    RNG Sweep(D);
    int Wrong = 0;
    for (int K = 0; K < 20000; ++K) {
      uint64_t X = Sweep.next();
      Wrong += F.remainder(X) != X % D;
      Wrong += F.remainder(X >> 32) != (X >> 32) % D; // small dividends
    }
    EXPECT_EQ(Wrong, 0) << "D=" << D;
    RNG A(D ^ 0x5eed), B(D ^ 0x5eed);
    for (int K = 0; K < 100; ++K)
      ASSERT_EQ(A.below(F), B.below(D)) << "D=" << D;
  }
}

TEST(ZipfSamplerTest, RankFrequenciesDecreaseMonotonically) {
  // With 50k draws the expected counts at s=1.1 are far enough apart that
  // observed counts over the head ranks order strictly.
  const size_t N = 8;
  ZipfSampler Zipf(N, 1.1);
  RNG Rng(42);
  std::vector<int> Count(N, 0);
  for (int K = 0; K < 50000; ++K) {
    size_t Rank = Zipf.sample(Rng);
    ASSERT_GE(Rank, 1u);
    ASSERT_LE(Rank, N);
    ++Count[Rank - 1];
  }
  for (size_t R = 1; R < N; ++R)
    EXPECT_GE(Count[R - 1], Count[R])
        << "rank " << R << " must be at least as hot as rank " << R + 1;
  EXPECT_GT(Count[0], Count[3]) << "the head must clearly dominate";
}

TEST(ZipfSamplerTest, SkewMatchesTheAnalyticHead) {
  // P(rank 1) at s=1.1 over 8 ranks is ~0.40; a 50k-draw estimate lands
  // within a comfortable band, and higher skew concentrates more mass.
  ZipfSampler Mild(8, 1.1), Sharp(8, 2.0);
  RNG RngA(7), RngB(7);
  int HeadMild = 0, HeadSharp = 0;
  const int Draws = 50000;
  for (int K = 0; K < Draws; ++K) {
    HeadMild += Mild.sample(RngA) == 1;
    HeadSharp += Sharp.sample(RngB) == 1;
  }
  double PMild = static_cast<double>(HeadMild) / Draws;
  double PSharp = static_cast<double>(HeadSharp) / Draws;
  EXPECT_NEAR(PMild, 0.40, 0.03);
  EXPECT_GT(PSharp, PMild + 0.1)
      << "a sharper exponent must concentrate the head";
}

TEST(ZipfSamplerTest, DeterministicAcrossRunsForAFixedSeed) {
  ZipfSampler Zipf(16, 1.1);
  RNG A(123), B(123);
  std::vector<size_t> First, Second;
  for (int K = 0; K < 256; ++K)
    First.push_back(Zipf.sample(A));
  for (int K = 0; K < 256; ++K)
    Second.push_back(Zipf.sample(B));
  EXPECT_EQ(First, Second)
      << "request streams must be reproducible from their seed alone";
  // Not degenerate: several distinct ranks appear in the stream.
  EXPECT_GT(std::set<size_t>(First.begin(), First.end()).size(), 3u);
}

} // namespace
