//===- support/RNG.h - deterministic pseudo-random numbers ---------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small deterministic xorshift128+ generator used by property tests,
/// synthetic-chunk generators and the network simulator. Determinism
/// matters: every experiment must be exactly reproducible from its seed.
/// FixedDivisor gives the exact remainder by a divisor fixed ahead of
/// time without a hardware divide, for loops that draw below the same
/// bound many times.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_RNG_H
#define UCC_SUPPORT_RNG_H

#include "support/Hash.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ucc {

/// A divisor fixed ahead of time, whose remainder needs four multiplies
/// instead of a hardware divide (Lemire, Kaser & Kurz, "Faster Remainder
/// by Direct Computation", 2019). With a 128-bit fraction the result is
/// exact for every 64-bit dividend and every non-zero 64-bit divisor.
class FixedDivisor {
  __extension__ typedef unsigned __int128 U128;

public:
  explicit FixedDivisor(uint64_t D)
      : M(D != 0 ? ~U128(0) / D + 1 : 0), D(D) {
    assert(D != 0 && "FixedDivisor requires a non-zero divisor");
  }

  uint64_t divisor() const { return D; }

  /// Returns exactly X % divisor(). M wraps to 0 for a divisor of 1, and
  /// the product is then 0 as it should be.
  uint64_t remainder(uint64_t X) const {
    U128 Low = M * X; // the fractional part of X / D, in 128 bits
    U128 Bottom = (static_cast<U128>(static_cast<uint64_t>(Low)) * D) >> 64;
    U128 Top = (Low >> 64) * D;
    return static_cast<uint64_t>((Bottom + Top) >> 64);
  }

private:
  U128 M; ///< ceil(2^128 / D), modulo 2^128
  uint64_t D;
};

/// Deterministic xorshift128+ PRNG.
class RNG {
public:
  explicit RNG(uint64_t Seed = 0x9e3779b97f4a7c15ULL) {
    // Split the seed through two rounds of splitmix64 so that small seeds
    // still produce well-mixed initial state.
    State0 = splitmix64(Seed);
    State1 = splitmix64(State0);
  }

  /// Returns the next raw 64-bit value.
  uint64_t next() {
    uint64_t S1 = State0;
    const uint64_t S0 = State1;
    State0 = S0;
    S1 ^= S1 << 23;
    State1 = S1 ^ S0 ^ (S1 >> 18) ^ (S0 >> 5);
    return State1 + S0;
  }

  /// Returns a uniform value in [0, Bound). \p Bound must be non-zero.
  uint64_t below(uint64_t Bound) {
    assert(Bound != 0 && "below() requires a non-zero bound");
    return next() % Bound;
  }

  /// Returns next() % D.divisor(), the same value below() returns.
  uint64_t below(const FixedDivisor &D) { return D.remainder(next()); }

  /// Returns a uniform value in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "range() requires Lo <= Hi");
    return Lo + static_cast<int64_t>(
                    below(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// Returns true with probability Num/Den.
  bool chance(uint64_t Num, uint64_t Den) { return below(Den) < Num; }

  /// Returns a uniform double in [0, 1).
  double unitReal() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

private:
  uint64_t State0;
  uint64_t State1;
};

/// Draws ranks 1..N with P(rank) proportional to rank^-S (a Zipf law,
/// precomputed as an inverse-CDF table). Fleet-version distributions are
/// the motivating user: most nodes run the version just behind the target,
/// a long tail lags several releases back, and serve-layer benches need
/// that skew reproducibly from a seed.
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S) : Cdf(N) {
    assert(N > 0 && "ZipfSampler requires at least one rank");
    double Total = 0.0;
    for (size_t Rank = 1; Rank <= N; ++Rank) {
      Total += 1.0 / std::pow(static_cast<double>(Rank), S);
      Cdf[Rank - 1] = Total;
    }
    for (double &C : Cdf)
      C /= Total;
  }

  /// Returns a rank in [1, N]; rank 1 is the most probable.
  size_t sample(RNG &Rng) const {
    double U = Rng.unitReal();
    size_t Lo = 0, Hi = Cdf.size() - 1;
    while (Lo < Hi) {
      size_t Mid = (Lo + Hi) / 2;
      if (Cdf[Mid] < U)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo + 1;
  }

private:
  std::vector<double> Cdf;
};

} // namespace ucc

#endif // UCC_SUPPORT_RNG_H
