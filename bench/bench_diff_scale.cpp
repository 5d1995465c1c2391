//===- bench/bench_diff_scale.cpp - diff engine at production image scale -===//
//
// Scales the alignment engine far past workload size: synthetic images of
// 64k up to 1M instruction words under three edit patterns (sparse point
// edits, clustered rewrite regions, shuffled block moves), plus a head-to-
// head against the exact-LCS oracle. The oracle's quadratic table makes it
// infeasible at 100k words (a ~40 GB table), so the comparison measures
// both backends at an oracle-feasible size and extrapolates the oracle
// quadratically to 100k — the engine is measured there for real. The
// acceptance bar is the ISSUE-5 target: >=10x over the (extrapolated)
// oracle at 100k words.
//
// Deterministic metrics (script bytes, matches, anchor/Myers/fallback
// counters) gate against baseline.json; `_seconds` metrics are wall-clock
// and excluded.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "diff/EditScript.h"
#include "support/RNG.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ucc;
using namespace uccbench;

namespace {

/// Synthetic firmware image: mostly high-entropy words (instruction
/// encodings rarely repeat exactly) with a repetitive minority (common
/// idioms — push/pop/nop sequences).
std::vector<uint32_t> makeImage(RNG &Rng, size_t N) {
  std::vector<uint32_t> Words(N);
  for (uint32_t &W : Words)
    W = Rng.chance(3, 10)
            ? static_cast<uint32_t>(Rng.below(32))        // common idioms
            : static_cast<uint32_t>(Rng.below(1u << 30)); // distinct code
  return Words;
}

/// Sparse pattern: isolated point edits scattered over the image (the
/// shape statement-level maintenance produces).
std::vector<uint32_t> editSparse(RNG &Rng, std::vector<uint32_t> Words) {
  size_t Edits = Words.size() / 100;
  for (size_t K = 0; K < Edits; ++K)
    Words[Rng.below(Words.size())] =
        static_cast<uint32_t>(Rng.below(1u << 30));
  return Words;
}

/// Clustered pattern: a handful of dense rewrite regions (new features,
/// function-level changes).
std::vector<uint32_t> editClustered(RNG &Rng, std::vector<uint32_t> Words) {
  for (int C = 0; C < 8; ++C) {
    size_t Len = Words.size() / 64;
    size_t At = Rng.below(Words.size() - Len);
    for (size_t K = 0; K < Len; ++K)
      Words[At + K] = static_cast<uint32_t>(Rng.below(1u << 30));
    // Each cluster also grows a little (insertions shift everything after).
    std::vector<uint32_t> Fresh(Len / 4);
    for (uint32_t &W : Fresh)
      W = static_cast<uint32_t>(Rng.below(1u << 30));
    Words.insert(Words.begin() + static_cast<long>(At + Len), Fresh.begin(),
                 Fresh.end());
  }
  return Words;
}

/// Shuffled pattern: whole blocks relocated (reordered functions — what
/// anchors and the block-copy fallback exist for).
std::vector<uint32_t> editShuffled(RNG &Rng, std::vector<uint32_t> Words) {
  for (int M = 0; M < 16; ++M) {
    size_t Len = 1 + Rng.below(Words.size() / 16);
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

struct Pattern {
  const char *Name;
  std::vector<uint32_t> (*Apply)(RNG &, std::vector<uint32_t>);
};

const Pattern Patterns[] = {
    {"sparse", editSparse},
    {"clustered", editClustered},
    {"shuffled", editShuffled},
};

} // namespace

int main(int Argc, char **Argv) {
  BenchHarness Bench(Argc, Argv, "diff_scale");

  std::vector<size_t> Sizes = Bench.quick()
                                  ? std::vector<size_t>{size_t(64) << 10}
                                  : std::vector<size_t>{size_t(64) << 10,
                                                        size_t(256) << 10,
                                                        size_t(1) << 20};

  std::printf("Diff engine at scale: synthetic images, %zu size(s), "
              "3 edit patterns\n\n", Sizes.size());
  std::printf("%-10s %9s  %9s  %9s  %8s  %8s  %8s  %9s\n", "pattern",
              "words", "matches", "script B", "anchors", "myers_d",
              "fallback", "seconds");

  for (size_t N : Sizes) {
    for (const Pattern &P : Patterns) {
      RNG Rng(0xD1FF5CA1E ^ N);
      std::vector<uint32_t> Old = makeImage(Rng, N);
      std::vector<uint32_t> New = P.Apply(Rng, Old);

      DiffStats Stats;
      auto Start = std::chrono::steady_clock::now();
      auto Matches = alignWords(Old, New, DiffOptions{}, &Stats);
      double EngineSec = secondsSince(Start);

      EditScript Script = scriptFromMatches(Old, New, Matches);
      std::vector<uint32_t> Patched;
      if (!applyEditScript(Old, Script, Patched) || Patched != New) {
        std::fprintf(stderr, "bench_diff_scale: %s/%zu script does not "
                             "patch\n", P.Name, N);
        return 1;
      }

      std::printf("%-10s %9zu  %9zu  %9zu  %8lld  %8lld  %8lld  %9.4f\n",
                  P.Name, N, Matches.size(), Script.encodedBytes(),
                  static_cast<long long>(Stats.Anchors),
                  static_cast<long long>(Stats.MyersD),
                  static_cast<long long>(Stats.FallbackBlocks), EngineSec);

      std::string Tag =
          std::string(P.Name) + "_" + std::to_string(N >> 10) + "k";
      Bench.metric(Tag + "_matches", static_cast<double>(Matches.size()));
      Bench.metric(Tag + "_script_bytes",
                   static_cast<double>(Script.encodedBytes()));
      Bench.metric(Tag + "_anchors", static_cast<double>(Stats.Anchors));
      Bench.metric(Tag + "_myers_d", static_cast<double>(Stats.MyersD));
      Bench.metric(Tag + "_fallback_blocks",
                   static_cast<double>(Stats.FallbackBlocks));
      Bench.metric(Tag + "_engine_seconds", EngineSec);
    }
  }

  // Oracle head-to-head. The full table at 100k words would need ~40 GB,
  // so the oracle runs at a feasible size and extrapolates by its exact
  // O(M*N) cell count; the engine runs at 100k for real.
  const size_t OracleN = 8192;
  const size_t TargetN = 100'000;
  RNG Rng(0xBEEF);
  std::vector<uint32_t> SmallOld = makeImage(Rng, OracleN);
  std::vector<uint32_t> SmallNew = editSparse(Rng, SmallOld);

  auto Start = std::chrono::steady_clock::now();
  auto Exact = alignWordsExact(SmallOld, SmallNew);
  double OracleSec = secondsSince(Start);
  if (!Exact) {
    std::fprintf(stderr, "bench_diff_scale: oracle refused %zu words\n",
                 OracleN);
    return 1;
  }

  DiffOptions Engine;
  Engine.ForceEngine = true;
  DiffStats SmallStats;
  Start = std::chrono::steady_clock::now();
  auto SmallMatches = alignWords(SmallOld, SmallNew, Engine, &SmallStats);
  double EngineSmallSec = secondsSince(Start);

  std::vector<uint32_t> BigOld = makeImage(Rng, TargetN);
  std::vector<uint32_t> BigNew = editSparse(Rng, BigOld);
  DiffStats BigStats;
  Start = std::chrono::steady_clock::now();
  auto BigMatches = alignWords(BigOld, BigNew, DiffOptions{}, &BigStats);
  double EngineBigSec = secondsSince(Start);

  double Scale = (static_cast<double>(TargetN) / OracleN) *
                 (static_cast<double>(TargetN) / OracleN);
  double OracleBigSec = OracleSec * Scale;
  double Speedup = EngineBigSec > 0 ? OracleBigSec / EngineBigSec : 0.0;

  std::printf("\noracle head-to-head (sparse pattern):\n");
  std::printf("  %zu words: oracle %.4f s (%zu matches), engine %.4f s "
              "(%zu matches)\n", OracleN, OracleSec, Exact->size(),
              EngineSmallSec, SmallMatches.size());
  std::printf("  %zu words: engine %.4f s (%zu matches); oracle "
              "extrapolated %.1f s -> %.0fx speedup\n", TargetN,
              EngineBigSec, BigMatches.size(), OracleBigSec, Speedup);
  std::printf("  engine resident memory is O(min(M,N)): match vector + "
              "Myers V arrays; no quadratic table\n");

  // Match-quality parity at the oracle-feasible size (deterministic).
  Bench.metric("oracle_8k_matches", static_cast<double>(Exact->size()));
  Bench.metric("engine_8k_matches",
               static_cast<double>(SmallMatches.size()));
  Bench.metric("engine_100k_matches",
               static_cast<double>(BigMatches.size()));
  Bench.metric("oracle_8k_seconds", OracleSec);
  Bench.metric("engine_8k_seconds", EngineSmallSec);
  Bench.metric("engine_100k_seconds", EngineBigSec);
  Bench.metric("oracle_extrapolated_100k_seconds", OracleBigSec);
  Bench.metric("oracle_speedup_100k_x_seconds", Speedup);
  return 0;
}
