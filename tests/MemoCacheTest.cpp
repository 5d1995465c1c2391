//===- tests/MemoCacheTest.cpp - the one memo cache -----------------------===//
//
// support/MemoCache, the mechanism behind the window, compile and plan
// caches, tested once: exact hit/miss accounting, LRU order at capacity,
// capacity-0 pass-through, unbounded capacity, hash collisions confirmed
// by the full key, clear() keeping in-flight entries and counters, the
// exactly-once latch under contention, and a throwing compute that
// leaves no entry behind. The concurrent tests run under ASan and TSan in
// CI; the clear()-versus-waiter race is repeated so a waiter that loses
// its entry shows up as a use-after-free or a data race there.
//
//===----------------------------------------------------------------------===//

#include "support/MemoCache.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace ucc;

namespace {

using StringMemo = MemoCache<int, std::string>;

/// Looks \p Key up with a bucket hash equal to the key, computing
/// \p Value on a miss and counting computes in \p Computes.
std::string get(StringMemo &C, int Key, const std::string &Value,
                int *Computes = nullptr, bool *WasHit = nullptr) {
  return C.getOrCompute(
      Key, static_cast<uint64_t>(Key),
      [&] {
        if (Computes)
          ++*Computes;
        return Value;
      },
      WasHit);
}

TEST(MemoCache, HitMissAccountingIsExact) {
  StringMemo C(4);
  int Computes = 0;
  bool Hit = true;
  EXPECT_EQ(get(C, 1, "a", &Computes, &Hit), "a");
  EXPECT_FALSE(Hit);
  EXPECT_EQ(get(C, 1, "WRONG", &Computes, &Hit), "a")
      << "a hit returns the cached value, it does not recompute";
  EXPECT_TRUE(Hit);
  EXPECT_EQ(get(C, 2, "b", &Computes, &Hit), "b");
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Computes, 2);

  MemoCounts S = C.counts();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.InflightWaits, 0u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(MemoCache, TelemetryMirrorsTheCounters) {
  MemoCounterNames Names;
  Names.Hits = "t.hits";
  Names.Misses = "t.misses";
  Names.Evictions = "t.evictions";
  StringMemo C(1, Names);
  Telemetry T;
  TelemetryScope Scope(T);
  get(C, 1, "a");
  get(C, 1, "x");
  get(C, 2, "b");
  EXPECT_EQ(T.counter("t.hits"), 1);
  EXPECT_EQ(T.counter("t.misses"), 2);
  EXPECT_EQ(T.counter("t.evictions"), 1);
}

TEST(MemoCache, LruOrderAtCapacity) {
  StringMemo C(2);
  get(C, 1, "a");
  get(C, 2, "b");
  get(C, 1, "x"); // 1 is now the most recently used
  get(C, 3, "c"); // evicts 2, the least recently used

  bool Hit = false;
  EXPECT_EQ(get(C, 1, "y", nullptr, &Hit), "a");
  EXPECT_TRUE(Hit) << "1 was most recently used at the eviction";
  get(C, 2, "b2", nullptr, &Hit);
  EXPECT_FALSE(Hit) << "2 was the LRU entry, it must have been evicted";

  MemoCounts S = C.counts();
  EXPECT_EQ(S.Evictions, 2u) << "3 evicted 2, then 2's return evicted 3";
  EXPECT_EQ(S.Entries, 2u);
}

TEST(MemoCache, CapacityZeroIsPassThrough) {
  StringMemo C(0);
  int Computes = 0;
  for (int K = 0; K < 3; ++K) {
    bool Hit = true;
    EXPECT_EQ(get(C, 9, "a", &Computes, &Hit), "a");
    EXPECT_FALSE(Hit);
  }
  EXPECT_EQ(Computes, 3);
  MemoCounts S = C.counts();
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Entries, 0u);
}

TEST(MemoCache, UnboundedNeverEvicts) {
  StringMemo C; // Unbounded by default
  for (int K = 0; K < 1000; ++K)
    get(C, K, std::to_string(K));
  for (int K = 0; K < 1000; ++K)
    EXPECT_EQ(get(C, K, "WRONG"), std::to_string(K));
  MemoCounts S = C.counts();
  EXPECT_EQ(S.Misses, 1000u);
  EXPECT_EQ(S.Hits, 1000u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.Entries, 1000u);
}

TEST(MemoCache, CollidingHashesAreToldApartByTheFullKey) {
  StringMemo C(8);
  auto Same = [&](int Key, const std::string &V) {
    return C.getOrCompute(Key, /*Hash=*/42, [&] { return V; });
  };
  EXPECT_EQ(Same(1, "a"), "a");
  EXPECT_EQ(Same(2, "b"), "b");
  EXPECT_EQ(Same(1, "WRONG"), "a");
  EXPECT_EQ(Same(2, "WRONG"), "b");
  MemoCounts S = C.counts();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(MemoCache, ClearKeepsInflightEntriesAndCounters) {
  StringMemo C(8);
  get(C, 1, "a");
  get(C, 2, "b");

  // Park a compute in flight, clear, and let it finish.
  std::atomic<bool> Started{false}, Release{false};
  std::thread Owner([&] {
    C.getOrCompute(3, 3, [&] {
      Started = true;
      while (!Release)
        std::this_thread::yield();
      return std::string("c");
    });
  });
  while (!Started)
    std::this_thread::yield();
  C.clear();
  EXPECT_EQ(C.counts().Entries, 1u) << "the in-flight entry survives";
  Release = true;
  Owner.join();

  MemoCounts S = C.counts();
  EXPECT_EQ(S.Misses, 3u) << "clear() drops entries, not accounting";
  EXPECT_EQ(S.Evictions, 0u) << "a clear is not an eviction";
  EXPECT_EQ(S.Entries, 1u);
  bool Hit = false;
  EXPECT_EQ(get(C, 3, "WRONG", nullptr, &Hit), "c");
  EXPECT_TRUE(Hit) << "the entry filled after the clear stays cached";
  get(C, 1, "a", nullptr, &Hit);
  EXPECT_FALSE(Hit) << "entries computed before the clear are gone";
}

TEST(MemoCache, ExactlyOnceLatchUnderContention) {
  // Many threads race on one key; the latch lets exactly one compute
  // while the rest wait and share the published value. The sleep widens
  // the in-flight window so the race actually happens.
  StringMemo C(8);
  std::atomic<int> Computes{0};
  const int Threads = 8;
  std::vector<std::string> Results(Threads);
  parallelFor(Threads, Threads, [&](int T) {
    Results[static_cast<size_t>(T)] = C.getOrCompute(7, 7, [&] {
      ++Computes;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return std::string("once");
    });
  });
  EXPECT_EQ(Computes.load(), 1);
  for (const std::string &R : Results)
    EXPECT_EQ(R, "once");
  MemoCounts S = C.counts();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, static_cast<uint64_t>(Threads - 1));
  EXPECT_LE(S.InflightWaits, S.Hits);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(MemoCache, ThrowingComputeLeavesNoEntryBehind) {
  StringMemo C(8);
  EXPECT_THROW(C.getOrCompute(5, 5,
                              []() -> std::string {
                                throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  // Checked with ASSERT so a cache that keeps the dead entry fails here
  // instead of hanging the next lookup on its latch.
  ASSERT_EQ(C.counts().Entries, 0u) << "the failed entry must be unlinked";
  int Computes = 0;
  bool Hit = true;
  EXPECT_EQ(get(C, 5, "a", &Computes, &Hit), "a");
  EXPECT_FALSE(Hit) << "the key computes again after a throw";
  EXPECT_EQ(Computes, 1);

  // A waiter parked on an entry whose compute throws wakes, retries the
  // lookup, and computes the value itself.
  std::atomic<bool> Started{false}, Release{false};
  std::thread Owner([&] {
    EXPECT_THROW(C.getOrCompute(6, 6,
                                [&]() -> std::string {
                                  Started = true;
                                  while (!Release)
                                    std::this_thread::yield();
                                  throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
  });
  while (!Started)
    std::this_thread::yield();
  std::string Waited;
  std::thread Waiter([&] { Waited = get(C, 6, "b"); });
  // Give the waiter time to reach the latch before the owner throws; if
  // it arrives later it simply misses, which the test accepts too.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Release = true;
  Owner.join();
  Waiter.join();
  EXPECT_EQ(Waited, "b");
  MemoCounts S = C.counts();
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Misses, 4u) << "two throwing computes and two retries";
}

TEST(MemoCache, ClearRacingLatchedWaitersNeverLosesTheirValue) {
  // Waiters parked on an in-flight entry wake after the fill; a clear()
  // that lands between the fill and their wake-up unlinks the entry. The
  // waiters must still read their value — under ASan a lost entry is a
  // use-after-free, under TSan a race. Repeated to hit the window.
  using BigMemo = MemoCache<int, std::vector<int>>;
  for (int Round = 0; Round < 200; ++Round) {
    BigMemo C;
    std::atomic<bool> Stop{false};
    std::thread Clearer([&] {
      while (!Stop)
        C.clear();
    });
    std::vector<std::vector<int>> Seen(6);
    parallelFor(6, 6, [&](int T) {
      Seen[static_cast<size_t>(T)] = C.getOrCompute(Round, 0, [&] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::vector<int>(64, Round);
      });
    });
    Stop = true;
    Clearer.join();
    for (const std::vector<int> &V : Seen)
      EXPECT_EQ(V, std::vector<int>(64, Round));
    MemoCounts S = C.counts();
    EXPECT_EQ(S.Hits + S.Misses, 6u);
    EXPECT_GE(S.Misses, 1u);
  }
}

} // namespace
