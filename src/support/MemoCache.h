//===- support/MemoCache.h - the library's one memo cache ----------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe memo cache: `getOrCompute(Key, Hash, Compute)` returns
/// the value remembered for Key and calls Compute only when there is
/// none. Three layers memoize through it — regalloc's ILP window solves,
/// core's per-function back halves (CompileCache) and serve's plans
/// (PlanService) — and each supplies only its key encoding. None of the
/// three values can go stale once computed, so one residency policy (LRU)
/// serves them all. The shared mechanism (docs/PERFORMANCE.md, "The memo
/// cache"):
///
///  - Identity. The caller passes its canonical key plus a 64-bit bucket
///    hash of it (FNV-1a, support/Hash.h). A hit needs the hash AND full
///    key equality, so a hash collision can never alias two keys.
///  - Exactly once. A miss publishes an in-flight entry and computes
///    outside the lock; concurrent lookups of the same key wait on the
///    shard's latch and share the result. Entries are reference counted
///    and a waiter holds its own reference, so clear() or eviction may
///    unlink an entry before the waiter wakes without pulling the value
///    out from under it.
///  - LRU under one budget. Each shard keeps an intrusive LRU list (O(1)
///    touch and unlink). The capacity bounds resident entries across all
///    shards together: an inserting shard evicts from its own tail while
///    the total is over budget. In-flight entries are never evicted, so
///    the cache may overshoot transiently while many keys compute at once.
///  - Capacity 0 is a pass-through (every lookup computes and counts a
///    miss); Unbounded never evicts.
///  - clear() drops every computed entry; in-flight entries and all
///    counters survive it.
///  - Exact per-shard accounting, read under the shard lock and mirrored
///    into telemetry counters under caller-chosen names.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_MEMOCACHE_H
#define UCC_SUPPORT_MEMOCACHE_H

#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ucc {

/// Exact accounting of one shard (or of all shards, summed).
struct MemoCounts {
  uint64_t Hits = 0;          ///< lookups answered from the cache
  uint64_t Misses = 0;        ///< lookups that ran Compute
  uint64_t Evictions = 0;     ///< entries dropped for the budget
  uint64_t InflightWaits = 0; ///< hits that waited on an in-flight entry
  size_t Entries = 0;         ///< resident entries, in-flight included
};

/// Telemetry counters a MemoCache bumps; an empty name is not reported.
struct MemoCounterNames {
  std::string Hits, Misses, Evictions, InflightWaits;
  /// When set, shard I also bumps `<ShardPrefix><I>.hits`, `.misses` and
  /// `.evictions`.
  std::string ShardPrefix;
};

template <typename K, typename V>
class MemoCache {
public:
  static constexpr size_t Unbounded = SIZE_MAX;

  explicit MemoCache(size_t Capacity = Unbounded, size_t NumShards = 1,
                     MemoCounterNames Names = {})
      : Capacity(Capacity), Names(std::move(Names)) {
    NumShards = std::max<size_t>(NumShards, 1);
    for (size_t I = 0; I < NumShards; ++I) {
      auto S = std::make_unique<Shard>();
      if (!this->Names.ShardPrefix.empty()) {
        std::string P = this->Names.ShardPrefix + std::to_string(I);
        S->HitsName = P + ".hits";
        S->MissesName = P + ".misses";
        S->EvictionsName = P + ".evictions";
      }
      Shards.push_back(std::move(S));
    }
  }
  MemoCache(const MemoCache &) = delete;
  MemoCache &operator=(const MemoCache &) = delete;

  /// Returns the value for \p Key (bucket hash \p Hash, in shard
  /// \p ShardIdx — the caller's choice, stable per key), computing it
  /// with \p Compute on a miss. \p WasHit (optional) reports whether the
  /// cache answered.
  template <typename ComputeFn>
  V getOrCompute(const K &Key, uint64_t Hash, ComputeFn &&Compute,
                 bool *WasHit = nullptr, size_t ShardIdx = 0) {
    Shard &S = *Shards[ShardIdx];
    if (WasHit)
      *WasHit = false;
    if (Capacity == 0) {
      {
        std::lock_guard<std::mutex> Guard(S.Lock);
        ++S.Counts.Misses;
        bump(Names.Misses, &S.MissesName);
      }
      return Compute();
    }

    std::unique_lock<std::mutex> Guard(S.Lock);
    if (std::shared_ptr<Entry> *Found = find(S, Key, Hash)) {
      ++S.Counts.Hits;
      bump(Names.Hits, &S.HitsName);
      if (WasHit)
        *WasHit = true;
      Entry *E = Found->get();
      if (E->Ready) {
        touch(S, E);
        return E->Value;
      }
      ++S.Counts.InflightWaits;
      bump(Names.InflightWaits);
      std::shared_ptr<Entry> Pin = *Found;
      S.Filled.wait(Guard, [&] { return Pin->Ready; });
      if (Pin->Resident)
        touch(S, Pin.get());
      return Pin->Value;
    }

    auto Mine = std::make_shared<Entry>(Key, Hash);
    S.Map.emplace(Hash, Mine);
    linkFront(S, Mine.get());
    ++S.Counts.Entries;
    Total.fetch_add(1, std::memory_order_relaxed);
    ++S.Counts.Misses;
    bump(Names.Misses, &S.MissesName);
    enforceBudget(S);
    Guard.unlock();

    V Value = Compute();

    Guard.lock();
    Mine->Value = Value;
    Mine->Ready = true;
    Guard.unlock();
    S.Filled.notify_all();
    return Value;
  }

  /// Drops every computed entry. In-flight entries (and the waiters on
  /// them) are untouched, and no counter moves: a clear is a reset, not
  /// an eviction.
  void clear() {
    for (const std::unique_ptr<Shard> &SP : Shards) {
      Shard &S = *SP;
      std::lock_guard<std::mutex> Guard(S.Lock);
      for (Entry *E = S.Head; E;) {
        Entry *Next = E->Next;
        if (E->Ready)
          drop(S, E);
        E = Next;
      }
    }
  }

  /// Shard \p I's accounting, read under its lock.
  MemoCounts shardCounts(size_t I) const {
    Shard &S = *Shards[I];
    std::lock_guard<std::mutex> Guard(S.Lock);
    return S.Counts;
  }

  /// Every shard's accounting summed (each slice read under its lock).
  MemoCounts counts() const {
    MemoCounts Sum;
    for (size_t I = 0; I < Shards.size(); ++I) {
      MemoCounts C = shardCounts(I);
      Sum.Hits += C.Hits;
      Sum.Misses += C.Misses;
      Sum.Evictions += C.Evictions;
      Sum.InflightWaits += C.InflightWaits;
      Sum.Entries += C.Entries;
    }
    return Sum;
  }

  size_t shardCount() const { return Shards.size(); }

private:
  struct Entry {
    Entry(const K &Key, uint64_t Hash) : Key(Key), Hash(Hash) {}
    const K Key;
    const uint64_t Hash;
    V Value;               ///< valid once Ready
    bool Ready = false;    ///< guarded by the shard lock
    bool Resident = true;  ///< linked into the shard (map + LRU)
    Entry *Prev = nullptr; ///< LRU neighbor toward the head (MRU)
    Entry *Next = nullptr; ///< LRU neighbor toward the tail (LRU)
  };

  struct Shard {
    std::mutex Lock;
    std::condition_variable Filled;
    /// Bucket hash -> the entries carrying it (owning).
    std::unordered_multimap<uint64_t, std::shared_ptr<Entry>> Map;
    Entry *Head = nullptr; ///< most recently used
    Entry *Tail = nullptr; ///< least recently used
    MemoCounts Counts;
    std::string HitsName, MissesName, EvictionsName;
  };

  std::shared_ptr<Entry> *find(Shard &S, const K &Key, uint64_t Hash) {
    auto [It, End] = S.Map.equal_range(Hash);
    for (; It != End; ++It)
      if (It->second->Key == Key)
        return &It->second;
    return nullptr;
  }

  static void linkFront(Shard &S, Entry *E) {
    E->Prev = nullptr;
    E->Next = S.Head;
    (S.Head ? S.Head->Prev : S.Tail) = E;
    S.Head = E;
  }

  static void unlink(Shard &S, Entry *E) {
    (E->Prev ? E->Prev->Next : S.Head) = E->Next;
    (E->Next ? E->Next->Prev : S.Tail) = E->Prev;
    E->Prev = E->Next = nullptr;
  }

  static void touch(Shard &S, Entry *E) {
    if (S.Head == E)
      return;
    unlink(S, E);
    linkFront(S, E);
  }

  /// Unlinks \p E from its shard. The map's reference goes last, so \p E
  /// may be destroyed on return unless someone else holds it.
  void drop(Shard &S, Entry *E) {
    unlink(S, E);
    E->Resident = false;
    --S.Counts.Entries;
    Total.fetch_sub(1, std::memory_order_relaxed);
    auto [It, End] = S.Map.equal_range(E->Hash);
    for (; It != End; ++It)
      if (It->second.get() == E) {
        S.Map.erase(It);
        return;
      }
  }

  /// Evicts from \p S's LRU tail while the global budget is exceeded,
  /// never touching an in-flight entry (the newcomer is one).
  void enforceBudget(Shard &S) {
    while (Total.load(std::memory_order_relaxed) > Capacity) {
      Entry *Victim = S.Tail;
      while (Victim && !Victim->Ready)
        Victim = Victim->Prev;
      if (!Victim)
        return;
      drop(S, Victim);
      ++S.Counts.Evictions;
      bump(Names.Evictions, &S.EvictionsName);
    }
  }

  static void bump(const std::string &Name,
                   const std::string *ShardName = nullptr) {
    if (Name.empty())
      return;
    if (Telemetry *T = currentTelemetry()) {
      T->addCounter(Name);
      if (ShardName && !ShardName->empty())
        T->addCounter(*ShardName);
    }
  }

  const size_t Capacity;
  const MemoCounterNames Names;
  std::vector<std::unique_ptr<Shard>> Shards;
  /// Resident entries across all shards: the one budget.
  std::atomic<size_t> Total{0};
};

} // namespace ucc

#endif // UCC_SUPPORT_MEMOCACHE_H
