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
///    cache's latch and share the result. Entries are reference counted
///    and a waiter holds its own reference, so clear() or eviction may
///    unlink an entry before the waiter wakes without pulling the value
///    out from under it. A Compute that throws unlinks its entry and
///    wakes the waiters, which retry the lookup; the exception propagates
///    to the computing caller only.
///  - LRU under one lock. One intrusive LRU list (O(1) touch and unlink)
///    holds every resident entry; an insert evicts from the tail while
///    the count is over capacity. In-flight entries are never evicted, so
///    the cache may overshoot transiently while many keys compute at once.
///  - Capacity 0 is a pass-through (every lookup computes and counts a
///    miss); Unbounded never evicts.
///  - clear() drops every computed entry; in-flight entries and all
///    counters survive it.
///  - Exact accounting, read under the lock and mirrored into telemetry
///    counters under caller-chosen names.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_MEMOCACHE_H
#define UCC_SUPPORT_MEMOCACHE_H

#include "support/Telemetry.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ucc {

/// Exact accounting of one cache.
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
};

template <typename K, typename V>
class MemoCache {
public:
  static constexpr size_t Unbounded = SIZE_MAX;

  explicit MemoCache(size_t Capacity = Unbounded, MemoCounterNames Names = {})
      : Capacity(Capacity), Names(std::move(Names)) {}
  MemoCache(const MemoCache &) = delete;
  MemoCache &operator=(const MemoCache &) = delete;

  /// Returns the value for \p Key (bucket hash \p Hash), computing it
  /// with \p Compute on a miss. \p WasHit (optional) reports whether the
  /// cache answered.
  template <typename ComputeFn>
  V getOrCompute(const K &Key, uint64_t Hash, ComputeFn &&Compute,
                 bool *WasHit = nullptr) {
    if (WasHit)
      *WasHit = false;
    if (Capacity == 0) {
      {
        std::lock_guard<std::mutex> Guard(Lock);
        ++Counts.Misses;
        bump(Names.Misses);
      }
      return Compute();
    }

    std::unique_lock<std::mutex> Guard(Lock);
    while (std::shared_ptr<Entry> *Found = find(Key, Hash)) {
      std::shared_ptr<Entry> Pin = *Found;
      bool Waited = !Pin->Ready;
      Filled.wait(Guard, [&] { return Pin->Ready || Pin->Failed; });
      if (Pin->Failed)
        continue; // its Compute threw: look the key up again
      ++Counts.Hits;
      bump(Names.Hits);
      if (Waited) {
        ++Counts.InflightWaits;
        bump(Names.InflightWaits);
      }
      if (WasHit)
        *WasHit = true;
      if (Pin->Resident)
        touch(Pin.get());
      return Pin->Value;
    }

    auto Mine = std::make_shared<Entry>(Key, Hash);
    Map.emplace(Hash, Mine);
    linkFront(Mine.get());
    ++Counts.Entries;
    ++Counts.Misses;
    bump(Names.Misses);
    enforceBudget();
    Guard.unlock();

    V Value;
    try {
      Value = Compute();
    } catch (...) {
      // In-flight entries are never evicted or cleared, so Mine is still
      // resident: unlink it and let the waiters retry.
      Guard.lock();
      drop(Mine.get());
      Mine->Failed = true;
      Guard.unlock();
      Filled.notify_all();
      throw;
    }

    Guard.lock();
    Mine->Value = Value;
    Mine->Ready = true;
    Guard.unlock();
    Filled.notify_all();
    return Value;
  }

  /// Drops every computed entry. In-flight entries (and the waiters on
  /// them) are untouched, and no counter moves: a clear is a reset, not
  /// an eviction.
  void clear() {
    std::lock_guard<std::mutex> Guard(Lock);
    for (Entry *E = Head; E;) {
      Entry *Next = E->Next;
      if (E->Ready)
        drop(E);
      E = Next;
    }
  }

  /// The accounting, read under the lock.
  MemoCounts counts() const {
    std::lock_guard<std::mutex> Guard(Lock);
    return Counts;
  }

private:
  struct Entry {
    Entry(const K &Key, uint64_t Hash) : Key(Key), Hash(Hash) {}
    const K Key;
    const uint64_t Hash;
    V Value;               ///< valid once Ready
    bool Ready = false;    ///< guarded by the lock
    bool Failed = false;   ///< Compute threw; the entry was unlinked
    bool Resident = true;  ///< linked into the map and the LRU
    Entry *Prev = nullptr; ///< LRU neighbor toward the head (MRU)
    Entry *Next = nullptr; ///< LRU neighbor toward the tail (LRU)
  };

  std::shared_ptr<Entry> *find(const K &Key, uint64_t Hash) {
    auto [It, End] = Map.equal_range(Hash);
    for (; It != End; ++It)
      if (It->second->Key == Key)
        return &It->second;
    return nullptr;
  }

  void linkFront(Entry *E) {
    E->Prev = nullptr;
    E->Next = Head;
    (Head ? Head->Prev : Tail) = E;
    Head = E;
  }

  void unlink(Entry *E) {
    (E->Prev ? E->Prev->Next : Head) = E->Next;
    (E->Next ? E->Next->Prev : Tail) = E->Prev;
    E->Prev = E->Next = nullptr;
  }

  void touch(Entry *E) {
    if (Head == E)
      return;
    unlink(E);
    linkFront(E);
  }

  /// Unlinks \p E. The map's reference goes last, so \p E may be
  /// destroyed on return unless someone else holds it.
  void drop(Entry *E) {
    unlink(E);
    E->Resident = false;
    --Counts.Entries;
    auto [It, End] = Map.equal_range(E->Hash);
    for (; It != End; ++It)
      if (It->second.get() == E) {
        Map.erase(It);
        return;
      }
  }

  /// Evicts from the LRU tail while over capacity, never touching an
  /// in-flight entry (the newcomer is one).
  void enforceBudget() {
    while (Counts.Entries > Capacity) {
      Entry *Victim = Tail;
      while (Victim && !Victim->Ready)
        Victim = Victim->Prev;
      if (!Victim)
        return;
      drop(Victim);
      ++Counts.Evictions;
      bump(Names.Evictions);
    }
  }

  static void bump(const std::string &Name) {
    if (Name.empty())
      return;
    if (Telemetry *T = currentTelemetry())
      T->addCounter(Name);
  }

  const size_t Capacity;
  const MemoCounterNames Names;
  mutable std::mutex Lock;
  std::condition_variable Filled;
  /// Bucket hash -> the entries carrying it (owning).
  std::unordered_multimap<uint64_t, std::shared_ptr<Entry>> Map;
  Entry *Head = nullptr; ///< most recently used
  Entry *Tail = nullptr; ///< least recently used
  MemoCounts Counts;
};

} // namespace ucc

#endif // UCC_SUPPORT_MEMOCACHE_H
