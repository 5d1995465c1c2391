//===- serve/PlanService.cpp - the sink's update-distribution front end ---===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving mechanics. The snapshot is a vector of shared_ptrs to the
/// store's own immutable StoredVersion objects plus one content hash per
/// version, so each version exists once however many snapshots hold it;
/// commit builds the successor snapshot by structural sharing (the old
/// entries are reused, the new version is shared, nothing is copied) and
/// publishes it by bumping an atomic snapshot id — readers keep a
/// thread-local pointer to the snapshot they last used and only take the
/// publication lock when the id moved, so the steady-state read path is
/// one acquire load with no shared-cache-line writes.
///
/// The plan cache is a support/MemoCache (docs/PERFORMANCE.md, "The memo
/// cache"): the latch, the LRU, the budget and the counters live there.
/// This file keeps what is serving's own — the key (FNV-1a over the two
/// endpoint content hashes, confirmed by exact ids).
///
//===----------------------------------------------------------------------===//

#include "serve/PlanService.h"

#include "support/Format.h"
#include "support/Hash.h"
#include "support/MemoCache.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <map>

using namespace ucc;

namespace {

uint64_t imageContentHash(const BinaryImage &Image) {
  std::vector<uint8_t> Bytes = Image.serialize();
  return fnv1a(Bytes.data(), Bytes.size(), StoreHashBasis);
}

/// The canonical cache key: FNV-1a over the two endpoint content hashes,
/// in order (plans are directional). Identity is confirmed against the
/// exact (From, To) ids because distinct versions can share content — the
/// store's own tests commit the same source twice.
uint64_t pairKey(uint64_t FromHash, uint64_t ToHash) {
  return fnv1a(&ToHash, sizeof(ToHash),
               fnv1a(&FromHash, sizeof(FromHash), StoreHashBasis));
}

/// Snapshot ids are unique across every service in the process, so a
/// thread-local cached snapshot can never be mistaken for one belonging
/// to a different service that reused the same address.
std::atomic<uint64_t> GlobalSnapId{0};

/// The exact identity of a cached plan.
struct PairIds {
  int From = -1;
  int To = -1;
  bool operator==(const PairIds &) const = default;
};

} // namespace

/// The immutable version index one plan() call reads: dense ids, like the
/// store, plus the per-version content hash the cache key is built from.
struct PlanService::Snapshot {
  uint64_t Id = 0; ///< globally unique publication id
  std::vector<std::shared_ptr<const StoredVersion>> Versions;
  std::vector<uint64_t> ImageHash;

  const StoredVersion *find(int Id) const {
    if (Id < 0 || static_cast<size_t>(Id) >= Versions.size())
      return nullptr;
    return Versions[static_cast<size_t>(Id)].get();
  }
};

struct PlanService::PlanCache
    : MemoCache<PairIds, std::shared_ptr<const UpdatePlan>> {
  using MemoCache::MemoCache;
};

PlanService::PlanService(VersionStore S, PlanServiceOptions O)
    : Store(std::move(S)), FnCache(std::make_unique<CompileCache>()),
      Opts(std::move(O)) {
  MemoCounterNames Names;
  Names.Hits = "serve.cache_hits";
  Names.Misses = "serve.cache_misses";
  Names.Evictions = "serve.evictions";
  Names.InflightWaits = "serve.inflight_waits";
  Cache = std::make_unique<PlanCache>(Opts.CacheCapacity, std::move(Names));

  auto Initial = std::make_shared<Snapshot>();
  Initial->Id = GlobalSnapId.fetch_add(1, std::memory_order_relaxed) + 1;
  Initial->Versions = Store.versions();
  for (const auto &V : Initial->Versions)
    Initial->ImageHash.push_back(imageContentHash(V->Image));
  uint64_t Id = Initial->Id;
  Snap = std::move(Initial);
  CurrentSnapId.store(Id, std::memory_order_release);
}

PlanService::~PlanService() = default;

std::shared_ptr<const PlanService::Snapshot> PlanService::snapshot() const {
  // The thread-local cache makes the common path lock-free: one acquire
  // load of the published id, compared against what this thread last
  // refreshed. A retained shared_ptr can outlive the service (snapshots
  // are self-contained), and globally unique ids rule out aliasing with
  // another service at a reused address.
  struct Cached {
    const PlanService *Svc = nullptr;
    uint64_t Id = 0;
    std::shared_ptr<const Snapshot> Snap;
  };
  thread_local Cached Tls;
  uint64_t Id = CurrentSnapId.load(std::memory_order_acquire);
  if (Tls.Svc == this && Tls.Id == Id && Tls.Snap)
    return Tls.Snap;
  std::lock_guard<std::mutex> Guard(SnapLock);
  Tls.Svc = this;
  Tls.Id = Snap->Id;
  Tls.Snap = Snap;
  return Tls.Snap;
}

std::optional<UpdatePlan>
PlanService::planOnSnapshot(const Snapshot &S, int FromId, int ToId) const {
  return planBetweenVersions([&S](int Id) { return S.find(Id); }, FromId,
                             ToId);
}

std::shared_ptr<const UpdatePlan> PlanService::plan(int FromId,
                                                    int ToId) const {
  RootTraceScope Trace;
  ScopedSpan Span("serve.plan");
  std::shared_ptr<const Snapshot> S = snapshot();
  telemetryCount("serve.plans");

  // Unknown ids are answered (null) but never cached: the snapshot that
  // rejects them today may know them after the next commit.
  if (!S->find(FromId) || !S->find(ToId)) {
    NRejected.fetch_add(1, std::memory_order_relaxed);
    telemetryCount("serve.rejected");
    return nullptr;
  }

  // Composition failures are cached too (as null) — they are as
  // immutable as any other answer for a committed pair.
  uint64_t Key = pairKey(S->ImageHash[static_cast<size_t>(FromId)],
                         S->ImageHash[static_cast<size_t>(ToId)]);
  return Cache->getOrCompute(
      PairIds{FromId, ToId}, Key,
      [&]() -> std::shared_ptr<const UpdatePlan> {
        if (std::optional<UpdatePlan> P = planOnSnapshot(*S, FromId, ToId))
          return std::make_shared<const UpdatePlan>(std::move(*P));
        return nullptr;
      });
}

std::vector<std::shared_ptr<const UpdatePlan>>
PlanService::planBatch(const std::vector<std::pair<int, int>> &Pairs,
                       int Jobs) const {
  // The whole batch is one trace: the context minted here rides through
  // parallelFor into every item's worker thread, so the fan-out reads as
  // one request lifeline in the exported trace.
  RootTraceScope Trace;
  ScopedSpan Span("serve.batch");
  NBatches.fetch_add(1, std::memory_order_relaxed);
  telemetryCount("serve.batches");

  // Dedupe in first-seen order so a pair requested twice is planned (or
  // latched on) once, and results map back positionally.
  std::vector<std::pair<int, int>> Unique;
  std::vector<size_t> Slot(Pairs.size());
  std::map<std::pair<int, int>, size_t> Seen;
  for (size_t I = 0; I < Pairs.size(); ++I) {
    auto [It, Inserted] = Seen.try_emplace(Pairs[I], Unique.size());
    if (Inserted)
      Unique.push_back(Pairs[I]);
    Slot[I] = It->second;
  }
  uint64_t Duplicates =
      static_cast<uint64_t>(Pairs.size() - Unique.size());
  if (Duplicates) {
    NBatchDeduped.fetch_add(Duplicates, std::memory_order_relaxed);
    telemetryCount("serve.batch_deduped",
                   static_cast<int64_t>(Duplicates));
  }

  std::vector<std::shared_ptr<const UpdatePlan>> UniqueResults(
      Unique.size());
  parallelFor(static_cast<int>(Unique.size()), Jobs, [&](int I) {
    UniqueResults[static_cast<size_t>(I)] =
        plan(Unique[static_cast<size_t>(I)].first,
             Unique[static_cast<size_t>(I)].second);
  });

  std::vector<std::shared_ptr<const UpdatePlan>> Out(Pairs.size());
  for (size_t I = 0; I < Pairs.size(); ++I)
    Out[I] = UniqueResults[Slot[I]];
  return Out;
}

int PlanService::warm(const std::vector<int> &NodeVersions,
                      int TargetVersion, int Jobs) const {
  if (Opts.CacheCapacity == 0)
    return 0; // nothing to warm when caching is off

  // Histogram of stale deployed versions (node 0 is the sink, skipped to
  // match campaign cohort grouping).
  std::map<int, int> Count;
  for (size_t Node = 1; Node < NodeVersions.size(); ++Node) {
    int V = NodeVersions[Node];
    if (V != TargetVersion)
      ++Count[V];
  }

  // Hottest version first; ties go to the older version, which campaigns
  // flood first anyway. The cap is the cache capacity, so the whole warm
  // set stays resident.
  std::vector<std::pair<int, int>> ByHeat(Count.begin(), Count.end());
  std::stable_sort(ByHeat.begin(), ByHeat.end(),
                   [](const auto &A, const auto &B) {
                     return A.second > B.second;
                   });
  size_t Take = std::min(ByHeat.size(), Opts.CacheCapacity);

  std::vector<std::pair<int, int>> Pairs;
  Pairs.reserve(Take);
  for (size_t I = 0; I < Take; ++I)
    Pairs.push_back({ByHeat[I].first, TargetVersion});
  planBatch(Pairs, Jobs);
  NPrecomputed.fetch_add(Pairs.size(), std::memory_order_relaxed);
  telemetryCount("serve.precomputed", static_cast<int64_t>(Pairs.size()));
  return static_cast<int>(Pairs.size());
}

int PlanService::commit(const std::string &Source,
                        const CompileOptions &CompileOpts,
                        DiagnosticEngine &Diag, int ParentId) {
  RootTraceScope Trace;
  ScopedSpan Span("serve.commit");
  std::lock_guard<std::mutex> Guard(CommitLock);
  CompileOptions Effective = CompileOpts;
  if (!Effective.Cache)
    Effective.Cache = FnCache.get();
  int Id = (Store.size() == 0 && ParentId < 0)
               ? Store.addInitial(Source, Effective, Diag)
               : Store.addUpdate(Source, Effective, Diag, ParentId);
  if (Id < 0)
    return -1;

  // Publish the successor snapshot: reuse every existing entry and share
  // the store's new version. Readers on the old snapshot are unaffected;
  // readers with a cached pointer notice the id moved and refresh.
  {
    std::lock_guard<std::mutex> SnapGuard(SnapLock);
    auto Next = std::make_shared<Snapshot>(*Snap);
    Next->Id = GlobalSnapId.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::shared_ptr<const StoredVersion> &V =
        Store.versions()[static_cast<size_t>(Id)];
    Next->Versions.push_back(V);
    Next->ImageHash.push_back(imageContentHash(V->Image));
    uint64_t NextId = Next->Id;
    Snap = std::move(Next);
    CurrentSnapId.store(NextId, std::memory_order_release);
  }

  NCommits.fetch_add(1, std::memory_order_relaxed);
  telemetryCount("serve.commits");
  return Id;
}

CompileCacheStats PlanService::compileCacheStats() const {
  return FnCache->stats();
}

std::shared_ptr<const StoredVersion> PlanService::version(int Id) const {
  std::shared_ptr<const Snapshot> S = snapshot();
  if (!S->find(Id))
    return nullptr;
  return S->Versions[static_cast<size_t>(Id)];
}

size_t PlanService::versionCount() const { return snapshot()->Versions.size(); }

int PlanService::latestId() const {
  return static_cast<int>(snapshot()->Versions.size()) - 1;
}

PlanServiceStats PlanService::stats() const {
  PlanServiceStats S;
  S.Rejected = NRejected.load(std::memory_order_relaxed);
  S.Batches = NBatches.load(std::memory_order_relaxed);
  S.BatchDeduped = NBatchDeduped.load(std::memory_order_relaxed);
  S.Precomputed = NPrecomputed.load(std::memory_order_relaxed);
  S.Commits = NCommits.load(std::memory_order_relaxed);
  MemoCounts C = Cache->counts();
  S.Hits = C.Hits;
  S.Misses = C.Misses;
  S.Evictions = C.Evictions;
  S.InflightWaits = C.InflightWaits;
  S.CacheEntries = C.Entries;
  S.Plans = S.Hits + S.Misses + S.Rejected;
  return S;
}

void PlanService::clearCache() const { Cache->clear(); }

std::optional<CampaignResult>
ucc::planFleetCampaign(const PlanService &Service, const Topology &T,
                       const std::vector<int> &NodeVersions,
                       int TargetVersion, DiagnosticEngine &Diag,
                       const FleetConfig &Cfg) {
  if (TargetVersion < 0 ||
      static_cast<size_t>(TargetVersion) >= Service.versionCount()) {
    Diag.error({}, format("unknown target version %d", TargetVersion));
    return std::nullopt;
  }
  // One batched request covers every cohort; repeated campaigns over
  // similar fleets serve straight from the cache.
  std::vector<int> Stale = staleVersions(NodeVersions, TargetVersion);
  std::vector<std::pair<int, int>> Pairs;
  Pairs.reserve(Stale.size());
  for (int V : Stale)
    Pairs.push_back({V, TargetVersion});
  std::vector<std::shared_ptr<const UpdatePlan>> Plans =
      Service.planBatch(Pairs);

  std::map<int, size_t> BytesFor;
  for (size_t I = 0; I < Stale.size(); ++I) {
    if (!Plans[I]) {
      Diag.error({}, format("cannot plan update %d -> %d", Stale[I],
                            TargetVersion));
      return std::nullopt;
    }
    BytesFor[Stale[I]] = Plans[I]->ScriptBytes;
  }
  return runUpdateCampaign(
      T, NodeVersions, TargetVersion,
      [&](int From) { return BytesFor.at(From); }, Cfg);
}
