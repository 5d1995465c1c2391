//===- serve/PlanService.h - the sink's update-distribution front end -----===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-serving layer over core/VersionStore: a long-lived sink
/// process answers `plan(from, to)` for a whole fleet at high rates, so the
/// store facade alone — single-threaded, recomputing every diff — is the
/// wrong shape. PlanService wraps a store with three serving mechanisms:
///
///  * an immutable snapshot index published through an atomic sequence
///    number with a per-thread snapshot cache, so steady-state `plan`
///    reads touch no lock and no shared cache line beyond one acquire
///    load, and `commit` never blocks them; a snapshot shares the store's
///    version objects rather than copying them;
///  * a plan cache on support/MemoCache — one lock, one LRU list and an
///    exactly-once in-flight latch, so concurrent requests for one pair
///    compute it once; plans are held behind `shared_ptr<const
///    UpdatePlan>`, so a cache hit is a pointer copy, not a deep copy of
///    the composed script. Residency is plain LRU: a cached plan is never
///    stale, so nothing expires and every computed plan is admitted;
///  * batched requests (`planBatch`) that dedupe shared pairs and fan out
///    across support/ThreadPool, plus a precompute pass (`warm`) that
///    seeds the cache from an observed fleet-version histogram.
///
/// Plans are immutable once both endpoints are committed (the version
/// graph is append-only and parent links never change), which is what
/// makes them cacheable forever; correctness is anchored by sharing the
/// exact planner (core planBetweenVersions) with VersionStore::plan, so a
/// served plan is byte-identical to a direct store plan regardless of
/// thread count or cache capacity. Serving activity is visible as the
/// `serve.*` telemetry counters (see docs/OBSERVABILITY.md) and as
/// PlanServiceStats for callers that need exact accounting in tests.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SERVE_PLANSERVICE_H
#define UCC_SERVE_PLANSERVICE_H

#include "core/VersionStore.h"
#include "net/EventSim.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace ucc {

/// Serving knobs. CacheCapacity bounds the number of cached plans; 0
/// disables caching entirely, which makes every request recompute — the
/// cache-cold configuration benches measure.
struct PlanServiceOptions {
  size_t CacheCapacity = 256;

  /// Ignored: the cache is one LRU under one lock. Kept only until the
  /// end-to-end benchmark stops assigning it.
  size_t Shards = 8;
};

/// Exact cache accounting, mirrored into the `serve.*` telemetry
/// counters and read under the cache lock. Every plan() call is exactly
/// one hit, miss or reject, so Plans is derived as their sum.
/// InflightWaits counts requests that found their pair already being
/// computed and blocked on the latch; it depends on thread scheduling and
/// is observability-only (never asserted or regression-gated).
struct PlanServiceStats {
  uint64_t Plans = 0; ///< Hits + Misses + Rejected
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Requests for ids the snapshot does not know (answered null, never
  /// cached, not counted as hit or miss).
  uint64_t Rejected = 0;
  uint64_t Evictions = 0;
  uint64_t InflightWaits = 0;
  uint64_t Batches = 0;
  uint64_t BatchDeduped = 0;
  uint64_t Precomputed = 0;
  uint64_t Commits = 0;
  size_t CacheEntries = 0;
};

/// The thread-safe serving front end. `plan`/`planBatch`/`warm` may be
/// called concurrently from any number of threads, concurrently with
/// `commit`; commits are serialized among themselves. The service owns its
/// store — mutate it only through `commit` (direct store access via
/// `store()` is for single-threaded setup and inspection).
class PlanService {
public:
  explicit PlanService(VersionStore Store,
                       PlanServiceOptions Opts = PlanServiceOptions());
  ~PlanService();
  PlanService(const PlanService &) = delete;
  PlanService &operator=(const PlanService &) = delete;

  /// Plans FromId -> ToId against the current snapshot, serving from the
  /// cache when the pair was planned before. The returned plan is
  /// immutable and shared with the cache — a hit costs one shared_ptr
  /// copy. Returns null for ids the snapshot does not know (never cached)
  /// or a composition failure (cached, like any other answer).
  /// Byte-identical to VersionStore::plan on the same version graph.
  std::shared_ptr<const UpdatePlan> plan(int FromId, int ToId) const;

  /// Plans a whole batch: dedupes repeated pairs, fans the distinct ones
  /// out across \p Jobs threads (0 = ThreadPool::defaultJobs()), and
  /// returns one result per input pair, in input order.
  std::vector<std::shared_ptr<const UpdatePlan>>
  planBatch(const std::vector<std::pair<int, int>> &Pairs,
            int Jobs = 0) const;

  /// Precomputes plans for the hottest (version -> \p TargetVersion)
  /// pairs in \p NodeVersions (an observed fleet-version histogram; node 0
  /// is the sink and ignored, matching campaign cohort grouping). Pairs
  /// are warmed most-populous version first, capped at the cache
  /// capacity. Returns the number of pairs planned.
  int warm(const std::vector<int> &NodeVersions, int TargetVersion,
           int Jobs = 0) const;

  /// Compiles and appends a new version (addInitial when the store is
  /// empty, addUpdate against \p ParentId or the tip otherwise), then
  /// publishes a new snapshot. In-flight plan() calls keep reading the old
  /// snapshot; later calls see the new version. Returns the id, or -1.
  /// Unless \p Opts carries its own CompileCache, the service's
  /// function-level compile cache serves the back half, so commits that
  /// touch few functions skip isel -> RA for the rest (byte-identical
  /// results either way).
  int commit(const std::string &Source, const CompileOptions &Opts,
             DiagnosticEngine &Diag, int ParentId = -1);

  /// Accounting for the service's function-level compile cache.
  CompileCacheStats compileCacheStats() const;

  /// Version \p Id as the current snapshot holds it (null if unknown).
  /// It is the store's own object, shared, so it stays readable after
  /// later commits and after the service is destroyed.
  std::shared_ptr<const StoredVersion> version(int Id) const;

  /// Versions visible to plan() right now (the snapshot, not the store).
  size_t versionCount() const;
  /// Highest id visible to plan() right now, or -1 when empty.
  int latestId() const;

  PlanServiceStats stats() const;

  /// Drops every cached plan (the latch state of in-flight computations is
  /// preserved). For cold-vs-warm measurements.
  void clearCache() const;

  /// The underlying store. Not synchronized against commit() — use only
  /// when no other thread is touching the service.
  const VersionStore &store() const { return Store; }

private:
  struct Snapshot;
  struct PlanCache;

  std::shared_ptr<const Snapshot> snapshot() const;
  std::optional<UpdatePlan> planOnSnapshot(const Snapshot &S, int FromId,
                                           int ToId) const;

  VersionStore Store; ///< guarded by CommitLock
  std::mutex CommitLock;
  /// Function-level compile cache shared by every commit (internally
  /// synchronized; see core/CompileCache.h).
  std::unique_ptr<CompileCache> FnCache;

  /// Snapshot publication: readers load CurrentSnapId (acquire) and serve
  /// from a thread-local cache when it still names that snapshot; only a
  /// stale thread takes SnapLock to refresh. Snapshot ids are globally
  /// unique, so a thread-local entry can never alias a snapshot from
  /// another service reusing this address.
  mutable std::mutex SnapLock;
  std::shared_ptr<const Snapshot> Snap; ///< guarded by SnapLock
  std::atomic<uint64_t> CurrentSnapId{0};

  PlanServiceOptions Opts;
  std::unique_ptr<PlanCache> Cache;

  mutable std::atomic<uint64_t> NRejected{0}, NBatches{0}, NBatchDeduped{0},
      NPrecomputed{0}, NCommits{0};
};

/// The serving-layer fleet campaign: plans every cohort's script through
/// the service (so repeated campaigns over similar fleets hit the cache)
/// and floods them via net/runUpdateCampaign under \p Cfg. Fails (nullopt, with a
/// diagnostic) for an unknown target or any cohort the service cannot
/// plan, before any flood runs.
std::optional<CampaignResult>
planFleetCampaign(const PlanService &Service, const Topology &T,
                  const std::vector<int> &NodeVersions, int TargetVersion,
                  DiagnosticEngine &Diag,
                  const FleetConfig &Cfg = FleetConfig());

} // namespace ucc

#endif // UCC_SERVE_PLANSERVICE_H
