//===- core/VersionStore.h - versioned compilation artifacts --------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sink's long-lived state: every version it ever deployed, as a chain
/// of compilation artifacts (image + compilation record, which holds the
/// machine code and data layout, + parent link). The paper's workflow is
/// inherently stateful — the sink "keeps the record of previous
/// compilation" across an open-ended stream of updates — and this store
/// makes that state first class instead of leaving it implicit in
/// caller-managed CompileOutput variables. A version's record shares the
/// machine code of every function its commit left unchanged with its
/// parent's record (core/Record.h), in memory and again when `open`
/// loads it, so the store grows with the functions edited.
///
/// On top of the store sits the planner: an update between ANY two stored
/// versions is planned either as a fresh endpoint diff (Direct) or as the
/// composition of the per-step scripts along the parent chain (Chained),
/// whichever costs fewer edit-script bytes on air. serve/PlanService
/// serves the planner to a fleet, and its planFleetCampaign binds it into
/// the net layer's mixed-version fleet campaign.
///
/// A store is either purely in-memory (default constructed) or backed by a
/// directory (`open`), where it persists a JSON manifest plus one image and
/// one record file per version, so a sink process can be restarted without
/// losing the chain. Files are replaced by rename, the manifest last, so a
/// commit cut off at any write reopens as the store before it.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_CORE_VERSIONSTORE_H
#define UCC_CORE_VERSIONSTORE_H

#include "core/CompileCache.h"
#include "core/Compiler.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ucc {

/// One deployed version held by the sink.
struct StoredVersion {
  int Id = -1;     ///< dense version number (0 = initial)
  int Parent = -1; ///< version this one was recompiled against (-1 = root)
  std::string SourceHash; ///< FNV-1a of the source text (hex)
  /// The update Parent -> this, exactly makeImageUpdate(parent image,
  /// Image) (empty for the root). The planner serves a one-hop upgrade
  /// from it instead of diffing the pair again; its scriptBytes() is the
  /// version's cost on air from its parent.
  ImageUpdate FromParent;
  BinaryImage Image;
  CompilationRecord Record;
};

/// A planned update between two stored versions.
struct UpdatePlan {
  int From = -1;
  int To = -1;
  /// How the winning package was built: one fresh endpoint diff, or the
  /// composition of the stepwise scripts along the parent chain.
  enum class RouteKind { Direct, Chained };
  RouteKind Route = RouteKind::Direct;
  ImageUpdate Update;      ///< the winning package
  size_t ScriptBytes = 0;  ///< its size on air
  size_t DirectBytes = 0;  ///< cost of the fresh endpoint diff
  size_t ChainedBytes = 0; ///< cost of the composed route (0 if none)
  int ChainSteps = 0;      ///< DAG hops From -> To via the LCA (0 if none)
};

/// The sink's version chain. Each version is an immutable object behind a
/// shared_ptr: pointers returned by find()/latest() stay valid for the
/// store's lifetime, across later commits, and a holder of versions()'s
/// shared_ptrs (serve/PlanService's snapshots) keeps them alive beyond it.
class VersionStore {
public:
  /// An in-memory store (nothing persisted).
  VersionStore() = default;

  /// Opens (or initializes) a store backed by \p Dir. Loads every version
  /// recorded in the manifest; reports malformed manifests or unreadable
  /// artifacts to \p Diag and returns nullopt.
  static std::optional<VersionStore> open(const std::string &Dir,
                                          DiagnosticEngine &Diag);

  /// Compiles \p Source as version 0. Fails (returning -1) if the store is
  /// non-empty or compilation fails.
  int addInitial(const std::string &Source, const CompileOptions &Opts,
                 DiagnosticEngine &Diag);

  /// Recompiles \p Source against version \p ParentId (-1 = latest) and
  /// stores the result as a new version. Returns the new id, or -1.
  int addUpdate(const std::string &Source, const CompileOptions &Opts,
                DiagnosticEngine &Diag, int ParentId = -1);

  const StoredVersion *find(int Id) const;
  const StoredVersion *latest() const;

  /// The version DAG made explicit: `addUpdate(..., ParentId)` may branch
  /// off any stored version, so histories form a parent tree rather than
  /// one chain. `children` lists the versions committed against \p Id (in
  /// id order); `tips` lists every leaf (versions nothing was committed
  /// against) — a linear history has exactly one tip.
  std::vector<int> children(int Id) const;
  std::vector<int> tips() const;

  size_t size() const { return Versions.size(); }
  const std::vector<std::shared_ptr<const StoredVersion>> &versions() const {
    return Versions;
  }
  const std::string &directory() const { return Dir; }

  /// The distinct machine-code objects the stored records hold. Records
  /// share the functions a commit left unchanged (core/Record.h), so this
  /// grows with the functions edited, not with versions x functions.
  size_t storedFunctions() const;

  /// Plans the update taking \p FromId to \p ToId: builds the fresh
  /// endpoint diff, and — whenever the two versions are connected in the
  /// parent DAG (upgrade, rollback, or cross-branch) — the composed
  /// stepwise route through their lowest common ancestor, then picks
  /// whichever costs fewer edit-script bytes (ties go Direct, matching
  /// what a graph-oblivious sink would ship). A parent -> child plan is the
  /// child's stored FromParent, with no diff at all. Returns nullopt for
  /// unknown ids or a composition failure.
  std::optional<UpdatePlan> plan(int FromId, int ToId) const;

private:
  int commitVersion(StoredVersion V, DiagnosticEngine &Diag);
  bool persist(const StoredVersion &V, DiagnosticEngine &Diag);
  bool writeManifest(DiagnosticEngine &Diag) const;

  std::string Dir; ///< empty = in-memory only
  std::vector<std::shared_ptr<const StoredVersion>> Versions;
};

/// The direct-vs-chained planner over any dense version index: \p Find maps
/// an id to its StoredVersion (nullptr = unknown). The composed candidate
/// is the cheapest route through the version DAG — the unique tree path
/// through the lowest common ancestor, discovered by parent walks, with
/// the direct endpoint diff competing as an always-present edge — so
/// rollbacks and cross-branch hops compose just like forward chains. This
/// is the single planning algorithm behind VersionStore::plan and
/// serve/PlanService — the service plans on an immutable snapshot, the
/// store on its live graph, and both produce byte-identical packages
/// because they share this function. The endpoint diff of a parent ->
/// child pair is the child's FromParent, and a one-hop route (either
/// direction) is that same package, so neither is diffed again. Counts
/// store.plans / store.plans_direct / store.plans_chained.
std::optional<UpdatePlan> planBetweenVersions(
    const std::function<const StoredVersion *(int)> &Find, int FromId,
    int ToId);

/// FNV-1a hash of \p Text rendered as 16 hex digits (the store's source
/// fingerprint; exposed for tests and tools).
std::string sourceHash(const std::string &Text);

/// Crash-injection seam for tests. When set, every store file write asks
/// it how many of its \p Bytes (bound for \p Path) reach the disk; a short
/// count writes that prefix and fails the write, as if the process died
/// there. Set and cleared from one thread while no store is writing.
using StoreWriteHook =
    std::function<size_t(const std::string &Path, size_t Bytes)>;
void setStoreWriteHookForTesting(StoreWriteHook Hook);

} // namespace ucc

#endif // UCC_CORE_VERSIONSTORE_H
