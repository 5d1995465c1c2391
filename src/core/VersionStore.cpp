//===- core/VersionStore.cpp - versioned compilation artifacts ------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The version chain, its on-disk form, and the direct-vs-chained planner.
/// Persistence is a `manifest.json` (schema_version 1) naming one `vN.img`
/// and `vN.rec` per version, all in the store directory; the manifest also
/// carries the parent/script-bytes bookkeeping so `history` listings need
/// no artifact decoding; `open` rebuilds each version's parent -> child
/// update from the loaded images. The data layout lives in the record;
/// `open` ignores the `layout` object older manifests carry. Every file is
/// written to a sibling `.tmp` and renamed into place, the manifest last,
/// so a commit that dies part-way leaves the previous store (the new
/// version's files are unreferenced until the manifest names them).
/// Commits, loads and plans report to the telemetry registry (`store.*`).
///
//===----------------------------------------------------------------------===//

#include "core/VersionStore.h"

#include "support/Format.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_set>

using namespace ucc;

std::string ucc::sourceHash(const std::string &Text) {
  uint64_t H = fnv1a(Text.data(), Text.size(), StoreHashBasis);
  return format("%016llx", static_cast<unsigned long long>(H));
}

namespace {

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

StoreWriteHook WriteHook; ///< setStoreWriteHookForTesting's hook

/// Replaces \p Path with \p Bytes atomically: a reader sees the old file
/// or the new one, never a torn mix.
bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  size_t Keep = Bytes.size();
  if (WriteHook)
    Keep = std::min(Keep, WriteHook(Path, Bytes.size()));
  std::string Tmp = Path + ".tmp";
  std::ofstream OutS(Tmp, std::ios::binary | std::ios::trunc);
  OutS.write(reinterpret_cast<const char *>(Bytes.data()),
             static_cast<std::streamsize>(Keep));
  OutS.close();
  if (OutS.fail() || Keep < Bytes.size())
    return false;
  std::error_code EC;
  std::filesystem::rename(Tmp, Path, EC);
  return !EC;
}

std::string pathJoin(const std::string &Dir, const std::string &Name) {
  return (std::filesystem::path(Dir) / Name).string();
}

} // namespace

void ucc::setStoreWriteHookForTesting(StoreWriteHook Hook) {
  WriteHook = std::move(Hook);
}

std::optional<VersionStore> VersionStore::open(const std::string &Dir,
                                               DiagnosticEngine &Diag) {
  VersionStore S;
  S.Dir = Dir;

  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Diag.error({}, "cannot create store directory '" + Dir + "'");
    return std::nullopt;
  }

  std::string ManifestPath = pathJoin(Dir, "manifest.json");
  if (!std::filesystem::exists(ManifestPath))
    return S; // a fresh, empty store

  std::vector<uint8_t> Raw;
  if (!readFileBytes(ManifestPath, Raw)) {
    Diag.error({}, "cannot read '" + ManifestPath + "'");
    return std::nullopt;
  }
  auto Doc = json::parse(std::string(Raw.begin(), Raw.end()));
  if (!Doc || Doc->K != json::Value::Object) {
    Diag.error({}, "'" + ManifestPath + "' is not a JSON object");
    return std::nullopt;
  }
  if (Doc->numberOr("schema_version", 0) != 1) {
    Diag.error({}, "'" + ManifestPath + "': unsupported schema_version");
    return std::nullopt;
  }
  const json::Value *Vs = Doc->find("versions");
  if (!Vs || Vs->K != json::Value::Array) {
    Diag.error({}, "'" + ManifestPath + "': missing versions array");
    return std::nullopt;
  }

  for (const json::Value &Entry : Vs->Arr) {
    if (Entry.K != json::Value::Object) {
      Diag.error({}, "'" + ManifestPath + "': malformed version entry");
      return std::nullopt;
    }
    StoredVersion V;
    V.Id = static_cast<int>(Entry.numberOr("id", -1));
    V.Parent = static_cast<int>(Entry.numberOr("parent", -1));
    V.SourceHash = Entry.stringOr("source_hash", "");
    if (V.Id != static_cast<int>(S.Versions.size())) {
      Diag.error({}, "'" + ManifestPath + "': version ids must be dense");
      return std::nullopt;
    }
    if (V.Parent >= V.Id) {
      Diag.error({}, format("'%s': version %d has invalid parent %d",
                            ManifestPath.c_str(), V.Id, V.Parent));
      return std::nullopt;
    }

    std::string ImgName = Entry.stringOr("image", "");
    std::vector<uint8_t> ImgBytes;
    if (ImgName.empty() ||
        !readFileBytes(pathJoin(Dir, ImgName), ImgBytes) ||
        !BinaryImage::deserialize(ImgBytes, V.Image)) {
      Diag.error({}, format("cannot load image for version %d", V.Id));
      return std::nullopt;
    }
    std::string RecName = Entry.stringOr("record", "");
    std::vector<uint8_t> RecBytes;
    if (RecName.empty() ||
        !readFileBytes(pathJoin(Dir, RecName), RecBytes) ||
        !CompilationRecord::deserialize(RecBytes, V.Record)) {
      Diag.error({}, format("cannot load record for version %d", V.Id));
      return std::nullopt;
    }

    if (V.Parent >= 0) {
      const StoredVersion &P = *S.Versions[static_cast<size_t>(V.Parent)];
      V.FromParent = makeImageUpdate(P.Image, V.Image);
      // Shares as the commit did: with the record it was compiled against.
      V.Record.shareUnchanged(P.Record);
    }

    S.Versions.push_back(std::make_shared<const StoredVersion>(std::move(V)));
  }
  if (Telemetry *T = currentTelemetry())
    T->addCounter("store.loads", static_cast<int64_t>(S.Versions.size()));
  return S;
}

bool VersionStore::writeManifest(DiagnosticEngine &Diag) const {
  json::Value Doc = json::Value::object();
  Doc.set("schema_version", json::Value::number(1));
  json::Value Vs = json::Value::array();
  for (const std::shared_ptr<const StoredVersion> &P : Versions) {
    const StoredVersion &V = *P;
    json::Value E = json::Value::object();
    E.set("id", json::Value::number(V.Id));
    E.set("parent", json::Value::number(V.Parent));
    E.set("source_hash", json::Value::string(V.SourceHash));
    // Written for readers of the manifest; open() rebuilds FromParent.
    size_t ScriptBytes = V.Parent < 0 ? 0 : V.FromParent.scriptBytes();
    E.set("script_bytes_from_parent",
          json::Value::number(static_cast<double>(ScriptBytes)));
    E.set("image", json::Value::string(format("v%d.img", V.Id)));
    E.set("record", json::Value::string(format("v%d.rec", V.Id)));
    Vs.Arr.push_back(std::move(E));
  }
  Doc.set("versions", std::move(Vs));

  std::string Text = Doc.serialize(2) + "\n";
  if (!writeFileBytes(pathJoin(Dir, "manifest.json"),
                      std::vector<uint8_t>(Text.begin(), Text.end()))) {
    Diag.error({}, "cannot write store manifest in '" + Dir + "'");
    return false;
  }
  return true;
}

bool VersionStore::persist(const StoredVersion &V, DiagnosticEngine &Diag) {
  if (Dir.empty())
    return true;
  if (!writeFileBytes(pathJoin(Dir, format("v%d.img", V.Id)),
                      V.Image.serialize()) ||
      !writeFileBytes(pathJoin(Dir, format("v%d.rec", V.Id)),
                      V.Record.serialize())) {
    Diag.error({}, format("cannot write artifacts for version %d in '%s'",
                          V.Id, Dir.c_str()));
    return false;
  }
  return writeManifest(Diag);
}

int VersionStore::commitVersion(StoredVersion V, DiagnosticEngine &Diag) {
  Versions.push_back(std::make_shared<const StoredVersion>(std::move(V)));
  if (!persist(*Versions.back(), Diag)) {
    Versions.pop_back();
    return -1;
  }
  telemetryCount("store.commits");
  return Versions.back()->Id;
}

int VersionStore::addInitial(const std::string &Source,
                             const CompileOptions &Opts,
                             DiagnosticEngine &Diag) {
  if (!Versions.empty()) {
    Diag.error({}, "store already has an initial version");
    return -1;
  }
  auto Out = Compiler::compile(Source, Opts, Diag);
  if (!Out)
    return -1;
  StoredVersion V;
  V.Id = 0;
  V.Parent = -1;
  V.SourceHash = sourceHash(Source);
  V.Image = std::move(Out->Image);
  V.Record = std::move(Out->Record);
  return commitVersion(std::move(V), Diag);
}

int VersionStore::addUpdate(const std::string &Source,
                            const CompileOptions &Opts,
                            DiagnosticEngine &Diag, int ParentId) {
  const StoredVersion *P =
      ParentId < 0 ? latest() : find(ParentId);
  if (!P) {
    Diag.error({}, ParentId < 0
                       ? std::string("store is empty; commit an initial "
                                     "version first")
                       : format("unknown parent version %d", ParentId));
    return -1;
  }
  auto Out = Compiler::recompile(Source, P->Record, Opts, Diag);
  if (!Out)
    return -1;
  StoredVersion V;
  V.Id = static_cast<int>(Versions.size());
  V.Parent = P->Id;
  V.SourceHash = sourceHash(Source);
  V.FromParent = makeImageUpdate(P->Image, Out->Image, Opts.Jobs);
  V.Image = std::move(Out->Image);
  V.Record = std::move(Out->Record);
  return commitVersion(std::move(V), Diag);
}

size_t VersionStore::storedFunctions() const {
  std::unordered_set<const MachineFunction *> Distinct;
  for (const std::shared_ptr<const StoredVersion> &V : Versions)
    for (const std::shared_ptr<const MachineFunction> &MF : V->Record.FinalCode)
      Distinct.insert(MF.get());
  return Distinct.size();
}

const StoredVersion *VersionStore::find(int Id) const {
  if (Id < 0 || static_cast<size_t>(Id) >= Versions.size())
    return nullptr;
  return Versions[static_cast<size_t>(Id)].get();
}

const StoredVersion *VersionStore::latest() const {
  return Versions.empty() ? nullptr : Versions.back().get();
}

std::vector<int> VersionStore::children(int Id) const {
  std::vector<int> Out;
  for (const auto &V : Versions)
    if (V->Parent == Id)
      Out.push_back(V->Id);
  return Out;
}

std::vector<int> VersionStore::tips() const {
  std::vector<bool> HasChild(Versions.size(), false);
  for (const auto &V : Versions)
    if (V->Parent >= 0 && static_cast<size_t>(V->Parent) < Versions.size())
      HasChild[static_cast<size_t>(V->Parent)] = true;
  std::vector<int> Out;
  for (const auto &V : Versions)
    if (!HasChild[static_cast<size_t>(V->Id)])
      Out.push_back(V->Id);
  return Out;
}

std::optional<UpdatePlan> ucc::planBetweenVersions(
    const std::function<const StoredVersion *(int)> &Find, int FromId,
    int ToId) {
  const StoredVersion *From = Find(FromId);
  const StoredVersion *To = Find(ToId);
  if (!From || !To)
    return std::nullopt;

  ScopedSpan Span("store.plan");
  UpdatePlan P;
  P.From = FromId;
  P.To = ToId;

  // A parent -> child pair was diffed when the child was committed.
  ImageUpdate Direct = To->Parent == FromId
                           ? To->FromParent
                           : makeImageUpdate(From->Image, To->Image);
  P.DirectBytes = Direct.scriptBytes();

  // The version graph is a parent forest — every version has at most one
  // parent — so any two connected versions are joined by exactly one
  // simple path: up from From to their lowest common ancestor, then down
  // to To. That path is what a cost-based shortest-path search over the
  // DAG returns (each stored edge carries its script-bytes cost, and a
  // tree admits no alternative), which covers upgrades, rollbacks, and
  // cross-branch hops alike. The fresh endpoint diff competes as an
  // always-present direct edge; the final call compares ACTUAL composed
  // bytes against direct bytes, not the per-step cost sum, because
  // composition cancels edits that later steps undo.
  std::vector<int> Path; // From -> ... -> To, endpoints included
  {
    std::map<int, size_t> UpIndex; // ancestor id -> hops above From
    std::vector<int> Up;
    for (int At = FromId; At >= 0;) {
      UpIndex[At] = Up.size();
      Up.push_back(At);
      const StoredVersion *V = Find(At);
      if (!V)
        break;
      At = V->Parent;
    }
    std::vector<int> Down; // To -> ... -> LCA child
    int Lca = -1;
    for (int At = ToId; At >= 0;) {
      if (auto It = UpIndex.find(At); It != UpIndex.end()) {
        Lca = At;
        break;
      }
      Down.push_back(At);
      const StoredVersion *V = Find(At);
      if (!V)
        break;
      At = V->Parent;
    }
    if (Lca >= 0) {
      for (size_t I = 0; I <= UpIndex[Lca]; ++I)
        Path.push_back(Up[I]);
      for (size_t I = Down.size(); I-- > 0;)
        Path.push_back(Down[I]);
    }
  }
  bool HasChain = Path.size() >= 2;

  // A one-hop route is the endpoint pair itself: the same package as
  // Direct, which it ties and so never beats.
  ImageUpdate Chained;
  if (Path.size() == 2) {
    P.ChainSteps = 1;
    P.ChainedBytes = P.DirectBytes;
  } else if (HasChain) {
    bool First = true;
    for (size_t I = 1; I < Path.size(); ++I) {
      ImageUpdate Step = makeImageUpdate(Find(Path[I - 1])->Image,
                                         Find(Path[I])->Image);
      if (First) {
        Chained = std::move(Step);
        First = false;
      } else {
        ImageUpdate Combined;
        if (!composeImageUpdates(From->Image, Chained, Step, Combined))
          return std::nullopt;
        Chained = std::move(Combined);
      }
    }
    P.ChainSteps = static_cast<int>(Path.size()) - 1;
    P.ChainedBytes = Chained.scriptBytes();
  }

  if (HasChain && P.ChainedBytes < P.DirectBytes) {
    P.Route = UpdatePlan::RouteKind::Chained;
    P.Update = std::move(Chained);
    P.ScriptBytes = P.ChainedBytes;
  } else {
    P.Route = UpdatePlan::RouteKind::Direct;
    P.Update = std::move(Direct);
    P.ScriptBytes = P.DirectBytes;
  }

  if (Telemetry *T = currentTelemetry()) {
    T->addCounter("store.plans");
    T->addCounter(P.Route == UpdatePlan::RouteKind::Direct
                      ? "store.plans_direct"
                      : "store.plans_chained");
  }
  return P;
}

std::optional<UpdatePlan> VersionStore::plan(int FromId, int ToId) const {
  return planBetweenVersions([this](int Id) { return find(Id); }, FromId,
                             ToId);
}
