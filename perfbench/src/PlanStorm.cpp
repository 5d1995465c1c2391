//===- perfbench/src/PlanStorm.cpp - the serve-bound workload -------------===//
//
// A branched version DAG built in set-up, then three closed-loop client
// threads issuing Zipf-skewed plan(from, to) requests against a plan
// cache smaller than the distinct-pair working set, beside one writer
// thread that commits a release every WriterEvery requests. One operation =
// one request. A cache, snapshot or lock change shows here; the writer
// keeps compile cost from hiding behind the reads.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "regalloc/UccIlpModel.h"
#include "serve/PlanService.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

namespace pb {

namespace {

constexpr int SetupReps = 5;
constexpr int SetupVersions = 24;  // 552 ordered pairs in the working set
constexpr size_t CacheCapacity = 160;
constexpr size_t WarmPairs = 96;   // hottest pairs planned in set-up
constexpr int Clients = 3;
constexpr double ZipfS = 1.1;
constexpr uint64_t WriterEvery = 2000; // requests per writer commit
constexpr int HotPairsPerRelease = 4;
constexpr double WindowS = 1.0;    // throughput and p50 window

/// The set-up DAG has one fixed shape, a trunk with a branch off every
/// fourth version, so its pair distances do not depend on the seed.
int setupParent(int V) { return V % 4 == 0 ? V / 2 : V - 1; }

using Pair = std::pair<int, int>;

/// Pairs ranked hottest first; clients draw ranks from a Zipf law.
struct Pool {
  std::vector<Pair> Pairs;
};

std::vector<double> zipfCdf(size_t N) {
  std::vector<double> Cdf(N);
  double Sum = 0;
  for (size_t K = 0; K < N; ++K)
    Cdf[K] = Sum += std::pow(static_cast<double>(K + 1), -ZipfS);
  for (double &V : Cdf)
    V /= Sum;
  return Cdf;
}

/// The plans one client was served for one pair. The store is not
/// quiesced under load, so each distinct plan object is byte-compared with
/// the first one when it is served (outside the timed region), and the
/// first is checked against VersionStore::plan after the join. Hits return
/// the object served last, so only a rebuilt plan costs a comparison.
struct Served {
  std::shared_ptr<const ucc::UpdatePlan> First, Last;
  std::vector<uint8_t> FirstBytes;
  uint64_t Count = 0;
  uint64_t Bad = 0;     ///< requests served no plan or one unlike the first
  bool LastBad = false;

  void record(std::shared_ptr<const ucc::UpdatePlan> Plan) {
    ++Count;
    if (!Plan) {
      ++Bad;
      return;
    }
    if (Plan != Last) {
      std::vector<uint8_t> Bytes = Plan->Update.serialize();
      if (!First) {
        First = Plan;
        FirstBytes = std::move(Bytes);
        LastBad = false;
      } else {
        LastBad =
            Plan->ScriptBytes != First->ScriptBytes || Bytes != FirstBytes;
      }
      Last = std::move(Plan);
    }
    Bad += LastBad;
  }
};

struct Client {
  std::vector<double> OpMs, TracedOpMs;
  std::vector<double> Ends; ///< completion time of each request
  std::map<Pair, Served> Seen;
  Recorder Rec;
};

} // namespace

RunOutput runPlanStorm(const Config &C) {
  RunOutput Out;
  const ucc::CompileOptions Commit = commitOptions(C.UccRa, C.Jobs);
  ucc::PlanServiceOptions SO;
  SO.CacheCapacity = CacheCapacity;
  SO.Shards = 8;

  // Set-up: the branched DAG, the ranked pair pool and a warm cache.
  std::unique_ptr<ucc::PlanService> Svc;
  std::vector<Program> Models;
  std::vector<int> Parents;
  std::array<int, NumEditKinds> Hist{};
  Rng R(0);
  std::shared_ptr<const Pool> Initial;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    ucc::clearWindowCache();
    R = Rng(C.Seed * 0x9e3779b97f4a7c15ULL + 2);
    Models = {generateFirmware(C.Seed)};
    Parents = {-1};
    Hist = {};
    ucc::DiagnosticEngine D;
    double T0 = nowS();
    auto S = std::make_unique<ucc::PlanService>(ucc::VersionStore(), SO);
    if (S->commit(render(Models[0]), Commit, D) != 0)
      throw std::runtime_error("plan-storm: initial compile failed");
    for (int V = 1; V < SetupVersions; ++V) {
      int Parent = setupParent(V);
      Program M = Models[static_cast<size_t>(Parent)];
      applyRelease(M, R, Hist);
      if (S->commit(render(M), Commit, D, Parent) != V)
        throw std::runtime_error("plan-storm: set-up commit failed");
      Models.push_back(std::move(M));
      Parents.push_back(Parent);
    }
    auto P = std::make_shared<Pool>();
    for (int A = 0; A < SetupVersions; ++A)
      for (int B = 0; B < SetupVersions; ++B)
        if (A != B)
          P->Pairs.push_back({A, B});
    for (size_t K = P->Pairs.size(); K > 1; --K)
      std::swap(P->Pairs[K - 1],
                P->Pairs[static_cast<size_t>(R.below(static_cast<int>(K)))]);
    for (size_t K = 0; K < WarmPairs; ++K)
      S->plan(P->Pairs[K].first, P->Pairs[K].second);
    Out.SetupS.push_back(nowS() - T0);
    Svc = std::move(S);
    Initial = std::move(P);
  }

  // The load: clients and the writer share only the service and the pool.
  std::mutex PoolLock;
  std::shared_ptr<const Pool> CurPool = Initial; // guarded by PoolLock
  std::atomic<uint64_t> PoolGen{1};
  std::atomic<uint64_t> Requests{0};
  std::atomic<bool> Stop{false};
  std::vector<Client> Cs(Clients);
  Recorder WriterRec;
  int WriterCommits = 0;
  int WriterFailures = 0;

  std::atomic<uint64_t> ClientFailures{0};
  auto clientLoop = [&](int Idx) {
    Client &Me = Cs[static_cast<size_t>(Idx)];
    Rng CR(C.Seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(Idx) + 7);
    uint64_t Gen = 0;
    std::shared_ptr<const Pool> P;
    std::vector<double> Cdf;
    for (uint64_t N = 0; !Stop.load(std::memory_order_relaxed); ++N) {
      if (PoolGen.load(std::memory_order_acquire) != Gen) {
        std::lock_guard<std::mutex> G(PoolLock);
        P = CurPool;
        Gen = PoolGen.load(std::memory_order_relaxed);
        Cdf = zipfCdf(P->Pairs.size());
      }
      size_t Rank = static_cast<size_t>(
          std::lower_bound(Cdf.begin(), Cdf.end(), CR.unit()) - Cdf.begin());
      Pair Req = P->Pairs[std::min(Rank, Cdf.size() - 1)];
      const bool Traced = C.Trace && N % 2 == 0;
      std::shared_ptr<const ucc::UpdatePlan> Plan;
      double T0 = nowS();
      try {
        TraceScope TS(Traced ? &Me.Rec : nullptr,
                      (static_cast<uint64_t>(Idx) << 40) | N);
        Span OpSpan("op");
        Span S("PlanService::plan");
        Plan = Svc->plan(Req.first, Req.second);
      } catch (const std::bad_alloc &) {
        // A miss ran out of memory: the request fails and the load stops.
        std::fprintf(stderr, "plan-storm: request %d->%d ran out of memory\n",
                     Req.first, Req.second);
        ClientFailures.fetch_add(1);
        Stop.store(true);
        return;
      }
      double T1 = nowS();
      (Traced ? Me.TracedOpMs : Me.OpMs).push_back((T1 - T0) * 1e3);
      Me.Ends.push_back(T1);
      Me.Seen[Req].record(std::move(Plan));
      Requests.fetch_add(1, std::memory_order_relaxed);
    }
  };

  Rng WR(C.Seed * 0xd1342543de82ef95ULL + 3);
  auto writerLoop = [&] {
    uint64_t NextAt = WriterEvery;
    while (!Stop.load(std::memory_order_relaxed)) {
      if (Requests.load(std::memory_order_relaxed) < NextAt) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      NextAt += WriterEvery;
      int Latest = static_cast<int>(Models.size()) - 1;
      int Parent = WR.below(3) ? Latest : WR.below(Latest + 1);
      Program M = Models[static_cast<size_t>(Parent)];
      applyRelease(M, WR, Hist);
      ucc::DiagnosticEngine D;
      const bool Traced = C.Trace && WriterCommits % 2 == 0;
      int Id = -1;
      try {
        TraceScope TS(Traced ? &WriterRec : nullptr,
                      (1ULL << 50) + static_cast<uint64_t>(WriterCommits));
        Span W("writer");
        Span S("PlanService::commit");
        Id = Svc->commit(render(M), Commit, D, Parent);
      } catch (const std::bad_alloc &) {
        // The service may be left half-updated; stop committing.
        std::fprintf(stderr, "plan-storm: writer commit ran out of memory\n");
        ++WriterFailures;
        return;
      }
      ++WriterCommits;
      if (Id != Latest + 1) {
        ++WriterFailures;
        continue;
      }
      Models.push_back(std::move(M));
      Parents.push_back(Parent);
      // The new version joins the pool, hottest first, only now that its
      // commit has returned.
      auto Next = std::make_shared<Pool>();
      Next->Pairs = {{Parent, Id}, {Id, Parent}};
      while (static_cast<int>(Next->Pairs.size()) < HotPairsPerRelease)
        Next->Pairs.push_back({WR.below(Id), Id});
      std::lock_guard<std::mutex> G(PoolLock);
      Next->Pairs.insert(Next->Pairs.end(), CurPool->Pairs.begin(),
                         CurPool->Pairs.end());
      CurPool = std::move(Next);
      PoolGen.fetch_add(1, std::memory_order_release);
    }
  };

  double LoadStart = nowS();
  {
    std::vector<std::thread> Threads;
    for (int K = 0; K < Clients; ++K)
      Threads.emplace_back(clientLoop, K);
    Threads.emplace_back(writerLoop);
    std::this_thread::sleep_for(std::chrono::duration<double>(C.Seconds));
    Stop.store(true);
    for (std::thread &T : Threads)
      T.join();
  }
  double LoadS = nowS() - LoadStart;

  // Untimed, on the quiesced store: every version's release check, and
  // every pair's first served plan against VersionStore::plan.
  const ucc::VersionStore &Store = Svc->store();
  Recorder CheckRec;
  VersionFacts Facts = checkVersions(Store, Models, Parents, C.Jobs,
                                     C.Trace ? &CheckRec : nullptr);
  for (bool Ok : Facts.Ok)
    Out.Failed += !Ok;
  Out.Attempted += Facts.Ok.size() + static_cast<uint64_t>(WriterFailures) +
                   ClientFailures;
  Out.Failed += static_cast<uint64_t>(WriterFailures) + ClientFailures;
  Out.SelfCheckFlagged = corruptedImageIsFlagged(
      evaluate(Models[1]), Facts.Patched1, Facts.Gcc[1]);

  std::vector<std::pair<uint64_t, std::vector<double>>> Windows(
      static_cast<size_t>(LoadS / WindowS));
  std::map<Pair, uint64_t> Distinct;
  for (Client &Cl : Cs) {
    for (const auto &[Req, E] : Cl.Seen) {
      Distinct[Req] += E.Count;
      Out.Attempted += E.Count;
      uint64_t Bad = E.First && servedPlanIsExact(Store, Req.first, Req.second,
                                                  E.First.get())
                         ? E.Bad
                         : E.Count;
      Out.Failed += Bad;
      if (Bad)
        std::fprintf(stderr,
                     "plan-storm: %llu requests for %d->%d were served a "
                     "wrong plan\n",
                     static_cast<unsigned long long>(Bad), Req.first,
                     Req.second);
    }
    Out.OpMs.insert(Out.OpMs.end(), Cl.OpMs.begin(), Cl.OpMs.end());
    // One-second windows of the load: requests completed in each, and the
    // untraced latencies that completed in it.
    size_t Untraced = 0;
    for (size_t K = 0; K < Cl.Ends.size(); ++K) {
      bool IsUntraced = !C.Trace || K % 2 == 1;
      size_t W = static_cast<size_t>((Cl.Ends[K] - LoadStart) / WindowS);
      if (W < Windows.size()) { // the partial last window is dropped
        ++Windows[W].first;
        if (IsUntraced)
          Windows[W].second.push_back(Cl.OpMs[Untraced]);
      }
      Untraced += IsUntraced;
    }
    Out.TracedOpMs.insert(Out.TracedOpMs.end(), Cl.TracedOpMs.begin(),
                          Cl.TracedOpMs.end());
  }

  for (auto &[Count, Ms] : Windows) {
    Out.WindowOpsPerS.push_back(static_cast<double>(Count) / WindowS);
    Out.WindowMs.push_back(std::move(Ms));
  }

  const uint64_t TotalRequests = Requests.load();
  std::printf("# plan-storm: %d clients + 1 writer, zipf s=%.2f, cache "
              "capacity %zu, set-up working set %zu pairs, distinct pairs "
              "requested %zu, versions %zu\n",
              Clients, ZipfS, CacheCapacity, Initial->Pairs.size(),
              Distinct.size(), Models.size());
  std::printf("# writer: %d commits under load (one per %llu requests at "
              "most), %.0f requests per commit\n",
              WriterCommits, static_cast<unsigned long long>(WriterEvery),
              static_cast<double>(TotalRequests) / std::max(1, WriterCommits));
  std::printf("# firmware: %zu functions (%d straight-line); edit kinds:",
              Models[0].Functions.size(), countStraightLine(Models[0]));
  for (int K = 0; K < NumEditKinds; ++K)
    std::printf(" %s=%d", editKindName(K), Hist[static_cast<size_t>(K)]);
  std::printf("\n");

  if (C.Trace) {
    Recorder Merged;
    for (Recorder *Src : {&Cs[0].Rec, &Cs[1].Rec, &Cs[2].Rec, &WriterRec,
                          &CheckRec}) {
      int Base = static_cast<int>(Merged.Spans.size());
      for (SpanRec S : Src->Spans) {
        if (S.Parent >= 0)
          S.Parent += Base;
        Merged.Spans.push_back(S);
      }
      Merged.Tel.mergeChild(Src->Tel);
    }
    attributeLayers(Merged, static_cast<int>(Out.TracedOpMs.size()),
                    Out.TracedOpMs, Out.OpMs, Out.Layer);
    Out.Spans = std::move(Merged.Spans);
  }
  return Out;
}

} // namespace pb
