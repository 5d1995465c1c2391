//===- serve/LoadDriver.cpp - replay a request stream against a service ---===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//

#include "serve/LoadDriver.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

using namespace ucc;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Begin) {
  return std::chrono::duration<double>(Clock::now() - Begin).count();
}

} // namespace

LoadResult ucc::runLoad(const PlanService &Service,
                        const std::vector<std::pair<int, int>> &Stream,
                        const LoadOptions &Opts, DurationDist &Latency,
                        const LoadProgress &Progress) {
  LoadResult R;
  if (Stream.empty() || Opts.Requests <= 0)
    return R;
  auto At = [&](int K) -> const std::pair<int, int> & {
    return Stream[static_cast<size_t>(K) % Stream.size()];
  };
  std::atomic<int> Next{0};
  std::atomic<int> FailedAt{-1};
  auto Fail = [&](int K) {
    int None = -1;
    FailedAt.compare_exchange_strong(None, K);
  };
  // One closed-loop client: takes the next request as soon as its last one
  // is answered, until the stream is done or any client saw a failure.
  auto Client = [&](DurationDist &Mine, const LoadProgress &Report) {
    for (int K = Next.fetch_add(1, std::memory_order_relaxed);
         K < Opts.Requests && FailedAt.load(std::memory_order_relaxed) < 0;
         K = Next.fetch_add(1, std::memory_order_relaxed)) {
      Clock::time_point T0 = Clock::now();
      bool Ok = Service.plan(At(K).first, At(K).second) != nullptr;
      Mine.record(secondsSince(T0));
      if (!Ok)
        Fail(K);
      else if (Report)
        Report(K + 1, Mine);
    }
  };

  uint64_t Before = Latency.Count;
  Clock::time_point Begin = Clock::now();
  if (Opts.Batch > 0) {
    std::vector<std::pair<int, int>> Pairs;
    for (int First = 0; First < Opts.Requests && FailedAt.load() < 0;
         First += Opts.Batch) {
      int Len = std::min(Opts.Batch, Opts.Requests - First);
      Pairs.clear();
      for (int K = First; K < First + Len; ++K)
        Pairs.push_back(At(K));
      Clock::time_point T0 = Clock::now();
      std::vector<std::shared_ptr<const UpdatePlan>> Plans =
          Service.planBatch(Pairs);
      double Seconds = secondsSince(T0);
      for (int K = 0; K < Len; ++K) {
        Latency.record(Seconds);
        if (!Plans[static_cast<size_t>(K)])
          Fail(First + K);
      }
      if (Progress && FailedAt.load() < 0)
        Progress(First + Len, Latency);
    }
  } else if (Opts.Threads <= 1) {
    Client(Latency, Progress);
  } else {
    // Worker threads do not inherit the thread-current telemetry registry,
    // so each gets a scratch registry merged after the join — the same
    // discipline as ThreadPool::parallelFor — and its own histogram.
    size_t NumThreads = static_cast<size_t>(Opts.Threads);
    Telemetry *Parent = currentTelemetry();
    std::vector<Telemetry> Scratch(Parent ? NumThreads : 0);
    std::vector<DurationDist> Own(NumThreads);
    std::vector<std::thread> Pool;
    for (size_t T = 0; T < NumThreads; ++T) {
      Pool.emplace_back([&, T] {
        std::optional<TelemetryScope> Scope;
        if (Parent)
          Scope.emplace(Scratch[T]);
        DurationDist Mine; // on this thread's stack: no shared cache line
        Client(Mine, nullptr);
        Own[T] = std::move(Mine);
      });
    }
    for (std::thread &T : Pool)
      T.join();
    for (const Telemetry &Child : Scratch)
      Parent->mergeChild(Child);
    for (const DurationDist &Mine : Own)
      Latency.merge(Mine);
  }
  R.Seconds = secondsSince(Begin);
  R.Issued = static_cast<int>(Latency.Count - Before);
  if (int K = FailedAt.load(); K >= 0)
    R.Failed = At(K);
  return R;
}
