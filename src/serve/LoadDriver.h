//===- serve/LoadDriver.h - replay a request stream against a service -----===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one request loop behind `uccc serve-bench` and
/// bench/bench_plan_service. Request K of a run is
/// `Stream[K % Stream.size()]`, issued sequentially, in batches through
/// `planBatch` (fanned out over ThreadPool::defaultJobs() workers, i.e.
/// `--jobs`), or from a closed loop of threads that each take the next
/// request as soon as their last one is answered.
///
/// The driver, not the service, times requests: each thread records into
/// its own DurationDist, merged into the caller's after the join. A
/// batched request's latency is its whole batch's wall time.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SERVE_LOADDRIVER_H
#define UCC_SERVE_LOADDRIVER_H

#include "serve/PlanService.h"
#include "support/Telemetry.h"

#include <optional>
#include <utility>
#include <vector>

namespace ucc {

/// How runLoad issues the stream: Batch wins over Threads; with neither
/// set the replay is sequential on the calling thread.
struct LoadOptions {
  int Requests = 0; ///< requests to issue (the stream wraps around)
  int Batch = 0;    ///< > 0: batches of this many through planBatch
  int Threads = 1;  ///< > 1: a closed loop of this many threads
};

struct LoadResult {
  int Issued = 0;       ///< requests issued (all of them unless one failed)
  double Seconds = 0.0; ///< wall time of the whole replay
  /// The first pair the service answered null; no request is issued after
  /// it is seen.
  std::optional<std::pair<int, int>> Failed;

  double plansPerSec() const { return Seconds > 0 ? Issued / Seconds : 0; }
};

/// Replays Opts.Requests requests of \p Stream against \p Service,
/// recording each one's latency into \p Latency. Closed-loop workers count
/// into scratch telemetry registries merged into the thread-current one
/// after the join, so `serve.*` counters and spans land as in a sequential
/// run.
LoadResult runLoad(const PlanService &Service,
                   const std::vector<std::pair<int, int>> &Stream,
                   const LoadOptions &Opts, DurationDist &Latency);

} // namespace ucc

#endif // UCC_SERVE_LOADDRIVER_H
