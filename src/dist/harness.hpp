#pragma once
// Shared run harness for the distributed algorithms.
//
// Every dist/ entry point runs the same frame: lease the rank pool (with
// optional arena pre-warm), execute one rank body per simulated process,
// time each body's busy CPU seconds, and fill the result's traffic /
// critical-path / wall-clock fields. Keeping the frame in one place means
// a protocol or accounting change lands everywhere at once.

#include <algorithm>
#include <vector>

#include "common/timer.hpp"
#include "dist/rank_pool.hpp"
#include "dist/result.hpp"
#include "mpisim/communicator.hpp"

namespace atalib::dist {

/// Run `body(rank_ctx, task_ctx)` on `ranks` simulated processes and fill
/// `res.traffic`, `res.rank_busy_seconds` (which must be pre-sized; ranks
/// beyond `ranks` stay zero) and `res.seconds` (from `wall` — ata_dist
/// starts it before its plan-cache fetch so cold-call setup counts like
/// the baselines' in-line setup; api::execute_dist without a caller timer
/// covers the run only). Each
/// body is timed with a per-rank ThreadCpuTimer, so blocked recvs do not
/// inflate the critical path. `warm_float`/`warm_double` pre-grow every
/// pool slot's arena before the batch (0 = skip).
template <typename T, typename Body>
void run_ranks(DistResult<T>& res, int ranks, const Timer& wall, std::size_t warm_float,
               std::size_t warm_double, Body&& body) {
  RankPoolLease lease(ranks);
  if (warm_float > 0 || warm_double > 0) {
    lease.pool().warm_workspaces(warm_float, warm_double);
  }
  mpisim::Communicator comm(ranks);
  std::vector<double> busy(static_cast<std::size_t>(ranks), 0.0);
  comm.run_on(lease.pool(), [&](mpisim::RankCtx& ctx, runtime::TaskContext& tctx) {
    ThreadCpuTimer timer;
    body(ctx, tctx);
    busy[static_cast<std::size_t>(ctx.rank())] = timer.seconds();
  });
  std::copy_n(busy.begin(), std::min(busy.size(), res.rank_busy_seconds.size()),
              res.rank_busy_seconds.begin());
  res.traffic = comm.traffic();
  res.seconds = wall.seconds();
}

}  // namespace atalib::dist
