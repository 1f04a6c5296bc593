#include "api/execute.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/timer.hpp"
#include "dist/block_io.hpp"
#include "dist/harness.hpp"
#include "parallel/leaf_exec.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib::api {
namespace {

/// Cut the op's global-coordinate blocks out of A/C and hand them to the
/// shared leaf kernel (parallel/leaf_exec.hpp) — the same code path for a
/// pool task and a simulated rank.
template <typename T>
void run_op(T alpha, ConstMatrixView<T> a, MatrixView<T> c, const sched::LeafOp& op,
            Arena<T>& arena, const AtaPlan& plan) {
  auto ab = a.block(op.a.r0, op.a.c0, op.a.rows, op.a.cols);
  auto cb = c.block(op.c.r0, op.c.c0, op.c.rows, op.c.cols);
  ConstMatrixView<T> bb;
  if (op.kind == sched::LeafOp::Kind::kGemm) {
    bb = a.block(op.b.r0, op.b.c0, op.b.rows, op.b.cols);
  }
  run_leaf_kernel(alpha, ab, bb, cb, op.kind, arena, plan.engine(), plan.recurse());
}

/// One rank's whole distribute-compute-retrieve walk (Algorithm 4).
/// `chain` is this rank's node chain (entry -> ... -> leaf, see
/// DistTree::rank_chains); the entry's C region is accumulated in a single
/// buffer that every chain node writes through, so chain hand-offs cost no
/// copies or messages.
template <typename T>
void rank_body(T alpha, const Matrix<T>& a, MatrixView<T> c_out, const AtaPlan& plan,
               const std::vector<int>& chain, mpisim::RankCtx& ctx,
               runtime::TaskContext& tctx) {
  using dist::BlockStore;
  const sched::DistTree& tree = plan.tree();
  const int r = ctx.rank();
  const sched::DistNode& entry = tree.node(chain.front());
  const bool is_root = entry.parent < 0;

  // --- Phase 1a: receive this subtree's A blocks from the parent process.
  BlockStore<T> store;
  if (!is_root) {
    const int src = tree.node(entry.parent).proc;
    for (const sched::Block& b : entry.needs) {
      store.put(b, dist::recv_block<T>(ctx, src, chain.front(), b.rows, b.cols));
    }
  }
  // The root serves blocks straight out of A; everyone else out of the
  // store (needs lists nest upward, so every child block is present).
  auto a_view = [&](const sched::Block& b) -> ConstMatrixView<T> {
    if (is_root) return a.block(b.r0, b.c0, b.rows, b.cols);
    return store.view(b);
  };

  // --- Phase 1b: forward each off-chain child its subtree's blocks,
  // top-down (a child's child may sit on yet another process and is served
  // by that child, not by us).
  std::vector<T> staging;
  for (int id : chain) {
    for (int cid : tree.node(id).children) {
      const sched::DistNode& ch = tree.node(cid);
      if (ch.proc == r) continue;
      for (const sched::Block& b : ch.needs) {
        dist::send_block(ctx, ch.proc, cid, a_view(b), staging);
      }
    }
  }

  // --- Phase 2: leaf compute. One arena serves both the entry-region
  // accumulator and the leaf kernels' Strassen scratch; the rank pool
  // pre-warmed it, so a steady-state run allocates nothing here.
  Arena<T>& arena = tctx.arena<T>(plan.workspace_bound());
  MatrixView<T> region;
  if (is_root) {
    region = c_out;  // the root's entry region is all of C
  } else {
    T* buf = arena.allocate(static_cast<std::size_t>(entry.c.size()));
    region = MatrixView<T>(buf, entry.c.rows, entry.c.cols, entry.c.cols);
    fill_view(region, T(0));
  }
  auto region_of = [&](const sched::Block& blk) {
    return region.block(blk.r0 - entry.c.r0, blk.c0 - entry.c.c0, blk.rows, blk.cols);
  };

  const sched::DistNode& leaf = tree.node(chain.back());
  for (const sched::LeafOp& op : leaf.ops) {
    ConstMatrixView<T> bv;
    if (op.kind == sched::LeafOp::Kind::kGemm) bv = a_view(op.b);
    run_leaf_kernel(alpha, a_view(op.a), bv, region_of(op.c), op.kind, arena, plan.engine(),
                    plan.recurse());
  }

  // --- Phase 3: retrieval, bottom-up. Off-chain children send their
  // partial C; chain children already accumulated in place.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (int cid : tree.node(*it).children) {
      const sched::DistNode& ch = tree.node(cid);
      if (ch.proc == r) continue;
      if (ch.symmetric) {
        dist::recv_add_packed_lower(ctx, ch.proc, cid, region_of(ch.c));
      } else {
        dist::recv_add_block(ctx, ch.proc, cid, region_of(ch.c));
      }
    }
  }
  if (!is_root) {
    const int dst = tree.node(entry.parent).proc;
    if (entry.symmetric) {
      dist::send_packed_lower(ctx, dst, chain.front(), ConstMatrixView<T>(region), staging);
    } else {
      dist::send_block(ctx, dst, chain.front(), ConstMatrixView<T>(region), staging);
    }
  }
}

void check_mode_dtype(const AtaPlan& plan, PlanMode mode, Dtype dtype) {
  if (plan.key().mode != mode) {
    throw std::invalid_argument("AtaPlan mode mismatch: shared/dist plan used with the "
                                "other execute entry point");
  }
  if (plan.key().dtype != dtype) {
    throw std::invalid_argument("AtaPlan dtype mismatch: plan was built for the other "
                                "scalar type");
  }
}

}  // namespace

template <typename T>
void check_shared(const AtaPlan& plan, ConstMatrixView<T> a, MatrixView<T> c) {
  check_mode_dtype(plan, PlanMode::kShared, dtype_of<T>());
  if (a.rows != plan.key().m || a.cols != plan.key().n) {
    throw std::invalid_argument(
        "AtaPlan shape mismatch: plan is for " + std::to_string(plan.key().m) + "x" +
        std::to_string(plan.key().n) + ", A is " + std::to_string(a.rows) + "x" +
        std::to_string(a.cols));
  }
  if (c.rows != plan.key().n || c.cols != plan.key().n) {
    throw std::invalid_argument("AtaPlan output mismatch: C must be n x n = " +
                                std::to_string(plan.key().n) + "^2, got " +
                                std::to_string(c.rows) + "x" + std::to_string(c.cols));
  }
}

void warm_for(const AtaPlan& plan, runtime::ThreadPool& pool) {
  const std::size_t bound = plan.workspace_bound();
  if (bound == 0) return;  // the BLAS engine is allocation-free
  if (plan.key().dtype == Dtype::kF32) {
    pool.warm_workspaces(bound, 0);
  } else {
    pool.warm_workspaces(0, bound);
  }
}

template <typename T>
void run_plan_task(const AtaPlan& plan, int task, T alpha, ConstMatrixView<T> a,
                   MatrixView<T> c, runtime::TaskContext& ctx) {
  const auto& t = plan.schedule().tasks[static_cast<std::size_t>(task)];
  // Every slot's arena is sized to the plan-wide high-water mark, not the
  // task at hand: stealing may route any task to any slot, and a per-task
  // bound would let a late first-time steal of the biggest task trigger a
  // malloc on an otherwise warm pool.
  Arena<T>& arena = ctx.arena<T>(plan.workspace_bound());
  for (const auto& op : t.ops) run_op(alpha, a, c, op, arena, plan);
}

template <typename T>
void execute(const AtaPlan& plan, T alpha, ConstMatrixView<T> a, MatrixView<T> c,
             runtime::ThreadPool* pool_in) {
  check_shared(plan, a, c);
  runtime::ThreadPool& pool = pool_in ? *pool_in : runtime::ThreadPool::global();
  const int ntasks = static_cast<int>(plan.schedule().tasks.size());
  if (ntasks <= 1 || plan.key().p == 1) {
    // A P = 1 plan is serial by definition (its oversub only splits the
    // work, it asks for no concurrency): submit it as ONE task, which the
    // pool runs inline on the calling thread's workspace. That workspace
    // grows on first use — pre-growing every pool slot here would pin
    // slots-many full-size slabs that never see a task.
    pool.run(1, [&](int, runtime::TaskContext& ctx) {
      for (int t = 0; t < ntasks; ++t) run_plan_task(plan, t, alpha, a, c, ctx);
    });
    return;
  }
  warm_for(plan, pool);
  auto body = [&](int t, runtime::TaskContext& ctx) {
    run_plan_task(plan, t, alpha, a, c, ctx);
  };
  // Pin the plan's write-disjoint C stripes to nodes round-robin so each
  // stripe's packed panels and output pages stay node-local; a flat pool
  // skips the hint machinery entirely.
  const int nnodes = pool.numa_nodes();
  runtime::NodeHintFn hint;
  if (nnodes > 1) hint = [&plan, nnodes](int t) { return plan.preferred_node(t, nnodes); };
  pool.run(ntasks, body, hint);
}

template <typename T>
SharedProfile execute_profile(const AtaPlan& plan, T alpha, ConstMatrixView<T> a,
                              MatrixView<T> c) {
  check_shared(plan, a, c);
  runtime::Workspace workspace;  // one reusable arena across all timed tasks
  SharedProfile profile;
  const auto& tasks = plan.schedule().tasks;
  // Report where the placement hints would home each task on the global
  // pool's topology (profiling itself runs serially regardless).
  const int nnodes = std::max(1, runtime::ThreadPool::global().numa_nodes());
  profile.tasks_per_node.assign(static_cast<std::size_t>(nnodes), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ++profile.tasks_per_node[static_cast<std::size_t>(
        plan.preferred_node(static_cast<int>(i), nnodes))];
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Arena<T>& arena =
        workspace.arena<T>(static_cast<std::size_t>(plan.task_workspace()[i]));
    ThreadCpuTimer timer;
    for (const auto& op : tasks[i].ops) run_op(alpha, a, c, op, arena, plan);
    const double s = timer.seconds();
    profile.task_seconds.push_back(s);
    profile.critical_path_seconds = std::max(profile.critical_path_seconds, s);
    profile.total_seconds += s;
  }
  return profile;
}

template <typename T>
dist::DistResult<T> execute_dist(const AtaPlan& plan, T alpha, const Matrix<T>& a,
                                 const Timer* wall_in) {
  check_mode_dtype(plan, PlanMode::kDist, dtype_of<T>());
  if (a.rows() != plan.key().m || a.cols() != plan.key().n) {
    throw std::invalid_argument("AtaPlan shape mismatch: dist plan is for " +
                                std::to_string(plan.key().m) + "x" +
                                std::to_string(plan.key().n));
  }
  const Timer local_wall;
  const Timer& wall = wall_in ? *wall_in : local_wall;
  const index_t n = a.cols();
  const int ranks = plan.ranks();

  dist::DistResult<T> res;
  res.c = Matrix<T>::zeros(n, n);
  res.levels = plan.tree().depth;
  res.max_leaf_flops = plan.max_leaf_flops();
  res.rank_busy_seconds.assign(static_cast<std::size_t>(plan.key().p), 0.0);

  const bool is_float = std::is_same_v<T, float>;
  const std::size_t bound = plan.workspace_bound();
  MatrixView<T> c_view = res.c.view();
  dist::run_ranks(res, ranks, wall, is_float ? bound : 0, is_float ? 0 : bound,
                  [&](mpisim::RankCtx& ctx, runtime::TaskContext& tctx) {
                    rank_body(alpha, a, c_view, plan,
                              plan.rank_chains()[static_cast<std::size_t>(ctx.rank())], ctx,
                              tctx);
                  });
  return res;
}

#define ATALIB_API_EXECUTE_INST(T)                                                  \
  template void execute<T>(const AtaPlan&, T, ConstMatrixView<T>, MatrixView<T>,    \
                           runtime::ThreadPool*);                                   \
  template SharedProfile execute_profile<T>(const AtaPlan&, T, ConstMatrixView<T>,  \
                                            MatrixView<T>);                         \
  template dist::DistResult<T> execute_dist<T>(const AtaPlan&, T, const Matrix<T>&,  \
                                               const Timer*);                       \
  template void run_plan_task<T>(const AtaPlan&, int, T, ConstMatrixView<T>,        \
                                 MatrixView<T>, runtime::TaskContext&);             \
  template void check_shared<T>(const AtaPlan&, ConstMatrixView<T>, MatrixView<T>)
ATALIB_API_EXECUTE_INST(float);
ATALIB_API_EXECUTE_INST(double);
#undef ATALIB_API_EXECUTE_INST

}  // namespace atalib::api
