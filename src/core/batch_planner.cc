#include "core/batch_planner.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "core/collision.h"

namespace carp::core {

namespace {

std::vector<std::size_t> PriorityOrder(const std::vector<BatchQuery>& queries,
                                       BatchOrder order) {
  std::vector<std::size_t> indices(queries.size());
  std::iota(indices.begin(), indices.end(), 0);
  if (order != BatchOrder::kAsGiven) {
    std::stable_sort(
        indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
          const std::int64_t da = ManhattanDistance(queries[a].origin,
                                                    queries[a].destination);
          const std::int64_t db = ManhattanDistance(queries[b].origin,
                                                    queries[b].destination);
          return order == BatchOrder::kShortestFirst ? da < db : da > db;
        });
  }
  return indices;
}

BatchResult PlanBatchSerial(Planner& planner, TimeStep t,
                            const std::vector<BatchQuery>& queries,
                            const std::vector<std::size_t>& indices) {
  BatchResult result;
  result.routes.resize(queries.size());
  for (std::size_t idx : indices) {
    auto route =
        planner.PlanRoute(t, queries[idx].origin, queries[idx].destination);
    if (route.has_value()) {
      ++result.planned;
      result.makespan = std::max(result.makespan, route->finish_term());
      result.routes[idx] = std::move(route);
    } else {
      ++result.failed;
    }
  }
  return result;
}

// One QueryContext per pool worker; tasks pick theirs by worker index, so
// no scratch state is ever shared across threads.
std::vector<std::unique_ptr<Planner::QueryContext>> MakeContexts(
    Planner& planner, int workers) {
  std::vector<std::unique_ptr<Planner::QueryContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto context = planner.MakeQueryContext();
    CARP_CHECK(context != nullptr)
        << planner.name() << " claims speculation but returns no context";
    contexts.push_back(std::move(context));
  }
  return contexts;
}

BatchResult PlanBatchSpeculative(Planner& planner, TimeStep t,
                                 const std::vector<BatchQuery>& queries,
                                 const std::vector<std::size_t>& indices,
                                 ThreadPool& pool, std::size_t wave_size) {
  std::vector<std::unique_ptr<Planner::QueryContext>> contexts =
      MakeContexts(planner, pool.size());

  BatchResult result;
  result.routes.resize(queries.size());
  IncrementalConflictChecker committed;
  auto accept = [&](std::size_t idx, Route route) {
    committed.Add(route);
    ++result.planned;
    result.makespan = std::max(result.makespan, route.finish_term());
    result.routes[idx] = std::move(route);
  };

  // The batch is processed in priority-order *waves*. Validating every
  // speculative route against the whole batch would invalidate most of a
  // large contended batch (the k-th route must dodge k-1 snapshot-blind
  // peers); per wave it only has to survive the <= wave_size - 1 routes
  // speculated alongside it, and each new wave re-reads the committed
  // state the previous waves just produced.
  std::vector<std::optional<Route>> speculative(queries.size());
  for (std::size_t begin = 0; begin < indices.size(); begin += wave_size) {
    const std::size_t end = std::min(begin + wave_size, indices.size());

    // ---- Query phase: the wave's queries planned concurrently against the
    // frozen committed state (no commit runs while the pool is busy).
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t idx = indices[k];
      pool.Submit([&, idx] {
        const int w = ThreadPool::CurrentWorkerIndex();
        speculative[idx] =
            planner.QueryRoute(*contexts[static_cast<std::size_t>(w)], t,
                               queries[idx].origin, queries[idx].destination);
      });
    }
    pool.WaitIdle();

    // ---- Commit pass: sequential, in priority order. A speculative route
    // is valid exactly when it does not conflict with a route committed
    // before it in this wave — speculation already guaranteed freedom
    // against everything committed earlier. Invalidated (or speculatively
    // unroutable) queries re-plan serially against live state, exactly
    // like the serial loop.
    //
    // Planners with exact release run this pass as commit-then-validate:
    // each speculative route is committed *before* its validation, and a
    // loser retires through ReleaseRoute — the same lifecycle path the
    // simulator uses — leaving the planner exactly as if the route had
    // never committed, so the inline replan (and everything after it) is
    // bit-identical to the validate-then-commit order. Planners without
    // exact release (the grid reservation table cannot hold two
    // conflicting routes at once) commit only after validation.
    const bool exact_release = planner.SupportsExactRelease();
    committed.Clear();
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t idx = indices[k];
      std::optional<Route>& spec = speculative[idx];
      if (spec.has_value()) {
        ++result.speculated;
        if (exact_release) planner.CommitRoute(*spec);
        if (!committed.Conflicts(*spec)) {
          if (!exact_release) planner.CommitRoute(*spec);
          accept(idx, std::move(*spec));
          continue;
        }
        ++result.invalidated;
        if (exact_release) {
          const bool released = planner.ReleaseRoute(*spec);
          CARP_CHECK(released) << "speculative commit did not release";
        }
      }
      auto route =
          planner.PlanRoute(t, queries[idx].origin, queries[idx].destination);
      if (route.has_value()) {
        accept(idx, std::move(*route));
      } else {
        ++result.failed;
      }
    }
  }
  for (auto& context : contexts) planner.AbsorbQueryContext(*context);
  planner.NoteSpeculation(result.speculated, result.invalidated);
  return result;
}

/// The sharded concurrent-commit pipeline (DESIGN.md §2h). Same wave
/// structure and same serial accept/reject decisions as the speculative
/// path — what changes is *who executes the state mutation*: each accepted
/// route's commit is dispatched to the pool and runs under the planner's
/// fine-grained shard locks (CommitRouteSharded), so routes with disjoint
/// shard footprints commit in parallel.
///
/// Determinism: acceptance is validate-then-commit against the
/// IncrementalConflictChecker, which reads only the wave's previously
/// accepted routes — never planner state — so decisions are independent of
/// commit scheduling. Accepted routes' state insertions target disjoint
/// stores (disjoint footprints) or serialize on the shared shards, and the
/// multiset inserts commute, so the final stores are order-independent.
/// Everything order-*dependent* goes through the serial hooks:
/// BeginShardedCommit hands out tickets (e.g. stable route ids) in
/// priority order before dispatch, and NoteShardedCommitted appends to the
/// route log in priority order at each flush. A flush (pool barrier +
/// ordered log appends + OnShardedFlush) runs before any serial replan and
/// at wave end, so every PlanRoute and every next-wave query reads fully
/// committed state.
BatchResult PlanBatchSharded(Planner& planner, TimeStep t,
                             const std::vector<BatchQuery>& queries,
                             const std::vector<std::size_t>& indices,
                             ThreadPool& pool, std::size_t wave_size) {
  std::vector<std::unique_ptr<Planner::QueryContext>> contexts =
      MakeContexts(planner, pool.size());

  const ShardLockSet::Stats before = planner.ShardLockStats();

  BatchResult result;
  result.routes.resize(queries.size());
  IncrementalConflictChecker committed;
  auto accept = [&](std::size_t idx, Route route) {
    committed.Add(route);
    ++result.planned;
    result.makespan = std::max(result.makespan, route.finish_term());
    result.routes[idx] = std::move(route);
  };

  // Concurrent commits dispatched but not yet logged. The Route pointers
  // alias result.routes (pre-sized, never reallocated mid-batch), so they
  // stay valid across the pool tasks.
  struct PendingCommit {
    const Route* route;
    std::uint64_t ticket;
  };
  std::vector<PendingCommit> pending;
  auto flush = [&] {
    if (pending.empty()) return;
    pool.WaitIdle();
    for (const PendingCommit& p : pending) {
      planner.NoteShardedCommitted(*p.route, p.ticket);
    }
    pending.clear();
    planner.OnShardedFlush();
  };

  std::vector<std::optional<Route>> speculative(queries.size());
  for (std::size_t begin = 0; begin < indices.size(); begin += wave_size) {
    const std::size_t end = std::min(begin + wave_size, indices.size());

    // ---- Query phase: identical to the nonsharded path; the wave-end
    // flush below guarantees the committed state these queries read is
    // complete and quiescent.
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t idx = indices[k];
      pool.Submit([&, idx] {
        const int w = ThreadPool::CurrentWorkerIndex();
        speculative[idx] =
            planner.QueryRoute(*contexts[static_cast<std::size_t>(w)], t,
                               queries[idx].origin, queries[idx].destination);
      });
    }
    pool.WaitIdle();

    // ---- Commit pass: decisions serial in priority order; accepted
    // routes' state mutations run concurrently on the pool. Losers are
    // never committed (validate-then-commit) — with serial decisions there
    // is no need for the exact-release commit-then-validate dance, and the
    // committed set is the same either way.
    committed.Clear();
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t idx = indices[k];
      std::optional<Route>& spec = speculative[idx];
      if (spec.has_value()) {
        ++result.speculated;
        if (!committed.Conflicts(*spec)) {
          const std::uint64_t ticket = planner.BeginShardedCommit(*spec);
          accept(idx, std::move(*spec));
          const Route& route = *result.routes[idx];
          pool.Submit(
              [&planner, &route, ticket] {
                planner.CommitRouteSharded(route, ticket);
              });
          pending.push_back(PendingCommit{&route, ticket});
          continue;
        }
        ++result.invalidated;
      }
      // Serial replan reads live planner state: drain the in-flight
      // commits (and log them, so the planner's internal bookkeeping is
      // exactly the serial path's) before calling into PlanRoute.
      flush();
      auto route =
          planner.PlanRoute(t, queries[idx].origin, queries[idx].destination);
      if (route.has_value()) {
        accept(idx, std::move(*route));
      } else {
        ++result.failed;
      }
    }
    flush();
  }
  for (auto& context : contexts) planner.AbsorbQueryContext(*context);
  planner.NoteSpeculation(result.speculated, result.invalidated);

  const ShardLockSet::Stats after = planner.ShardLockStats();
  result.shard_commits = after.commits - before.commits;
  result.shard_contentions = after.contentions - before.contentions;
  result.shard_retries = after.retries - before.retries;
  return result;
}

}  // namespace

const char* ToString(BatchOrder order) {
  switch (order) {
    case BatchOrder::kAsGiven:
      return "as-given";
    case BatchOrder::kShortestFirst:
      return "shortest-first";
    case BatchOrder::kLongestFirst:
      return "longest-first";
  }
  return "?";
}

BatchResult PlanBatch(Planner& planner, TimeStep t,
                      const std::vector<BatchQuery>& queries,
                      BatchOrder order) {
  BatchPlanOptions options;
  options.order = order;
  return PlanBatch(planner, t, queries, options);
}

BatchResult PlanBatch(Planner& planner, TimeStep t,
                      const std::vector<BatchQuery>& queries,
                      const BatchPlanOptions& options) {
  const std::vector<std::size_t> indices =
      PriorityOrder(queries, options.order);
  const bool parallel = options.threads > 1 &&
                        planner.SupportsSpeculation() && queries.size() > 1;
  if (!parallel) {
    return PlanBatchSerial(planner, t, queries, indices);
  }
  ThreadPool* pool = options.pool;
  std::optional<ThreadPool> transient;
  if (pool == nullptr) {
    transient.emplace(options.threads);
    pool = &*transient;
  }
  const std::size_t wave_size =
      options.wave_size > 0
          ? static_cast<std::size_t>(options.wave_size)
          : std::max<std::size_t>(
                16, 4 * static_cast<std::size_t>(pool->size()));
  if (options.sharded_commit && planner.SupportsShardedCommit()) {
    return PlanBatchSharded(planner, t, queries, indices, *pool, wave_size);
  }
  return PlanBatchSpeculative(planner, t, queries, indices, *pool, wave_size);
}

}  // namespace carp::core
