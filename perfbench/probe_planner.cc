#include "probe_planner.h"

#include <algorithm>
#include <utility>

namespace carp::perfbench {

ProbePlanner::ProbePlanner(core::Planner& inner, Tracer& tracer,
                           const ProbeNames& names, bool keep_routes)
    : inner_(inner),
      tracer_(tracer),
      names_(names),
      keep_routes_(keep_routes) {}

std::optional<core::Route> ProbePlanner::PlanRoute(TimeStep now,
                                                   GridCoord origin,
                                                   GridCoord destination) {
  const std::int64_t cpu_start = ThreadCpuNs();
  const std::int64_t start = NowNs();
  auto route = inner_.PlanRoute(now, origin, destination);
  const std::int64_t end = NowNs();
  cpu_us_.push_back(static_cast<double>(ThreadCpuNs() - cpu_start) * 1e-3);
  latency_us_.push_back(static_cast<double>(end - start) * 1e-3);
  if (tracer_.enabled()) {
    tracer_.Leaf(names_.plan, start, end);
    // Reading SRP's stats() walks every segment store, which is why only
    // the traced run attributes fallbacks per call.
    const std::int64_t fallbacks = inner_.stats().fallbacks;
    tracer_.Leaf(names_.read_stats, end, NowNs());
    if (fallbacks != last_fallbacks_) fallback_ns_ += end - start;
    last_fallbacks_ = fallbacks;
  }
  if (!route.has_value()) {
    ++failed_;
    return route;
  }
  ++since_sample_;
  if (keep_routes_) {
    planned_.push_back(PlannedQuery{now, origin, destination, *route});
  }
  return route;
}

std::optional<core::Route> ProbePlanner::QueryRoute(
    QueryContext& context, TimeStep now, GridCoord origin,
    GridCoord destination) const {
  if (!tracer_.enabled()) {
    return inner_.QueryRoute(context, now, origin, destination);
  }
  const std::int64_t fallbacks = context.stats.fallbacks;
  const std::int64_t start = NowNs();
  auto route = inner_.QueryRoute(context, now, origin, destination);
  const std::int64_t end = NowNs();
  tracer_.Leaf(names_.query, start, end);
  if (context.stats.fallbacks != fallbacks) fallback_ns_ += end - start;
  return route;
}

void ProbePlanner::CommitRoute(const core::Route& route) {
  ++commits_;
  ++since_sample_;
  if (!tracer_.enabled()) {
    inner_.CommitRoute(route);
    return;
  }
  const std::int64_t start = NowNs();
  inner_.CommitRoute(route);
  const std::int64_t end = NowNs();
  tracer_.Leaf(names_.commit, start, end);
}

void ProbePlanner::CommitRouteSharded(const core::Route& route,
                                      std::uint64_t ticket) {
  if (!tracer_.enabled()) {
    inner_.CommitRouteSharded(route, ticket);
    return;
  }
  const std::int64_t start = NowNs();
  inner_.CommitRouteSharded(route, ticket);
  const std::int64_t end = NowNs();
  tracer_.Leaf(names_.commit_sharded, start, end);
}

void ProbePlanner::MaybeSampleRetained() {
  if (sample_every_ <= 0 || since_sample_ < sample_every_) return;
  const std::int64_t start = NowNs();
  peak_retained_ = std::max(peak_retained_, inner_.RetainedBytes());
  sample_ns_ += NowNs() - start;
  since_sample_ = 0;
}

bool ProbePlanner::ReleaseRoute(const core::Route& route) {
  MaybeSampleRetained();
  if (!tracer_.enabled()) return inner_.ReleaseRoute(route);
  const std::int64_t start = NowNs();
  const bool released = inner_.ReleaseRoute(route);
  const std::int64_t end = NowNs();
  tracer_.Leaf(names_.release, start, end);
  return released;
}

std::size_t ProbePlanner::PruneBefore(TimeStep t) {
  MaybeSampleRetained();
  if (!tracer_.enabled()) return inner_.PruneBefore(t);
  const std::int64_t start = NowNs();
  const std::size_t dropped = inner_.PruneBefore(t);
  const std::int64_t end = NowNs();
  tracer_.Leaf(names_.prune, start, end);
  return dropped;
}

void ProbePlanner::PrefetchHeuristic(GridCoord destination,
                                     ThreadPool* pool) const {
  if (!tracer_.enabled()) {
    inner_.PrefetchHeuristic(destination, pool);
    return;
  }
  const std::int64_t start = NowNs();
  inner_.PrefetchHeuristic(destination, pool);
  tracer_.Leaf(names_.prefetch, start, NowNs());
}

const core::PlannerStats& ProbePlanner::stats() const {
  stats_view_ = inner_.stats();
  stats_view_.speculative_routes += stats_.speculative_routes;
  stats_view_.speculative_invalidated += stats_.speculative_invalidated;
  return stats_view_;
}

}  // namespace carp::perfbench
