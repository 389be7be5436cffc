#ifndef CARP_PERFBENCH_PROBE_PLANNER_H_
#define CARP_PERFBENCH_PROBE_PLANNER_H_

// A forwarding core::Planner that sits between a caller (the simulator or
// the planner service) and the planner under test. It changes no answer:
// every call goes straight to the wrapped planner. Around each call it
//   * times PlanRoute in wall and in thread CPU time (the simulator's
//     per-query latency samples),
//   * keeps every route PlanRoute returned together with its query, so the
//     benchmark can check the run's output with its own code (retirement
//     releases planner state, never this record),
//   * with tracing on, records one span per call and, per query, whether
//     the call escalated to the A* fallback (the stats() read that tells is
//     itself a "*.read_stats" span, so layer self times exclude it),
//   * optionally samples the wrapped planner's RetainedBytes() between
//     waves (see SampleRetainedEvery), timing the reads so the caller can
//     leave them out of its pass time.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/planner.h"
#include "trace.h"

namespace carp::perfbench {

/// One query as the planner received it, and the route it returned.
struct PlannedQuery {
  TimeStep emergence = 0;
  GridCoord origin;
  GridCoord destination;
  core::Route route;
};

/// Static span names of one planner (prefix "srp." or "sap.").
struct ProbeNames {
  const char* plan;
  const char* query;
  const char* commit;
  const char* commit_sharded;
  const char* release;
  const char* prune;
  const char* prefetch;
  const char* read_stats;  // the traced run's per-call stats() read
};

class ProbePlanner final : public core::Planner {
 public:
  /// `keep_routes` records every PlanRoute answer for the output check.
  ProbePlanner(core::Planner& inner, Tracer& tracer, const ProbeNames& names,
               bool keep_routes);

  std::optional<core::Route> PlanRoute(TimeStep now, GridCoord origin,
                                       GridCoord destination) override;
  bool SupportsSpeculation() const override {
    return inner_.SupportsSpeculation();
  }
  std::unique_ptr<QueryContext> MakeQueryContext() const override {
    return inner_.MakeQueryContext();
  }
  std::optional<core::Route> QueryRoute(QueryContext& context, TimeStep now,
                                        GridCoord origin,
                                        GridCoord destination) const override;
  void CommitRoute(const core::Route& route) override;
  bool ReleaseRoute(const core::Route& route) override;
  std::size_t PruneBefore(TimeStep t) override;
  bool SupportsShardedCommit() const override {
    return inner_.SupportsShardedCommit();
  }
  std::size_t CommitShardCount() const override {
    return inner_.CommitShardCount();
  }
  void ComputeShardFootprint(const core::Route& route,
                             std::vector<std::uint32_t>& out) const override {
    inner_.ComputeShardFootprint(route, out);
  }
  std::uint64_t BeginShardedCommit(const core::Route& route) override {
    return inner_.BeginShardedCommit(route);
  }
  void CommitRouteSharded(const core::Route& route,
                          std::uint64_t ticket) override;
  void NoteShardedCommitted(const core::Route& route,
                            std::uint64_t ticket) override {
    ++commits_;
    inner_.NoteShardedCommitted(route, ticket);
  }
  void OnShardedFlush() override { inner_.OnShardedFlush(); }
  std::int64_t RouteCost(const core::Route& route) const override {
    return inner_.RouteCost(route);
  }
  std::uint64_t StateFingerprint() const override {
    return inner_.StateFingerprint();
  }
  bool SupportsExactRelease() const override {
    return inner_.SupportsExactRelease();
  }
  void AbsorbQueryContext(QueryContext& context) override {
    inner_.AbsorbQueryContext(context);
  }
  void PrefetchHeuristic(GridCoord destination,
                         ThreadPool* pool) const override;
  std::string_view name() const override { return inner_.name(); }
  void Reset() override { inner_.Reset(); }
  std::size_t RetainedBytes() const override { return inner_.RetainedBytes(); }

  /// The wrapped planner's counters, plus the speculation outcome the batch
  /// pipeline reports through the (non-virtual) NoteSpeculation.
  const core::PlannerStats& stats() const override;

  /// PlanRoute wall time of every call, in microseconds.
  const std::vector<double>& plan_latency_us() const { return latency_us_; }
  /// CPU time of the calling thread over the same calls, in microseconds.
  const std::vector<double>& plan_cpu_us() const { return cpu_us_; }

  /// Every route PlanRoute returned, with its query (keep_routes only).
  const std::vector<PlannedQuery>& planned() const { return planned_; }

  /// Routes committed outside PlanRoute (the batch pipelines). The
  /// simulator's serial loop never does; the service does.
  std::int64_t batch_commits() const { return commits_; }

  /// PlanRoute calls that returned no route.
  std::int64_t failed() const { return failed_; }

  /// Reads RetainedBytes() once `every` routes have been committed since
  /// the last read, at the next ReleaseRoute or PruneBefore call. Those
  /// are the lifecycle calls a retiring caller makes between waves, so a
  /// read never lands inside a wave's latency, and it sees the live set
  /// just before it shrinks. 0 (the default) never reads.
  void SampleRetainedEvery(std::int64_t every) { sample_every_ = every; }

  /// Largest RetainedBytes() read, and the wall time spent reading.
  std::size_t peak_retained() const { return peak_retained_; }
  double sample_seconds() const {
    return static_cast<double>(sample_ns_) * 1e-9;
  }

  /// Traced runs only: summed wall time of the PlanRoute / QueryRoute
  /// calls during which the planner's fallback counter advanced.
  double fallback_seconds() const {
    return static_cast<double>(fallback_ns_.load()) * 1e-9;
  }

 private:
  core::Planner& inner_;
  Tracer& tracer_;
  ProbeNames names_;
  bool keep_routes_;
  std::vector<double> latency_us_;
  std::vector<double> cpu_us_;
  std::vector<PlannedQuery> planned_;
  void MaybeSampleRetained();

  std::int64_t commits_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t sample_every_ = 0;
  std::int64_t since_sample_ = 0;  // routes committed since the last read
  std::size_t peak_retained_ = 0;
  std::int64_t sample_ns_ = 0;
  std::int64_t last_fallbacks_ = 0;
  // Written by worker threads during a batch; read once the batch is over.
  mutable std::atomic<std::int64_t> fallback_ns_{0};
  mutable core::PlannerStats stats_view_;
};

}  // namespace carp::perfbench

#endif  // CARP_PERFBENCH_PROBE_PLANNER_H_
