#include "srp/intra_strip_planner.h"

#include <algorithm>
#include <unordered_set>

namespace carp::srp {

namespace {

using geometry::Segment;
using geometry::SpaceTimePoint;

class BacktrackingSearch {
 public:
  BacktrackingSearch(const SegmentStore& store,
                     const IntraPlanOptions& options, std::int64_t to_pos)
      : store_(store), options_(options), to_(to_pos) {}

  bool Run(TimeStep t, std::int64_t pos, std::vector<Segment>& segments) {
    return Search(t, pos, 0, segments);
  }

  static std::uint64_t StateKey(TimeStep t, std::int64_t pos) {
    return (static_cast<std::uint64_t>(t) << 20) ^
           static_cast<std::uint64_t>(pos);
  }

  std::int64_t probes() const { return probes_; }

 private:
  TimeStep Query(const Segment& candidate) {
    ++probes_;
    return store_.EarliestCollisionTime(candidate);
  }

  bool BudgetExceeded() const { return probes_ > options_.max_probes; }

  // Tries to reach to_ from (t, pos). Appends the chosen segments on
  // success; leaves `segments` unchanged on failure.
  //
  // Failed (t, pos) states are memoized: whether the target is reachable
  // from a state depends only on the state itself (the store is fixed
  // during one call), so re-entering a failed state through a different
  // wait pattern cannot succeed. This prunes the exponential backtracking
  // tree of Alg. 2 to one visit per state. (States abandoned purely on
  // depth/probe budget are memoized too — conservative; the inter-strip
  // level routes around, or the A* fallback catches the query.)
  bool Search(TimeStep t, std::int64_t pos, std::int32_t depth,
              std::vector<Segment>& segments) {
    if (failed_.contains(StateKey(t, pos))) return false;
    if (pos == to_) {
      // Already at target: record the point occupancy if nothing else will
      // (the caller needs the arrival instant represented).
      if (segments.empty()) {
        segments.push_back(Segment({t, pos}, {t, pos}));
      }
      return true;
    }
    if (depth > options_.max_stops || BudgetExceeded()) return false;

    const std::int64_t dir = to_ > pos ? 1 : -1;
    const std::int64_t dist = dir * (to_ - pos);

    // Greedy move all the way (Alg. 2 lines 8-12).
    const Segment direct({t, pos}, {t + dist, to_});
    const TimeStep c = Query(direct);
    if (c == kInfiniteTime) {
      segments.push_back(direct);
      return true;
    }

    // Collision at time c: the prefix strictly before c is collision-free.
    // Try stopping right before the collision and waiting (lines 13-21);
    // if waiting there dead-ends, back off to earlier stop positions ("we
    // return to the previous step, wait one time unit and try to move
    // again", Sec. V-C).
    const std::int64_t max_steps =
        std::max<std::int64_t>(0, std::min<TimeStep>(c - 1 - t, dist));
    for (std::int64_t steps = max_steps; steps >= 0; --steps) {
      if (BudgetExceeded()) return false;
      const std::int64_t stop_pos = pos + dir * steps;
      const std::size_t mark = segments.size();
      if (steps > 0) {
        segments.push_back(Segment({t, pos}, {t + steps, stop_pos}));
      }
      const TimeStep stop_t = t + steps;
      // Longest collision-free wait at the stop position; waits beyond the
      // first conflicting instant can never succeed.
      const TimeStep wait_conflict = Query(
          Segment({stop_t, stop_pos}, {stop_t + options_.max_wait, stop_pos}));
      const TimeStep max_wait =
          wait_conflict == kInfiniteTime
              ? options_.max_wait
              : std::min<TimeStep>(options_.max_wait,
                                   wait_conflict - stop_t - 1);
      for (TimeStep w = 1; w <= max_wait; ++w) {
        if (BudgetExceeded()) break;
        segments.push_back(
            Segment({stop_t, stop_pos}, {stop_t + w, stop_pos}));
        if (Search(stop_t + w, stop_pos, depth + 1, segments)) return true;
        segments.pop_back();
      }
      segments.resize(mark);
    }
    failed_.insert(StateKey(t, pos));
    return false;
  }

  const SegmentStore& store_;
  const IntraPlanOptions& options_;
  const std::int64_t to_;
  std::int64_t probes_ = 0;
  std::unordered_set<std::uint64_t> failed_;
};

}  // namespace

std::optional<IntraPlan> PlanWithinStrip(const SegmentStore& store,
                                         TimeStep start,
                                         std::int64_t from_pos,
                                         std::int64_t to_pos,
                                         const IntraPlanOptions& options) {
  IntraPlan plan;
  if (from_pos == to_pos) {
    // Already at the target position: the occupancy point is the caller's
    // legally-held state, no collision query needed.
    plan.segments.push_back(Segment({start, from_pos}, {start, from_pos}));
    plan.arrival = start;
    return plan;
  }

  // Fast path: the unobstructed greedy move (the overwhelmingly common
  // case) needs exactly one collision query and no search machinery.
  const std::int64_t dist =
      to_pos > from_pos ? to_pos - from_pos : from_pos - to_pos;
  const Segment direct({start, from_pos}, {start + dist, to_pos});
  if (store.EarliestCollisionTime(direct) == kInfiniteTime) {
    plan.segments.push_back(direct);
    plan.arrival = direct.finish().t;
    plan.probes = 1;
    return plan;
  }

  BacktrackingSearch search(store, options, to_pos);
  if (!search.Run(start, from_pos, plan.segments)) return std::nullopt;
  plan.arrival = plan.segments.back().finish().t;
  plan.probes = search.probes() + 1;
  return plan;
}

}  // namespace carp::srp
