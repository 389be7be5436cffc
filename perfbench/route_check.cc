#include "route_check.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace carp::perfbench {

namespace {

void Note(CheckReport& report, ViolationKind kind, const std::string& what) {
  if (report.count(kind) == 0 && report.first_violation.empty()) {
    report.first_violation = std::string(ToString(kind)) + ": " + what;
  }
  ++report.violations[static_cast<int>(kind)];
}

std::string Describe(std::size_t index, const PlannedQuery& q) {
  std::ostringstream os;
  os << "route " << index << " for query t=" << q.emergence << " ("
     << q.origin.row << "," << q.origin.col << ")->(" << q.destination.row
     << "," << q.destination.col << ") starting at " << q.route.start_time();
  return os.str();
}

}  // namespace

const char* ToString(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kEmpty:
      return "empty-route";
    case ViolationKind::kWrongOrigin:
      return "wrong-origin";
    case ViolationKind::kEarlyStart:
      return "starts-before-emergence";
    case ViolationKind::kWrongDestination:
      return "wrong-destination";
    case ViolationKind::kNotTraversable:
      return "cell-not-traversable";
    case ViolationKind::kTeleport:
      return "teleporting-step";
    case ViolationKind::kShorterThanStatic:
      return "shorter-than-static-distance";
    case ViolationKind::kUnreachable:
      return "destination-unreachable";
    case ViolationKind::kVertexConflict:
      return "vertex-conflict";
    case ViolationKind::kSwapConflict:
      return "swap-conflict";
    case ViolationKind::kCount:
      break;
  }
  return "?";
}

bool CheckReport::ok() const {
  for (std::int64_t v : violations) {
    if (v != 0) return false;
  }
  return true;
}

StaticDistances::StaticDistances(const core::WarehouseMatrix& matrix)
    : matrix_(matrix),
      dist_(static_cast<std::size_t>(matrix.CellCount()), 0),
      stamp_(static_cast<std::size_t>(matrix.CellCount()), 0) {}

std::uint64_t StaticDistances::Key(GridCoord origin,
                                   GridCoord destination) const {
  return static_cast<std::uint64_t>(matrix_.Index(origin)) *
             static_cast<std::uint64_t>(matrix_.CellCount()) +
         static_cast<std::uint64_t>(matrix_.Index(destination));
}

void StaticDistances::Ensure(
    const std::vector<std::pair<GridCoord, GridCoord>>& pairs) {
  // Moves are symmetric, so a pair's distance can be searched from either
  // end. Missing pairs are grouped under whichever endpoint more pairs
  // share (a picker station serves every route to or from it): one search
  // per group, stopped as soon as every cell that needs it is settled.
  std::vector<std::pair<std::int64_t, std::int64_t>> missing;
  std::unordered_map<std::int64_t, std::int64_t> uses;
  for (const auto& [origin, destination] : pairs) {
    if (!matrix_.IsTraversable(origin) ||
        !matrix_.IsTraversable(destination)) {
      continue;
    }
    if (cache_.count(Key(origin, destination)) != 0) continue;
    missing.emplace_back(matrix_.Index(origin), matrix_.Index(destination));
    ++uses[missing.back().first];
    ++uses[missing.back().second];
  }
  std::map<std::int64_t, std::vector<std::int64_t>> wanted;
  for (const auto& [origin, destination] : missing) {
    if (uses[origin] > uses[destination]) {
      wanted[origin].push_back(destination);
    } else {
      wanted[destination].push_back(origin);
    }
  }
  std::vector<std::int64_t> frontier, next;
  const std::uint64_t cells = static_cast<std::uint64_t>(matrix_.CellCount());
  for (auto& [source, targets] : wanted) {
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    std::size_t remaining = targets.size();
    auto visit = [&](std::int64_t cell, std::int32_t d) {
      stamp_[static_cast<std::size_t>(cell)] = epoch_;
      dist_[static_cast<std::size_t>(cell)] = d;
      if (std::binary_search(targets.begin(), targets.end(), cell)) {
        --remaining;
      }
    };
    frontier.clear();
    frontier.push_back(source);
    visit(source, 0);
    std::int32_t depth = 0;
    GridCoord nbr[4];
    while (!frontier.empty() && remaining > 0) {
      ++depth;
      next.clear();
      for (std::int64_t cell : frontier) {
        const int n = matrix_.Neighbors(matrix_.CoordOf(cell), nbr);
        for (int k = 0; k < n; ++k) {
          if (!matrix_.IsTraversable(nbr[k])) continue;
          const std::int64_t idx = matrix_.Index(nbr[k]);
          if (stamp_[static_cast<std::size_t>(idx)] == epoch_) continue;
          visit(idx, depth);
          next.push_back(idx);
        }
      }
      frontier.swap(next);
    }
    for (std::int64_t target : targets) {
      const bool seen = stamp_[static_cast<std::size_t>(target)] == epoch_;
      const std::int64_t d =
          seen ? dist_[static_cast<std::size_t>(target)] : -1;
      const auto a = static_cast<std::uint64_t>(target);
      const auto b = static_cast<std::uint64_t>(source);
      cache_[a * cells + b] = d;
      cache_[b * cells + a] = d;
    }
  }
}

std::int64_t StaticDistances::Get(GridCoord origin,
                                  GridCoord destination) const {
  if (!matrix_.IsTraversable(origin) || !matrix_.IsTraversable(destination)) {
    return -1;
  }
  auto it = cache_.find(Key(origin, destination));
  return it == cache_.end() ? -1 : it->second;
}

CheckReport CheckRoutes(const core::WarehouseMatrix& matrix,
                        const std::vector<PlannedQuery>& planned,
                        StaticDistances& distances) {
  CheckReport report;
  report.routes = static_cast<std::int64_t>(planned.size());

  std::vector<std::pair<GridCoord, GridCoord>> pairs;
  pairs.reserve(planned.size());
  for (const PlannedQuery& q : planned) {
    pairs.emplace_back(q.origin, q.destination);
  }
  distances.Ensure(pairs);

  const std::uint64_t cells = static_cast<std::uint64_t>(matrix.CellCount());
  // (timestep, cell) occupancies and (timestep, edge) traversals of every
  // route; sorted below so conflicts are adjacent entries.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> occupancy;
  struct Move {
    std::uint64_t key;  // (t, min cell, max cell)
    std::uint32_t route;
    bool forward;  // moves from the smaller cell index to the larger
  };
  std::vector<Move> moves;
  std::size_t route_cells = 0;
  for (const PlannedQuery& q : planned) route_cells += q.route.cells().size();
  occupancy.reserve(route_cells);
  moves.reserve(route_cells);

  for (std::size_t i = 0; i < planned.size(); ++i) {
    const PlannedQuery& q = planned[i];
    const auto& path = q.route.cells();
    if (path.empty()) {
      Note(report, ViolationKind::kEmpty, Describe(i, q));
      continue;
    }
    const std::int64_t steps = static_cast<std::int64_t>(path.size()) - 1;
    report.route_steps += steps;
    report.makespan = std::max<TimeStep>(
        report.makespan,
        q.route.start_time() + static_cast<TimeStep>(path.size()));
    if (path.front() != q.origin) {
      Note(report, ViolationKind::kWrongOrigin, Describe(i, q));
    }
    if (q.route.start_time() < q.emergence) {
      Note(report, ViolationKind::kEarlyStart, Describe(i, q));
    }
    if (path.back() != q.destination) {
      Note(report, ViolationKind::kWrongDestination, Describe(i, q));
    }
    const std::int64_t static_distance = distances.Get(q.origin, q.destination);
    if (static_distance < 0) {
      Note(report, ViolationKind::kUnreachable, Describe(i, q));
    } else if (steps < static_distance) {
      Note(report, ViolationKind::kShorterThanStatic,
           Describe(i, q) + ": " + std::to_string(steps) + " steps < " +
               std::to_string(static_distance));
    }
    bool placed = true;
    for (std::size_t k = 0; k < path.size(); ++k) {
      if (!matrix.IsTraversable(path[k])) {
        Note(report, ViolationKind::kNotTraversable,
             Describe(i, q) + " at step " + std::to_string(k));
        placed = false;
        continue;
      }
      if (k > 0) {
        const std::int64_t jump = std::abs(path[k].row - path[k - 1].row) +
                                  std::abs(path[k].col - path[k - 1].col);
        if (jump > 1) {
          Note(report, ViolationKind::kTeleport,
               Describe(i, q) + " at step " + std::to_string(k));
        }
      }
    }
    if (!placed || q.route.start_time() < 0) continue;
    for (std::size_t k = 0; k < path.size(); ++k) {
      const std::uint64_t t =
          static_cast<std::uint64_t>(q.route.start_time()) + k;
      const std::uint64_t here =
          static_cast<std::uint64_t>(matrix.Index(path[k]));
      occupancy.emplace_back(t * cells + here, static_cast<std::uint32_t>(i));
      if (k + 1 < path.size() && path[k + 1] != path[k]) {
        const std::uint64_t there =
            static_cast<std::uint64_t>(matrix.Index(path[k + 1]));
        const std::uint64_t lo = std::min(here, there);
        const std::uint64_t hi = std::max(here, there);
        moves.push_back(Move{(t * cells + lo) * cells + hi,
                             static_cast<std::uint32_t>(i), here < there});
      }
    }
  }

  std::sort(occupancy.begin(), occupancy.end());
  for (std::size_t k = 1; k < occupancy.size(); ++k) {
    if (occupancy[k].first == occupancy[k - 1].first) {
      const std::uint64_t t = occupancy[k].first / cells;
      const GridCoord cell =
          matrix.CoordOf(static_cast<std::int64_t>(occupancy[k].first % cells));
      Note(report, ViolationKind::kVertexConflict,
           "routes " + std::to_string(occupancy[k - 1].second) + " and " +
               std::to_string(occupancy[k].second) + " at t=" +
               std::to_string(t) + " cell (" + std::to_string(cell.row) +
               "," + std::to_string(cell.col) + ")");
    }
  }
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    return std::tie(a.key, a.forward, a.route) <
           std::tie(b.key, b.forward, b.route);
  });
  for (std::size_t k = 0; k < moves.size();) {
    std::size_t end = k;
    bool forward = false, backward = false;
    std::uint32_t a = 0, b = 0;
    while (end < moves.size() && moves[end].key == moves[k].key) {
      if (moves[end].forward) {
        forward = true;
        a = moves[end].route;
      } else {
        backward = true;
        b = moves[end].route;
      }
      ++end;
    }
    if (forward && backward) {
      Note(report, ViolationKind::kSwapConflict,
           "routes " + std::to_string(a) + " and " + std::to_string(b) +
               " at t=" + std::to_string(moves[k].key / cells / cells));
    }
    k = end;
  }
  return report;
}

std::string MatchArchive(const std::vector<PlannedQuery>& queries,
                         const std::vector<core::Route>& archive,
                         std::vector<PlannedQuery>& out,
                         std::int64_t& unanswered) {
  out.clear();
  unanswered = 0;
  using Pair = std::pair<GridCoord, GridCoord>;
  std::map<Pair, std::vector<const PlannedQuery*>> by_query;
  std::map<Pair, std::vector<const core::Route*>> by_route;
  for (const PlannedQuery& q : queries) {
    by_query[{q.origin, q.destination}].push_back(&q);
  }
  for (const core::Route& r : archive) {
    if (r.empty()) return "archive holds an empty route";
    by_route[{r.origin(), r.destination()}].push_back(&r);
  }
  for (auto& [pair, rs] : by_route) {
    auto it = by_query.find(pair);
    const std::size_t asked = it == by_query.end() ? 0 : it->second.size();
    if (rs.size() > asked) {
      return "pair (" + std::to_string(pair.first.row) + "," +
             std::to_string(pair.first.col) + ")->(" +
             std::to_string(pair.second.row) + "," +
             std::to_string(pair.second.col) + ") has " +
             std::to_string(rs.size()) + " routes but " +
             std::to_string(asked) + " queries";
    }
  }
  for (auto& [pair, qs] : by_query) {
    auto it = by_route.find(pair);
    if (it == by_route.end()) {
      unanswered += static_cast<std::int64_t>(qs.size());
      continue;
    }
    auto& rs = it->second;
    // Route k (by start time) takes the k-th query by emergence: every
    // query an earlier route could take, a later one could take too, so
    // this pairing fails only when no pairing exists.
    std::sort(qs.begin(), qs.end(),
              [](const PlannedQuery* a, const PlannedQuery* b) {
                return a->emergence < b->emergence;
              });
    std::sort(rs.begin(), rs.end(),
              [](const core::Route* a, const core::Route* b) {
                return a->start_time() < b->start_time();
              });
    for (std::size_t k = 0; k < rs.size(); ++k) {
      out.push_back(PlannedQuery{qs[k]->emergence, qs[k]->origin,
                                 qs[k]->destination, *rs[k]});
    }
    unanswered += static_cast<std::int64_t>(qs.size() - rs.size());
  }
  return "";
}

namespace {

// 4 x 5 grid with a two-cell wall at column 1.
const char* kSelfTestMap =
    ".....\n"
    ".#...\n"
    ".#...\n"
    ".....\n";

PlannedQuery Q(TimeStep emergence, GridCoord o, GridCoord d, TimeStep start,
               std::vector<GridCoord> cells) {
  return PlannedQuery{emergence, o, d, core::Route(start, std::move(cells))};
}

std::set<ViolationKind> KindsOf(const CheckReport& report) {
  std::set<ViolationKind> kinds;
  for (int k = 0; k < static_cast<int>(ViolationKind::kCount); ++k) {
    if (report.violations[k] != 0) kinds.insert(static_cast<ViolationKind>(k));
  }
  return kinds;
}

}  // namespace

std::string SelfTest() {
  const core::WarehouseMatrix matrix =
      core::WarehouseMatrix::FromAscii(kSelfTestMap);
  StaticDistances distances(matrix);
  const std::vector<PlannedQuery> clean = {
      Q(0, {0, 0}, {0, 2}, 0, {{0, 0}, {0, 1}, {0, 2}}),
      Q(0, {3, 0}, {3, 2}, 0, {{3, 0}, {3, 1}, {3, 2}}),
  };
  {
    const CheckReport report = CheckRoutes(matrix, clean, distances);
    if (!report.ok()) {
      return "clean route set rejected: " + report.first_violation;
    }
    if (report.route_steps != 4 || report.makespan != 3) {
      return "clean route set totals wrong";
    }
  }
  struct Fault {
    const char* name;
    PlannedQuery route;
    std::set<ViolationKind> expected;
  };
  const std::vector<Fault> faults = {
      // Reaches (0,2) at t=2, where the first clean route already is.
      {"vertex conflict", Q(0, {0, 4}, {0, 2}, 0, {{0, 4}, {0, 3}, {0, 2}}),
       {ViolationKind::kVertexConflict}},
      // Crosses the first clean route on edge (0,1)-(0,2) between t=1, 2.
      {"swap conflict", Q(1, {0, 2}, {0, 1}, 1, {{0, 2}, {0, 1}}),
       {ViolationKind::kSwapConflict}},
      // Waits twice, then jumps two cells: long enough, but not a move.
      {"teleporting step",
       Q(0, {3, 4}, {3, 2}, 0, {{3, 4}, {3, 4}, {3, 4}, {3, 2}}),
       {ViolationKind::kTeleport}},
      // Jumps over the wall: one step where the static distance is four.
      {"shorter than static distance",
       Q(5, {2, 0}, {2, 2}, 5, {{2, 0}, {2, 2}}),
       {ViolationKind::kTeleport, ViolationKind::kShorterThanStatic}},
      {"wrong destination",
       Q(10, {0, 0}, {0, 4}, 10, {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 3}}),
       {ViolationKind::kWrongDestination}},
      {"start before emergence",
       Q(20, {0, 0}, {0, 1}, 19, {{0, 0}, {0, 1}}),
       {ViolationKind::kEarlyStart}},
      {"through a rack",
       Q(30, {0, 1}, {3, 1}, 30, {{0, 1}, {1, 1}, {2, 1}, {3, 1}}),
       {ViolationKind::kNotTraversable, ViolationKind::kShorterThanStatic}},
  };
  for (const Fault& fault : faults) {
    std::vector<PlannedQuery> routes = clean;
    routes.push_back(fault.route);
    const CheckReport report = CheckRoutes(matrix, routes, distances);
    if (KindsOf(report) != fault.expected) {
      return std::string("planted fault '") + fault.name +
             "' not reported as expected (first: " + report.first_violation +
             ")";
    }
  }
  // Archive matching: a permuted archive pairs back to its queries; a
  // route for an unknown pair does not.
  std::vector<PlannedQuery> matched;
  std::int64_t unanswered = 0;
  const std::vector<core::Route> archive = {clean[1].route, clean[0].route};
  const std::vector<PlannedQuery> queries = {clean[0], clean[1]};
  if (!MatchArchive(queries, archive, matched, unanswered).empty() ||
      unanswered != 0 || !CheckRoutes(matrix, matched, distances).ok()) {
    return "archive matching rejected a clean archive";
  }
  if (!MatchArchive(queries, {clean[0].route}, matched, unanswered).empty() ||
      unanswered != 1) {
    return "archive matching miscounted an unanswered query";
  }
  const std::vector<core::Route> stray = {clean[0].route,
                                          core::Route(0, {{3, 4}, {3, 3}})};
  if (MatchArchive(queries, stray, matched, unanswered).empty()) {
    return "archive matching accepted a route for an unknown query";
  }
  return "";
}

}  // namespace carp::perfbench
