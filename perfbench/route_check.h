#ifndef CARP_PERFBENCH_ROUTE_CHECK_H_
#define CARP_PERFBENCH_ROUTE_CHECK_H_

// The benchmark's own output check. It shares no code with the program's
// validators (core::RouteSetValidator, Route::IsKinematicallyValid): it
// re-derives every property from the matrix and the raw cell sequences.
//
// For every route, against the query it answers:
//   * it starts at the query's origin, no earlier than its emergence time,
//     and ends at the destination;
//   * every cell is traversable and every step is a wait or a 4-neighbour
//     move;
//   * its moves plus waits are at least the static shortest-path distance
//     (own breadth-first search, cached per (origin, destination)).
// Over the whole route set (retired routes included): no two routes hold a
// cell at the same timestep (vertex conflict) and no two routes traverse
// one edge in opposite directions between the same timesteps (swap
// conflict), as in Def. 3.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/warehouse.h"
#include "probe_planner.h"

namespace carp::perfbench {

enum class ViolationKind : int {
  kEmpty = 0,
  kWrongOrigin,
  kEarlyStart,
  kWrongDestination,
  kNotTraversable,
  kTeleport,
  kShorterThanStatic,
  kUnreachable,
  kVertexConflict,
  kSwapConflict,
  kCount
};

const char* ToString(ViolationKind kind);

struct CheckReport {
  std::int64_t routes = 0;
  /// Sum over routes of moves plus waits (|G_r| - 1 in cells).
  std::int64_t route_steps = 0;
  /// Eq. 1's OG: max over routes of st_r + |G_r| (|G_r| in cells).
  TimeStep makespan = 0;
  std::int64_t violations[static_cast<int>(ViolationKind::kCount)] = {};
  std::string first_violation;

  bool ok() const;
  std::int64_t count(ViolationKind kind) const {
    return violations[static_cast<int>(kind)];
  }
};

/// Static shortest-path distances on one matrix, computed by breadth-first
/// search from each destination and cached per (origin, destination).
class StaticDistances {
 public:
  explicit StaticDistances(const core::WarehouseMatrix& matrix);

  /// Fills the cache for every pair in `pairs` (origin, destination).
  void Ensure(const std::vector<std::pair<GridCoord, GridCoord>>& pairs);

  /// Distance in moves; -1 when unreachable or never ensured.
  std::int64_t Get(GridCoord origin, GridCoord destination) const;

 private:
  std::uint64_t Key(GridCoord origin, GridCoord destination) const;

  const core::WarehouseMatrix& matrix_;
  std::unordered_map<std::uint64_t, std::int64_t> cache_;
  std::vector<std::int32_t> dist_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Runs every check over `planned`.
CheckReport CheckRoutes(const core::WarehouseMatrix& matrix,
                        const std::vector<PlannedQuery>& planned,
                        StaticDistances& distances);

/// Pairs each route of `archive` with a query of `queries` (origin,
/// destination and emergence time; routes carry no query id). Within one
/// (origin, destination) pair, both sides are sorted by time and matched in
/// order, which succeeds whenever any valid pairing exists. Queries left
/// without a route are counted in `unanswered`. Returns an empty string and
/// fills `out` on success, else a description of the mismatch (a route no
/// query asked for).
std::string MatchArchive(const std::vector<PlannedQuery>& queries,
                         const std::vector<core::Route>& archive,
                         std::vector<PlannedQuery>& out,
                         std::int64_t& unanswered);

/// Plants one fault of each kind the check must reject (vertex conflict,
/// swap conflict, teleporting step, route shorter than its static
/// distance, wrong endpoint, early start) in otherwise clean route sets and
/// confirms each is reported as exactly that kind, and that the clean set
/// passes. Returns an empty string on success.
std::string SelfTest();

}  // namespace carp::perfbench

#endif  // CARP_PERFBENCH_ROUTE_CHECK_H_
