#include "core/heuristic_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"

#include "baselines/planner_factory.h"
#include "core/spatial_paths.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "sim/simulator.h"
#include "workload/scenario.h"
#include "workload/task_generator.h"

namespace carp::core {
namespace {

layout::Warehouse Paper(const char* name) {
  return layout::GenerateWarehouse(layout::PresetByName(name));
}

/// Table distances must equal the independent spatial BFS on every
/// traversable cell, for picker (aisle) goals on each paper preset.
TEST(HeuristicTableTest, MatchesSpatialBfsOnPaperPresets) {
  for (const char* name : {"W-1", "W-2", "W-3"}) {
    const layout::Warehouse w = Paper(name);
    const SpatialPathFinder finder(w.matrix);
    // A handful of goals per preset keeps the sweep fast; cells are
    // compared exhaustively per goal.
    for (std::size_t gi = 0; gi < w.pickers.size(); gi += 7) {
      const GridCoord goal = w.pickers[gi];
      const HeuristicTable table(w.matrix, goal);
      const auto bfs = finder.DistancesFrom(goal);
      for (std::int64_t i = 0; i < w.matrix.CellCount(); ++i) {
        const GridCoord cell = w.matrix.CoordOf(i);
        const TimeStep d = table.At(cell);
        if (!w.matrix.IsTraversable(cell)) {
          EXPECT_EQ(d, kInfiniteTime)
              << name << " rack cell " << cell << " got finite distance";
          continue;
        }
        const auto ref = bfs[static_cast<std::size_t>(i)];
        if (ref < 0) {
          EXPECT_EQ(d, kInfiniteTime) << name << " cell " << cell;
        } else {
          EXPECT_EQ(d, TimeStep{ref}) << name << " cell " << cell;
        }
      }
    }
  }
}

/// A rack goal is entered as an endpoint only: its own distance is 0, every
/// aisle cell's distance is 1 + the BFS distance to the goal's nearest
/// traversable neighbour, and every *other* rack cell stays infinite.
TEST(HeuristicTableTest, RackGoalEnteredAsEndpointOnly) {
  const layout::Warehouse w = Paper("W-1");
  // rack_access points are aisle cells; pick an actual rack cell as goal.
  GridCoord goal{-1, -1};
  for (std::int64_t i = 0; i < w.matrix.CellCount() && goal.row < 0; ++i) {
    if (!w.matrix.IsTraversable(w.matrix.CoordOf(i))) {
      goal = w.matrix.CoordOf(i);
    }
  }
  ASSERT_GE(goal.row, 0);
  ASSERT_FALSE(w.matrix.IsTraversable(goal));
  const HeuristicTable table(w.matrix, goal);
  EXPECT_EQ(table.At(goal), 0);

  const SpatialPathFinder finder(w.matrix);
  std::vector<std::vector<std::int32_t>> nbr_bfs;
  GridCoord nbrs[4];
  const int cnt = w.matrix.Neighbors(goal, nbrs);
  for (int k = 0; k < cnt; ++k) {
    if (w.matrix.IsTraversable(nbrs[k])) {
      nbr_bfs.push_back(finder.DistancesFrom(nbrs[k]));
    }
  }
  ASSERT_FALSE(nbr_bfs.empty());
  for (std::int64_t i = 0; i < w.matrix.CellCount(); ++i) {
    const GridCoord cell = w.matrix.CoordOf(i);
    if (!w.matrix.IsTraversable(cell)) {
      if (!(cell == goal)) {
        EXPECT_EQ(table.At(cell), kInfiniteTime);
      }
      continue;
    }
    TimeStep ref = kInfiniteTime;
    for (const auto& bfs : nbr_bfs) {
      const auto d = bfs[static_cast<std::size_t>(i)];
      if (d >= 0) ref = std::min(ref, TimeStep{d} + 1);
    }
    EXPECT_EQ(table.At(cell), ref) << "cell " << cell;
  }
}

/// LowerBound must be admissible *and* consistent everywhere: it never
/// exceeds a neighbour's bound plus the step cost.
TEST(HeuristicTableTest, LowerBoundIsConsistentAcrossNeighbours) {
  const layout::Warehouse w = Paper("W-1");
  const HeuristicTable table(w.matrix, w.pickers.front());
  GridCoord nbrs[4];
  for (std::int64_t i = 0; i < w.matrix.CellCount(); ++i) {
    const GridCoord cell = w.matrix.CoordOf(i);
    if (!w.matrix.IsTraversable(cell)) continue;
    const int cnt = w.matrix.Neighbors(cell, nbrs);
    for (int k = 0; k < cnt; ++k) {
      if (!w.matrix.IsTraversable(nbrs[k])) continue;
      EXPECT_LE(table.LowerBound(cell), table.LowerBound(nbrs[k]) + 1)
          << cell << " -> " << nbrs[k];
    }
  }
}

/// Region minima: with a region map, RegionMin(r) is exactly the smallest
/// table distance over the region's cells.
TEST(HeuristicTableTest, RegionMinIsExactMinimumOverRegionCells) {
  const layout::Warehouse w = Paper("W-1");
  // Two regions: left half / right half of the grid, racks unassigned.
  std::vector<std::int32_t> region(
      static_cast<std::size_t>(w.matrix.CellCount()), -1);
  for (std::int64_t i = 0; i < w.matrix.CellCount(); ++i) {
    const GridCoord cell = w.matrix.CoordOf(i);
    if (!w.matrix.IsTraversable(cell)) continue;
    region[static_cast<std::size_t>(i)] =
        cell.col < w.matrix.width() / 2 ? 0 : 1;
  }
  const GridCoord goal = w.pickers.front();
  const HeuristicTable table(w.matrix, goal, &region, 2);
  for (std::int32_t r = 0; r < 2; ++r) {
    TimeStep expected = kInfiniteTime;
    for (std::int64_t i = 0; i < w.matrix.CellCount(); ++i) {
      if (region[static_cast<std::size_t>(i)] != r) continue;
      expected = std::min(expected, table.At(w.matrix.CoordOf(i)));
    }
    EXPECT_EQ(table.RegionMin(r), expected) << "region " << r;
  }
  EXPECT_EQ(table.RegionMin(2), kInfiniteTime);   // out of range
  EXPECT_EQ(table.RegionMin(-1), kInfiniteTime);  // unassigned marker
}

/// Admissibility against real planner output: no committed route can beat
/// the table's lower bound for its own origin/destination pair, even as
/// reservations force detours and waits.
TEST(HeuristicTableTest, NeverExceedsValidRouteCosts) {
  const layout::Warehouse w = Paper("W-1");
  auto planner = baselines::MakePlanner("SAP", w.matrix);
  TimeStep now = 0;
  for (std::size_t i = 0; i + 1 < w.rack_access.size() && i < 24; i += 2) {
    const GridCoord origin = w.rack_access[i];
    const GridCoord destination = w.pickers[i % w.pickers.size()];
    const auto route = planner->PlanRoute(now, origin, destination);
    ASSERT_TRUE(route.has_value());
    const HeuristicTable table(w.matrix, destination);
    // Actual cost from the cell the route departs from; dispatch may delay
    // the start, never shorten the path.
    EXPECT_LE(table.At(origin), route->end_time() - route->start_time())
        << origin << " -> " << destination;
    now += 3;
  }
}

/// A serpentine map: full-width rack walls on every odd row, each with one
/// gap, alternating between the east and west ends, so the true distance
/// from the bottom rows to a goal in the top-left corner runs over a
/// thousand steps past Manhattan.
WarehouseMatrix Serpentine(std::int32_t walls, std::int32_t width) {
  WarehouseMatrix matrix(2 * walls + 1, width);
  for (std::int32_t k = 0; k < walls; ++k) {
    const std::int32_t gap = k % 2 == 0 ? width - 1 : 0;
    for (std::int32_t col = 0; col < width; ++col) {
      if (col != gap) matrix.SetRack(GridCoord{2 * k + 1, col}, true);
    }
  }
  return matrix;
}

/// The half-delta encoding (DESIGN.md §2j): the sentinel round-trips, the
/// distance is exact up to Manhattan + 508, and past it the saturated
/// bound stays admissible and consistent — on a map built to saturate.
TEST(HeuristicTableTest, HalfDeltaEncodingSaturatesAdmissibly) {
  const WarehouseMatrix matrix = Serpentine(/*walls=*/20, /*width=*/64);
  const GridCoord goal{0, 0};
  HeuristicTable table(matrix, goal);
  const auto bfs = SpatialPathFinder(matrix).DistancesFrom(goal);
  const TimeStep clamp = 2 * TimeStep{HeuristicTable::kMaxHalfDelta};

  TimeStep max_excess = 0;
  GridCoord nbrs[4];
  for (std::int64_t i = 0; i < matrix.CellCount(); ++i) {
    const GridCoord cell = matrix.CoordOf(i);
    const TimeStep manhattan = ManhattanDistance(cell, goal);
    if (!matrix.IsTraversable(cell)) {
      EXPECT_EQ(table.At(cell), kInfiniteTime) << cell;
      EXPECT_EQ(table.LowerBound(cell), manhattan) << cell;
      continue;
    }
    const auto ref = bfs[static_cast<std::size_t>(i)];
    ASSERT_GE(ref, 0) << cell;
    const TimeStep d = TimeStep{ref};
    max_excess = std::max(max_excess, d - manhattan);
    // Exact below saturation, Manhattan + 508 at or past it.
    EXPECT_EQ(table.LowerBound(cell), std::min(d, manhattan + clamp)) << cell;
    EXPECT_LE(table.LowerBound(cell), d) << cell;
    const int cnt = matrix.Neighbors(cell, nbrs);
    for (int k = 0; k < cnt; ++k) {
      if (!matrix.IsTraversable(nbrs[k])) continue;
      const TimeStep gap = table.LowerBound(cell) - table.LowerBound(nbrs[k]);
      EXPECT_LE(gap, 1) << cell << " -> " << nbrs[k];
      EXPECT_GE(gap, -1) << cell << " -> " << nbrs[k];
    }
  }
  ASSERT_GT(max_excess, clamp) << "the map must drive cells into saturation";

  // The sentinel round-trips; planted values go through the same encoding.
  const GridCoord probe{2 * 20, 0};
  const TimeStep exact = table.At(probe);
  table.CorruptForTest(probe, kInfiniteTime);
  EXPECT_EQ(table.At(probe), kInfiniteTime);
  EXPECT_EQ(table.LowerBound(probe), ManhattanDistance(probe, goal));
  table.CorruptForTest(probe, table.LargestEncodable(probe) + 1000);
  EXPECT_EQ(table.At(probe), table.LargestEncodable(probe));
  EXPECT_EQ(table.At(probe), exact);  // the probe row is saturated already
  table.CorruptForTest(probe, ManhattanDistance(probe, goal) + 6);
  EXPECT_EQ(table.At(probe), ManhattanDistance(probe, goal) + 6);
}

/// What keeps routes bit-identical to exact distances: on the paper
/// presets no picker, rack-access or rack goal comes anywhere near the
/// saturation point (the largest true detour over Manhattan is 6 steps),
/// so every decoded distance is exact.
TEST(HeuristicTableTest, PaperGoalsNeverSaturate) {
  const TimeStep clamp = 2 * TimeStep{HeuristicTable::kMaxHalfDelta};
  for (const char* name : {"W-1", "W-2", "W-3"}) {
    const layout::Warehouse w = Paper(name);
    const NeighbourMask open(w.matrix);
    std::vector<GridCoord> goals = w.pickers;
    for (std::size_t i = 0; i < w.racks.size(); i += 97) {
      goals.push_back(w.racks[i]);
      goals.push_back(w.rack_access[i]);
    }
    TimeStep max_excess = 0;
    for (const GridCoord goal : goals) {
      const HeuristicTable table(w.matrix, open, goal);
      for (std::int32_t row = 0; row < w.matrix.height(); ++row) {
        for (std::int32_t col = 0; col < w.matrix.width(); ++col) {
          const GridCoord cell{row, col};
          const TimeStep d = table.At(cell);
          if (d >= kInfiniteTime) continue;
          max_excess =
              std::max(max_excess, d - ManhattanDistance(cell, goal));
        }
      }
    }
    EXPECT_LT(max_excess, clamp) << name;
    EXPECT_LE(max_excess, 6) << name << ": paper detours grew";
  }
}

TEST(HeuristicTableCacheTest, HitsAndMissesAreCounted) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache cache(w.matrix);
  const auto a = cache.Acquire(w.pickers[0]);
  const auto b = cache.Acquire(w.pickers[0]);
  const auto c = cache.Acquire(w.pickers[1]);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.tables, 2u);
  EXPECT_EQ(s.bytes, 2 * cache.table_bytes());
}

/// With one shard and a budget of exactly two tables, a third distinct
/// goal evicts the least-recently-used one — and the evicted goal rebuilds
/// (a new miss) while its bit-identical distances keep answers unchanged.
TEST(HeuristicTableCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache::Options options;
  options.shards = 1;
  options.budget_bytes = 2 * HeuristicTable::BytesFor(w.matrix, 0);
  HeuristicTableCache cache(w.matrix, options);

  const GridCoord g0 = w.pickers[0];
  const GridCoord g1 = w.pickers[1];
  const GridCoord g2 = w.pickers[2];
  const auto t0 = cache.Acquire(g0);
  const auto t1 = cache.Acquire(g1);
  (void)cache.Acquire(g0);  // refresh g0: g1 becomes the LRU victim
  const auto t2 = cache.Acquire(g2);
  ASSERT_NE(t2, nullptr);

  auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.tables, 2u);
  EXPECT_LE(s.bytes, options.budget_bytes);

  // g0 survived (it was refreshed), g1 rebuilds from scratch.
  (void)cache.Acquire(g0);
  EXPECT_EQ(cache.stats().misses, 3);
  const auto t1_again = cache.Acquire(g1);
  ASSERT_NE(t1_again, nullptr);
  EXPECT_EQ(cache.stats().misses, 4);
  // The rebuilt table answers exactly like the evicted snapshot (still
  // alive through our shared_ptr).
  for (std::int64_t i = 0; i < w.matrix.CellCount(); i += 37) {
    const GridCoord cell = w.matrix.CoordOf(i);
    EXPECT_EQ(t1->At(cell), t1_again->At(cell));
  }
}

/// A budget too small for even one table deterministically disables the
/// cache: every Acquire answers nullptr (callers fall back to Manhattan).
TEST(HeuristicTableCacheTest, SubTableBudgetAlwaysFallsBackToManhattan) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache::Options options;
  options.shards = 1;
  options.budget_bytes = HeuristicTable::BytesFor(w.matrix, 0) - 1;
  HeuristicTableCache cache(w.matrix, options);
  EXPECT_EQ(cache.Acquire(w.pickers[0]), nullptr);
  EXPECT_EQ(cache.Acquire(w.pickers[1]), nullptr);
  EXPECT_EQ(cache.stats().tables, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

/// Concurrent Acquires of one goal build exactly once: late arrivals block
/// on the publication condition variable and then hit.
TEST(HeuristicTableCacheTest, ConcurrentSameGoalAcquiresBuildOnce) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache cache(w.matrix);
  const GridCoord goal = w.pickers.front();
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const HeuristicTable>> acquired(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back(
        [&, i] { acquired[static_cast<std::size_t>(i)] = cache.Acquire(goal); });
  }
  for (auto& t : workers) t.join();
  for (const auto& table : acquired) {
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table.get(), acquired.front().get());
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(s.tables, 1u);
}

TEST(HeuristicTableCacheTest, ClearDropsTablesButKeepsSnapshotsAlive) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache cache(w.matrix);
  const auto snapshot = cache.Acquire(w.pickers[0]);
  ASSERT_NE(snapshot, nullptr);
  cache.Clear();
  EXPECT_EQ(cache.stats().tables, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  // The snapshot still answers — eviction only dropped the cache's ref.
  EXPECT_EQ(snapshot->At(w.pickers[0]), 0);
  // Re-acquiring after Clear is a rebuild.
  EXPECT_NE(cache.Acquire(w.pickers[0]), nullptr);
  EXPECT_EQ(cache.stats().misses, 2);
}

/// Prefetch that completes before first use: the demand Acquire is a hit
/// (no in-query build) and is attributed to the prefetcher exactly once.
TEST(HeuristicTableCacheTest, PrefetchWarmsTableBeforeFirstAcquire) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache cache(w.matrix);
  ThreadPool pool(2);
  const GridCoord goal = w.pickers.front();

  cache.Prefetch(goal, pool);
  cache.Prefetch(goal, pool);  // duplicate: slot already claimed, no-op
  pool.WaitIdle();

  auto s = cache.stats();
  EXPECT_EQ(s.prefetch_scheduled, 1);
  EXPECT_EQ(s.misses, 1);  // the prefetched build is the miss
  EXPECT_EQ(s.tables, 1u);
  EXPECT_GT(s.prefetch_build_seconds, 0.0);
  EXPECT_GE(s.build_seconds, s.prefetch_build_seconds);

  const auto table = cache.Acquire(goal);
  ASSERT_NE(table, nullptr);
  s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.prefetch_hits, 1);
  EXPECT_EQ(s.prefetch_late, 0);

  // Later Acquires are plain hits; the prefetch attribution is consumed.
  (void)cache.Acquire(goal);
  s = cache.stats();
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.prefetch_hits, 1);
  // Prefetching a cached goal is a no-op.
  cache.Prefetch(goal, pool);
  pool.WaitIdle();
  EXPECT_EQ(cache.stats().prefetch_scheduled, 1);
}

/// A prefetched table is bit-identical to a demand-built one — prefetch
/// moves *when* the BFS runs, never what it computes.
TEST(HeuristicTableCacheTest, PrefetchedTableMatchesDemandBuild) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache cache(w.matrix);
  ThreadPool pool(1);
  const GridCoord goal = w.rack_access.front();
  cache.Prefetch(goal, pool);
  pool.WaitIdle();
  const auto prefetched = cache.Acquire(goal);
  ASSERT_NE(prefetched, nullptr);
  const HeuristicTable demand(w.matrix, goal);
  for (std::int64_t i = 0; i < w.matrix.CellCount(); i += 13) {
    const GridCoord cell = w.matrix.CoordOf(i);
    ASSERT_EQ(prefetched->At(cell), demand.At(cell)) << "cell " << cell;
  }
}

/// Demand arriving while the prefetched build is still queued counts as a
/// late prefetch, waits for the same publication, and returns the same
/// table — never a Manhattan fallback. A deliberately blocked one-thread
/// pool pins the build behind the demand Acquire deterministically.
TEST(HeuristicTableCacheTest, PrefetchLateWhenDemandBeatsTheBuild) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache cache(w.matrix);
  ThreadPool pool(1);
  const GridCoord goal = w.pickers.front();

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });  // park the only worker
  cache.Prefetch(goal, pool);  // build slot claimed; BFS queued behind park
  EXPECT_EQ(cache.stats().prefetch_scheduled, 1);

  std::shared_ptr<const HeuristicTable> acquired;
  std::thread demand([&] { acquired = cache.Acquire(goal); });
  // The demand thread marks the prefetch late *before* blocking on the
  // publication condvar; the build cannot have started (worker parked), so
  // this converges deterministically.
  while (cache.stats().prefetch_late == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.set_value();
  demand.join();
  pool.WaitIdle();

  ASSERT_NE(acquired, nullptr);
  EXPECT_EQ(acquired->At(goal), 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.prefetch_late, 1);
  EXPECT_EQ(s.prefetch_hits, 0);  // late and hit are mutually exclusive
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);  // the waiter's post-publication acquire
}

/// Eviction-thrash regression: a cold W-3 day (the `day-w3` benchmark
/// workload) touches about 680 distinct goals — every picker plus the
/// day's rack faces. With one-byte half-delta tables that working set fits
/// the *default* budget, so two full passes over it must rebuild nothing.
TEST(HeuristicTableCacheTest, PaperWorkingSetNeverRebuildsUnderDefaultBudget) {
  const layout::Warehouse w = Paper("W-3");
  HeuristicTableCache cache(w.matrix);
  constexpr std::size_t kWorkingSet = 680;
  std::vector<GridCoord> goals;
  std::unordered_set<std::int64_t> seen;
  auto add = [&](GridCoord g) {
    if (seen.insert(w.matrix.Index(g)).second) goals.push_back(g);
  };
  for (const GridCoord g : w.pickers) add(g);
  ASSERT_LT(goals.size(), kWorkingSet);
  const std::size_t stride =
      std::max<std::size_t>(1, w.rack_access.size() /
                                   (kWorkingSet - goals.size()));
  for (std::size_t i = 0;
       i < w.rack_access.size() && goals.size() < kWorkingSet; i += stride) {
    add(w.rack_access[i]);
  }
  ASSERT_EQ(goals.size(), kWorkingSet);

  for (int pass = 0; pass < 2; ++pass) {
    for (const GridCoord goal : goals) {
      ASSERT_NE(cache.Acquire(goal), nullptr);
    }
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.rebuilds, 0) << "eviction thrash under the default budget";
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.misses, static_cast<std::int64_t>(goals.size()));
  EXPECT_EQ(s.bytes, goals.size() * cache.table_bytes());
  EXPECT_LE(s.bytes, HeuristicTableCacheOptions{}.budget_bytes);
}

/// Concurrent Prefetch + Acquire under an eviction-heavy tiny budget: the
/// TSan target for the prefetch publication protocol. Correctness bar:
/// every Acquire answers, answers exactly, and the budget holds.
TEST(HeuristicTableCacheTest, ConcurrentPrefetchUnderEvictionPressure) {
  const layout::Warehouse w = Paper("W-1");
  HeuristicTableCache::Options options;
  options.shards = 2;
  options.budget_bytes = 4 * HeuristicTable::BytesFor(w.matrix, 0);
  HeuristicTableCache cache(w.matrix, options);
  ThreadPool pool(2);

  const std::size_t kGoals = std::min<std::size_t>(8, w.pickers.size());
  ASSERT_GE(kGoals, 4u);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        const GridCoord goal =
            w.pickers[static_cast<std::size_t>(round + t) % kGoals];
        if ((round + t) % 2 == 0) cache.Prefetch(goal, pool);
        const auto table = cache.Acquire(goal);
        ASSERT_NE(table, nullptr);
        EXPECT_EQ(table->At(goal), 0);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  pool.WaitIdle();
  const auto s = cache.stats();
  EXPECT_LE(s.bytes, options.budget_bytes);
  // Attribution never exceeds what was scheduled (evicted-before-use
  // prefetches are the only ones that go unconsumed).
  EXPECT_LE(s.prefetch_hits + s.prefetch_late, s.prefetch_scheduled);
}

/// Route bit-identity under the table encoding: one fixed W-2 day through
/// SRP and SAP with default (table) heuristics, every route kept, must
/// leave exactly the committed state pinned below. The digests were
/// recorded from the uint16-table build; the half-delta tables decode to
/// the same distances on every paper goal, so any drift here means the
/// encoding changed a search decision.
TEST(HeuristicTableRoutesTest, W2DayFingerprintsArePinned) {
  const auto scenario =
      workload::ScaledScenario(workload::PaperScenario("W-2"), 0.002);
  const layout::Warehouse w = layout::GenerateWarehouse(scenario.layout);
  workload::TaskGeneratorOptions topts;
  topts.task_count = scenario.daily_tasks[0];
  topts.day_length = scenario.day_length;
  topts.seed = 77;
  const auto tasks = workload::GenerateTasks(
      w, workload::ArrivalProfile::DoubleSurge(), topts);
  ASSERT_GE(tasks.size(), 20u);

  struct Pin {
    const char* algorithm;
    std::uint64_t fingerprint;
  };
  for (const Pin& pin : {Pin{"SRP", 10048539077682047533ULL},
                        Pin{"SAP", 1842674626226285163ULL}}) {
    auto planner = baselines::MakePlanner(pin.algorithm, w.matrix);
    ASSERT_NE(planner, nullptr);
    sim::Simulator simulator(w, *planner);
    const sim::RunMetrics m = simulator.Run(tasks);
    ASSERT_EQ(m.finished_tasks, m.total_tasks) << pin.algorithm;
    EXPECT_GT(planner->stats().heuristic_misses, 0) << pin.algorithm;
    EXPECT_EQ(planner->StateFingerprint(), pin.fingerprint)
        << pin.algorithm << " makespan " << m.makespan << " routes "
        << planner->committed_routes().size();
  }
}

TEST(HeuristicModeTest, ParseRoundTrips) {
  EXPECT_EQ(ParseHeuristicMode("manhattan"), HeuristicMode::kManhattan);
  EXPECT_EQ(ParseHeuristicMode("table"), HeuristicMode::kTable);
  EXPECT_FALSE(ParseHeuristicMode("euclid").has_value());
  EXPECT_EQ(ToString(HeuristicMode::kManhattan), "manhattan");
  EXPECT_EQ(ToString(HeuristicMode::kTable), "table");
}

}  // namespace
}  // namespace carp::core
