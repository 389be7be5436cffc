// Deterministic tests of the sharded concurrent-commit hooks (DESIGN.md
// §2h): two workers committing disjoint-footprint routes truly
// concurrently, an overlapping-footprint commit forced through the
// contention/retry protocol, and the PlanBatch sharded pipeline staying
// bit-identical to its serial counterpart.

#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <vector>

#include "baselines/planner_factory.h"
#include "common/sharded_lock.h"
#include "core/batch_planner.h"
#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/srp_planner.h"

namespace carp::core {
namespace {

// Eight full-width aisle rows -> eight latitudinal strips, one per row.
// With commit_shards == 8 the shard of a row-confined route is exactly its
// row index, which makes footprints fully controllable.
WarehouseMatrix EightRowMatrix() { return WarehouseMatrix(8, 12); }

srp::SrpPlannerOptions EightShardOptions() {
  srp::SrpPlannerOptions options;
  options.commit_shards = 8;
  return options;
}

bool Overlaps(const std::vector<std::uint32_t>& a,
              const std::vector<std::uint32_t>& b) {
  for (std::uint32_t x : a) {
    for (std::uint32_t y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

TEST(ShardedCommitTest, DisjointFootprintsCommitConcurrently) {
  const WarehouseMatrix matrix = EightRowMatrix();
  const auto options = EightShardOptions();

  // Reference: the serial commit path, row 0 then row 4.
  srp::SrpPlanner reference(matrix, options);
  const auto r1 = reference.PlanRoute(0, {0, 0}, {0, 11});
  const auto r2 = reference.PlanRoute(0, {4, 0}, {4, 11});
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());

  srp::SrpPlanner planner(matrix, options);
  std::vector<std::uint32_t> f1, f2;
  planner.ComputeShardFootprint(*r1, f1);
  planner.ComputeShardFootprint(*r2, f2);
  ASSERT_FALSE(f1.empty());
  ASSERT_FALSE(f2.empty());
  ASSERT_FALSE(Overlaps(f1, f2)) << "rows 0 and 4 must map to distinct shards";

  // Both state commits in flight at once, released by a common barrier.
  const std::uint64_t t1 = planner.BeginShardedCommit(*r1);
  const std::uint64_t t2 = planner.BeginShardedCommit(*r2);
  std::barrier sync(2);
  std::thread a([&] {
    sync.arrive_and_wait();
    planner.CommitRouteSharded(*r1, t1);
  });
  std::thread b([&] {
    sync.arrive_and_wait();
    planner.CommitRouteSharded(*r2, t2);
  });
  a.join();
  b.join();
  planner.NoteShardedCommitted(*r1, t1);
  planner.NoteShardedCommitted(*r2, t2);
  planner.OnShardedFlush();

  // Bit-identical to the serial path, with clean invariants.
  EXPECT_EQ(planner.committed_routes(), reference.committed_routes());
  EXPECT_EQ(planner.SegmentCount(), reference.SegmentCount());
  EXPECT_EQ(planner.CheckInvariants(), "");
  EXPECT_TRUE(ValidateRoutes(planner.committed_routes()));

  // Disjoint footprints never hit each other's shards.
  const auto s = planner.stats();
  EXPECT_EQ(s.shard_commits, 2);
  EXPECT_EQ(s.shard_lock_contentions, 0);
  EXPECT_EQ(s.shard_commit_retries, 0);
}

TEST(ShardedCommitTest, OverlappingFootprintRetriesAndMatchesSerial) {
  const WarehouseMatrix matrix = EightRowMatrix();
  const auto options = EightShardOptions();

  // Reference: r1 along row 0, then r3 trailing it two cells behind in the
  // same row — mutually collision-free, same shard footprint.
  srp::SrpPlanner reference(matrix, options);
  const auto r1 = reference.PlanRoute(0, {0, 0}, {0, 11});
  const auto r3 = reference.PlanRoute(0, {0, 2}, {0, 9});
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r3.has_value());

  srp::SrpPlanner planner(matrix, options);
  std::vector<std::uint32_t> f1, f3;
  planner.ComputeShardFootprint(*r1, f1);
  planner.ComputeShardFootprint(*r3, f3);
  ASSERT_TRUE(Overlaps(f1, f3));

  const std::uint64_t t1 = planner.BeginShardedCommit(*r1);
  const std::uint64_t t3 = planner.BeginShardedCommit(*r3);
  planner.CommitRouteSharded(*r1, t1);  // uncontended

  // Force the full contention protocol: hold one of r3's shards while the
  // worker commits, so its guard must fail the try-lock sweep, fail the
  // optimistic re-sweep, and fall back to the blocking acquire. The
  // planner only exposes a const view of its lock set; the test needs to
  // *hold* a shard, which mutates nothing but the lock word.
  auto& locks = const_cast<ShardLockSet&>(planner.shard_locks());
  const std::vector<std::uint32_t> held{f3.front()};
  std::thread worker;
  {
    ShardLockSet::CommitGuard blocker(locks, held);
    worker = std::thread([&] { planner.CommitRouteSharded(*r3, t3); });
    // A blocked guard records exactly one contention and two retry passes
    // before parking on the held shard.
    while (planner.stats().shard_commit_retries < 2) std::this_thread::yield();
  }  // release: the worker's blocking acquire proceeds
  worker.join();
  planner.NoteShardedCommitted(*r1, t1);
  planner.NoteShardedCommitted(*r3, t3);
  planner.OnShardedFlush();

  EXPECT_EQ(planner.committed_routes(), reference.committed_routes());
  EXPECT_EQ(planner.SegmentCount(), reference.SegmentCount());
  EXPECT_EQ(planner.CheckInvariants(), "");
  EXPECT_TRUE(ValidateRoutes(planner.committed_routes()));

  const auto s = planner.stats();
  EXPECT_EQ(s.shard_commits, 3);  // r1, the test's blocker guard, r3
  EXPECT_EQ(s.shard_lock_contentions, 1);
  EXPECT_EQ(s.shard_commit_retries, 2);
}

// Heavily interacting batch on the tiny warehouse (the parallel-batch
// contention scenario): opposing pairs through the same margin rows.
std::vector<BatchQuery> ContendingBatch() {
  std::vector<BatchQuery> queries;
  for (int k = 0; k < 4; ++k) {
    queries.push_back(BatchQuery{{k % 2, 0}, {k % 2, 12}});
    queries.push_back(BatchQuery{{k % 2, 12}, {k % 2, 0}});
  }
  return queries;
}

TEST(ShardedCommitTest, ShardedPipelineMatchesSerialOnContendedBatch) {
  const layout::Warehouse w = layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();

  srp::SrpPlanner serial(w.matrix);
  PlanBatch(serial, 0, queries);

  srp::SrpPlanner sharded(w.matrix);
  BatchPlanOptions options;
  options.threads = 4;
  options.sharded_commit = true;
  const BatchResult result = PlanBatch(sharded, 0, queries, options);

  EXPECT_EQ(sharded.committed_routes(), serial.committed_routes());
  EXPECT_EQ(sharded.SegmentCount(), serial.SegmentCount());
  EXPECT_EQ(sharded.CheckInvariants(), "");
  EXPECT_TRUE(ValidateRoutes(sharded.committed_routes()));
  // Every accepted speculative route went through the shard locks.
  EXPECT_GE(sharded.stats().shard_commits,
            result.speculated - result.invalidated);
}

TEST(ShardedCommitTest, GridCoarseShardMatchesSerialOnContendedBatch) {
  const layout::Warehouse w = layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();

  auto serial = baselines::MakePlanner("SAP", w.matrix);
  BatchPlanOptions serial_options;
  serial_options.threads = 4;
  serial_options.sharded_commit = false;
  PlanBatch(*serial, 0, queries, serial_options);

  auto sharded = baselines::MakePlanner("SAP", w.matrix);
  ASSERT_TRUE(sharded->SupportsShardedCommit());
  EXPECT_EQ(sharded->CommitShardCount(), 1u);
  BatchPlanOptions options;
  options.threads = 4;
  options.sharded_commit = true;
  PlanBatch(*sharded, 0, queries, options);

  // The coarse single-shard path must reproduce the speculative pipeline's
  // committed set exactly (route ids included — stable ids are drawn
  // serially in BeginShardedCommit).
  EXPECT_EQ(sharded->committed_routes(), serial->committed_routes());
  EXPECT_TRUE(ValidateRoutes(sharded->committed_routes()));
  EXPECT_GT(sharded->stats().shard_commits, 0);
}

/// BatchResult's shard_* fields are read straight from the planner's lock
/// counters (Planner::ShardLockStats), not from the full stats() view; they
/// must still equal the stats() difference around every batch, on both the
/// strip-sharded and the coarse single-shard planners.
TEST(ShardedCommitTest, BatchShardCountersMatchStatsDelta) {
  const layout::Warehouse w = layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();
  for (const char* tag : {"SRP", "SAP"}) {
    auto planner = baselines::MakePlanner(tag, w.matrix);
    ASSERT_TRUE(planner->SupportsShardedCommit()) << tag;
    BatchPlanOptions options;
    options.threads = 4;
    options.sharded_commit = true;
    for (TimeStep t : {TimeStep{0}, TimeStep{200}}) {
      const PlannerStats before = planner->stats();
      const BatchResult result = PlanBatch(*planner, t, queries, options);
      const PlannerStats& after = planner->stats();
      EXPECT_GT(result.shard_commits, 0) << tag << " t=" << t;
      EXPECT_EQ(result.shard_commits,
                after.shard_commits - before.shard_commits)
          << tag << " t=" << t;
      EXPECT_EQ(result.shard_contentions,
                after.shard_lock_contentions - before.shard_lock_contentions)
          << tag << " t=" << t;
      EXPECT_EQ(result.shard_retries,
                after.shard_commit_retries - before.shard_commit_retries)
          << tag << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace carp::core
