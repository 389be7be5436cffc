#include "core/heuristic_table.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace carp::core {

std::string_view ToString(HeuristicMode mode) {
  return mode == HeuristicMode::kTable ? "table" : "manhattan";
}

std::optional<HeuristicMode> ParseHeuristicMode(std::string_view text) {
  if (text == "manhattan") return HeuristicMode::kManhattan;
  if (text == "table") return HeuristicMode::kTable;
  return std::nullopt;
}

NeighbourMask::NeighbourMask(const WarehouseMatrix& matrix)
    : bits_(static_cast<std::size_t>(matrix.CellCount()), 0) {
  // One row-major pass, one rack probe per cell: an open cell marks itself
  // in each in-bounds neighbour's mask (it is that neighbour's east, west,
  // south or north side respectively).
  const std::int32_t width = matrix.width();
  const std::int32_t height = matrix.height();
  std::size_t index = 0;
  for (std::int32_t row = 0; row < height; ++row) {
    for (std::int32_t col = 0; col < width; ++col, ++index) {
      if (matrix.IsRack(GridCoord{row, col})) continue;
      if (col > 0) bits_[index - 1] |= kEast;
      if (col + 1 < width) bits_[index + 1] |= kWest;
      if (row > 0) bits_[index - static_cast<std::size_t>(width)] |= kSouth;
      if (row + 1 < height) {
        bits_[index + static_cast<std::size_t>(width)] |= kNorth;
      }
    }
  }
}

namespace {

/// Per-thread BFS workspace, reused across builds: int32 distances (-1 =
/// unvisited) and a flat FIFO of cell indices. Each cell enters the queue
/// at most once, so the queue never outgrows the cell count.
struct BfsScratch {
  std::vector<std::int32_t> dist;
  std::vector<std::int32_t> queue;
};

BfsScratch& ThreadScratch() {
  thread_local BfsScratch scratch;
  return scratch;
}

}  // namespace

HeuristicTable::HeuristicTable(const WarehouseMatrix& matrix,
                               const NeighbourMask& open, GridCoord goal,
                               const std::vector<std::int32_t>* region_of_cell,
                               std::size_t region_count)
    : matrix_(matrix), goal_(goal) {
  CARP_CHECK(matrix_.InBounds(goal_));
  const std::size_t cells = static_cast<std::size_t>(matrix_.CellCount());
  CARP_CHECK(cells <= static_cast<std::size_t>(INT32_MAX));  // int32 queue
  const bool regions = region_of_cell != nullptr && region_count > 0;
  if (regions) CARP_CHECK(region_of_cell->size() == cells);

  // Backward BFS from the goal over the open-neighbour mask. The goal may
  // itself be a rack cell (routes may end on one: allow_endpoint_racks),
  // but the mask only ever names traversable neighbours, so every
  // intermediate step is an aisle cell. Mask bits exclude out-of-bounds
  // neighbours, so the offsets never leave the grid.
  BfsScratch& scratch = ThreadScratch();
  std::vector<std::int32_t>& dist = scratch.dist;
  dist.assign(cells, -1);
  if (scratch.queue.size() < cells) scratch.queue.resize(cells);
  std::int32_t* const queue = scratch.queue.data();
  const std::int32_t width = matrix_.width();
  const auto start = static_cast<std::int32_t>(matrix_.Index(goal_));
  dist[static_cast<std::size_t>(start)] = 0;
  queue[0] = start;
  std::size_t head = 0;
  std::size_t tail = 1;
  while (head < tail) {
    const std::int32_t index = queue[head++];
    const std::int32_t next = dist[static_cast<std::size_t>(index)] + 1;
    const std::uint8_t m = open[static_cast<std::size_t>(index)];
    auto visit = [&](std::int32_t ni) {
      std::int32_t& d = dist[static_cast<std::size_t>(ni)];
      if (d < 0) {
        d = next;
        queue[tail++] = ni;
      }
    };
    if (m & NeighbourMask::kWest) visit(index - 1);
    if (m & NeighbourMask::kEast) visit(index + 1);
    if (m & NeighbourMask::kNorth) visit(index - width);
    if (m & NeighbourMask::kSouth) visit(index + width);
  }

  // Encode pass, row-major: each distance becomes its half-delta over
  // Manhattan, and the per-region minima (exact uint16, saturating one
  // below the sentinel) fold in on the way.
  half_delta_.resize(cells);
  if (regions) region_min_.assign(region_count, kUnreachable16);
  std::size_t index = 0;
  for (std::int32_t row = 0; row < matrix_.height(); ++row) {
    const TimeStep row_span = row > goal_.row ? row - goal_.row
                                              : goal_.row - row;
    for (std::int32_t col = 0; col < width; ++col, ++index) {
      const std::int32_t d = dist[index];
      if (d < 0) {
        half_delta_[index] = kUnreachable;
        continue;
      }
      const TimeStep col_span = col > goal_.col ? col - goal_.col
                                                : goal_.col - col;
      half_delta_[index] = Encode(d, row_span + col_span);
      if (regions) {
        const std::int32_t r = (*region_of_cell)[index];
        if (r >= 0 && static_cast<std::size_t>(r) < region_count) {
          const auto clamped = static_cast<std::uint16_t>(
              std::min<std::int32_t>(d, kUnreachable16 - 1));
          std::uint16_t& best = region_min_[static_cast<std::size_t>(r)];
          best = std::min(best, clamped);
        }
      }
    }
  }
}

HeuristicTableCache::HeuristicTableCache(
    const WarehouseMatrix& matrix, const Options& options,
    std::vector<std::int32_t> region_of_cell, std::size_t region_count)
    : matrix_(matrix),
      region_of_cell_(std::move(region_of_cell)),
      region_count_(region_count),
      table_bytes_(HeuristicTable::BytesFor(matrix, region_count)),
      shards_(static_cast<std::size_t>(std::max(options.shards, 1))) {
  shard_budget_bytes_ = options.budget_bytes / shards_.size();
}

const NeighbourMask& HeuristicTableCache::open() const {
  std::call_once(open_once_, [this] { open_.emplace(matrix_); });
  return *open_;
}

std::shared_ptr<const HeuristicTable> HeuristicTableCache::Acquire(
    GridCoord goal) const {
  CARP_CHECK(matrix_.InBounds(goal));
  // Deterministic across thread interleavings: a property of the matrix
  // and the configured budget, not of what happens to be cached.
  if (table_bytes_ > shard_budget_bytes_) return nullptr;

  const std::int64_t key = matrix_.Index(goal);
  Shard& shard = shard_of(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) break;
    if (it->second.building) {
      // Another worker (or a prefetch task) is mid-build for this goal;
      // wait for publication rather than falling back to Manhattan (which
      // would make the heuristic — and thus QueryRoute — timing-dependent).
      if (it->second.prefetched) {
        // Demand beat the prefetched build: a late prefetch (counted once
        // per prefetch — the flag is consumed here).
        it->second.prefetched = false;
        prefetch_late_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.published.wait(lock);
      continue;  // re-find: the builder may have been evicted since
    }
    if (it->second.prefetched) {
      // First demand use of a table the prefetcher finished in time.
      it->second.prefetched = false;
      prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second.table;
  }

  // Miss: claim the build slot, then build outside the lock.
  shard.entries.emplace(key, Entry{nullptr, shard.lru.end(), true, false});
  lock.unlock();
  return BuildAndPublish(goal, /*prefetched=*/false);
}

void HeuristicTableCache::Prefetch(GridCoord goal, ThreadPool& pool) const {
  CARP_CHECK(matrix_.InBounds(goal));
  // Same fits-the-budget gate as Acquire: a goal Acquire would answer with
  // Manhattan is not worth building.
  if (table_bytes_ > shard_budget_bytes_) return;

  const std::int64_t key = matrix_.Index(goal);
  Shard& shard = shard_of(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.count(key) != 0) return;  // cached or already building
    shard.entries.emplace(key, Entry{nullptr, shard.lru.end(), true, true});
  }
  prefetch_scheduled_.fetch_add(1, std::memory_order_relaxed);
  pool.Submit([this, goal] { BuildAndPublish(goal, /*prefetched=*/true); });
}

std::shared_ptr<const HeuristicTable> HeuristicTableCache::BuildAndPublish(
    GridCoord goal, bool prefetched) const {
  const std::int64_t key = matrix_.Index(goal);
  Shard& shard = shard_of(key);

  Stopwatch watch;
  watch.Start();
  auto table = std::make_shared<const HeuristicTable>(
      matrix_, open(), goal,
      region_of_cell_.empty() ? nullptr : &region_of_cell_, region_count_);
  const std::int64_t lap_ns = watch.Stop();
  build_ns_.fetch_add(lap_ns, std::memory_order_relaxed);
  if (prefetched) {
    prefetch_build_ns_.fetch_add(lap_ns, std::memory_order_relaxed);
  }

  std::unique_lock<std::mutex> lock(shard.mu);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (!shard.ever_built.insert(key).second) {
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }
  Entry& entry = shard.entries.at(key);
  entry.table = table;
  entry.building = false;
  shard.lru.push_front(key);
  entry.lru_it = shard.lru.begin();
  shard.bytes += table_bytes_;
  while (shard.bytes > shard_budget_bytes_ && shard.lru.size() > 1) {
    const std::int64_t victim = shard.lru.back();
    shard.lru.pop_back();
    shard.entries.erase(victim);
    shard.bytes -= table_bytes_;
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  lock.unlock();
  shard.published.notify_all();
  return table;
}

HeuristicCacheStats HeuristicTableCache::stats() const {
  HeuristicCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  out.prefetch_scheduled =
      prefetch_scheduled_.load(std::memory_order_relaxed);
  out.prefetch_hits = prefetch_hits_.load(std::memory_order_relaxed);
  out.prefetch_late = prefetch_late_.load(std::memory_order_relaxed);
  out.build_seconds =
      static_cast<double>(build_ns_.load(std::memory_order_relaxed)) * 1e-9;
  out.prefetch_build_seconds =
      static_cast<double>(
          prefetch_build_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.bytes += shard.bytes;
    out.tables += shard.lru.size();
  }
  return out;
}

void HeuristicTableCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Entries mid-build are left alone; their builder will publish into a
    // fresh LRU and the table stays reachable.
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->second.building) {
        ++it;
      } else {
        shard.lru.erase(it->second.lru_it);
        shard.bytes -= table_bytes_;
        it = shard.entries.erase(it);
      }
    }
    shard.ever_built.clear();
  }
}

}  // namespace carp::core
