#ifndef CARP_CORE_HEURISTIC_TABLE_H_
#define CARP_CORE_HEURISTIC_TABLE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "core/warehouse.h"

namespace carp {
class ThreadPool;
}  // namespace carp

namespace carp::core {

/// Which lower bound guides the space-time searches.
///
///   kManhattan — the classic closed-form bound. Free to evaluate, but weak
///     on warehouse maps where 2 x l rack clusters force long detours.
///   kTable — per-goal true shortest grid distance, precomputed by one
///     backward BFS and cached across queries (warehouse destinations —
///     picker stations and rack faces — repeat thousands of times, so the
///     build cost amortises to near zero; the WPPL / LNS2 idiom).
enum class HeuristicMode : std::uint8_t { kManhattan = 0, kTable = 1 };

std::string_view ToString(HeuristicMode mode);
std::optional<HeuristicMode> ParseHeuristicMode(std::string_view text);

/// Per-cell 4-bit open-neighbour mask of a matrix: bit kWest / kEast /
/// kNorth / kSouth of cell i is set when that neighbour is in bounds and
/// traversable. Built in one row-major pass; a table build walks it with
/// `index ± 1` / `index ± width` offsets, so the BFS needs no coordinate
/// arithmetic and no bounds checks. HeuristicTableCache builds one per
/// matrix and shares it across every table build.
class NeighbourMask {
 public:
  static constexpr std::uint8_t kWest = 1;
  static constexpr std::uint8_t kEast = 2;
  static constexpr std::uint8_t kNorth = 4;
  static constexpr std::uint8_t kSouth = 8;

  explicit NeighbourMask(const WarehouseMatrix& matrix);

  std::uint8_t operator[](std::size_t index) const { return bits_[index]; }

 private:
  std::vector<std::uint8_t> bits_;  // indexed by matrix.Index(cell)
};

/// True shortest-distance table of one goal cell: the length of the
/// shortest collision-oblivious route from each cell to `goal`, or
/// kInfiniteTime when no such route exists. Built by one backward BFS over
/// the matrix (moves are symmetric, so backward = forward distances).
///
/// The goal itself may be a rack cell (it is entered as an endpoint only,
/// matching SpaceTimeAStarOptions::allow_endpoint_racks); every other rack
/// cell keeps kInfiniteTime. All intermediate steps go through aisle cells.
///
/// ## Half-delta encoding (DESIGN.md §2j)
///
/// A cell stores `s = (d − Manhattan(cell, goal)) / 2` as one byte. The
/// grid is bipartite, so d and Manhattan share their parity and s is an
/// integer; d never undercuts Manhattan, so s >= 0. 0xFF is the
/// "unreachable" sentinel and s saturates at 0xFE (Manhattan + 508).
/// Lookups decode `Manhattan + 2·s`: exact below saturation (the paper
/// warehouses peak at s = 3), and admissible and consistent at it — along
/// one step d and Manhattan each move by exactly 1, so s moves by 0 or ±1
/// and the clamped bound still moves by at most 1.
///
/// Immutable after construction, so a const table is safe to share across
/// threads without synchronisation.
class HeuristicTable {
 public:
  /// Encoded "no route" sentinel.
  static constexpr std::uint8_t kUnreachable = 0xFF;
  /// Largest encodable half-delta; longer detours saturate here.
  static constexpr std::uint8_t kMaxHalfDelta = 0xFE;
  /// RegionMin's "no route" sentinel; region minima saturate one below.
  static constexpr std::uint16_t kUnreachable16 = 0xFFFF;

  /// Builds the table over a precomputed open-neighbour mask of `matrix`.
  /// When `region_of_cell` is non-null (size CellCount, entries in
  /// [0, region_count) or negative for "no region"), per-region distance
  /// minima are collected as well — SRP passes its strip ids here, which
  /// yields the strip-level distance table of the strip-graph search.
  HeuristicTable(const WarehouseMatrix& matrix, const NeighbourMask& open,
                 GridCoord goal,
                 const std::vector<std::int32_t>* region_of_cell = nullptr,
                 std::size_t region_count = 0);

  /// Stand-alone build (tests and oracles): computes the mask for this one
  /// table. Cached builds share the cache's mask instead.
  HeuristicTable(const WarehouseMatrix& matrix, GridCoord goal,
                 const std::vector<std::int32_t>* region_of_cell = nullptr,
                 std::size_t region_count = 0)
      : HeuristicTable(matrix, NeighbourMask(matrix), goal, region_of_cell,
                       region_count) {}

  GridCoord goal() const { return goal_; }

  /// Exact distance from `cell` to the goal (below saturation), or
  /// kInfiniteTime when the goal is unreachable from `cell` (rack cells,
  /// disconnected pockets).
  TimeStep At(GridCoord cell) const {
    const std::uint8_t s = half_delta_[Slot(cell)];
    return s == kUnreachable ? kInfiniteTime
                             : ManhattanDistance(cell, goal_) + 2 * TimeStep{s};
  }

  /// Admissible lower bound usable from *any* cell: the table distance
  /// where it is finite, Manhattan otherwise (Manhattan never exceeds the
  /// true distance, so the fallback stays admissible; finite cells never
  /// neighbour infinite traversable cells — BFS floods whole components —
  /// so the combined bound is also consistent).
  TimeStep LowerBound(GridCoord cell) const {
    const std::uint8_t s = half_delta_[Slot(cell)];
    const TimeStep manhattan = ManhattanDistance(cell, goal_);
    return s == kUnreachable ? manhattan : manhattan + 2 * TimeStep{s};
  }

  /// Starts pulling `cell`'s table line toward L1 ahead of a LowerBound
  /// call. Pure latency hint with no architectural effect: the strip
  /// searches touch a different goal's table on nearly every query, so
  /// these scattered loads rarely hit cache; issuing the hints for a whole
  /// adjacency batch overlaps the misses instead of paying them serially
  /// at each edge relaxation.
  void PrefetchCell(GridCoord cell) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(half_delta_.data() + Slot(cell));
#endif
  }

  /// Minimum table distance over the cells of `region`, or kInfiniteTime
  /// when no cell of the region reaches the goal (or no region map was
  /// supplied). An admissible strip-level bound: no route can reach the
  /// goal from anywhere in the region in fewer steps.
  TimeStep RegionMin(std::int32_t region) const {
    const auto r = static_cast<std::size_t>(region);
    if (r >= region_min_.size() || region_min_[r] == kUnreachable16) {
      return kInfiniteTime;
    }
    return region_min_[r];
  }

  /// The largest distance the encoding can hold at `cell`: Manhattan plus
  /// the saturated half-delta. CorruptForTest clamps overestimates here.
  TimeStep LargestEncodable(GridCoord cell) const {
    return ManhattanDistance(cell, goal_) + 2 * TimeStep{kMaxHalfDelta};
  }

  std::size_t RetainedBytes() const {
    return half_delta_.capacity() * sizeof(std::uint8_t) +
           region_min_.capacity() * sizeof(std::uint16_t);
  }

  /// Bytes one table of this matrix/region shape will retain — what the
  /// cache charges against its budget, known before any table is built.
  static std::size_t BytesFor(const WarehouseMatrix& matrix,
                              std::size_t region_count) {
    return static_cast<std::size_t>(matrix.CellCount()) *
               sizeof(std::uint8_t) +
           region_count * sizeof(std::uint16_t);
  }

  /// TEST ONLY — overwrites one entry, deliberately breaking the
  /// "immutable after construction" contract. The differential harness's
  /// kCorruptHeuristicEntry calibration uses it to prove the paired
  /// cost-mismatch audit catches an inadmissible table (the heuristic
  /// sibling of the stores' CorruptSummaryForTest hooks). `value` goes
  /// through the table's own encoding: kInfiniteTime plants the sentinel,
  /// values past LargestEncodable(cell) plant that largest overestimate,
  /// and values below Manhattan decode as Manhattan. Never call on a table
  /// that is shared across threads.
  void CorruptForTest(GridCoord cell, TimeStep value) {
    half_delta_[Slot(cell)] =
        Encode(value, ManhattanDistance(cell, goal_));
  }

 private:
  std::size_t Slot(GridCoord cell) const {
    return static_cast<std::size_t>(matrix_.Index(cell));
  }
  static std::uint8_t Encode(TimeStep d, TimeStep manhattan) {
    if (d >= kInfiniteTime) return kUnreachable;
    const TimeStep half = (d - manhattan) / 2;
    if (half <= 0) return 0;
    return half >= kMaxHalfDelta ? kMaxHalfDelta
                                 : static_cast<std::uint8_t>(half);
  }

  const WarehouseMatrix& matrix_;
  GridCoord goal_;
  std::vector<std::uint8_t> half_delta_;   // indexed by matrix.Index(cell)
  std::vector<std::uint16_t> region_min_;  // indexed by region id
};

/// Counters of the shared heuristic-table cache; threaded through
/// PlannerStats into the bench tables and BENCH_*.json.
struct HeuristicCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;     // table built (or rebuilt after eviction)
  std::int64_t evictions = 0;  // tables dropped to respect the budget
  std::int64_t rebuilds = 0;   // builds of a goal built before (thrash)
  std::int64_t prefetch_scheduled = 0;  // Prefetch claimed a build slot
  std::int64_t prefetch_hits = 0;  // prefetched table was hot on first use
  std::int64_t prefetch_late = 0;  // demand arrived before the build ended
  double build_seconds = 0;     // BFS wall-clock, all builds
  double prefetch_build_seconds = 0;  // subset spent on pool workers
  std::size_t bytes = 0;       // bytes currently retained by cached tables
  std::size_t tables = 0;      // tables currently cached
};

/// Tuning knobs of HeuristicTableCache. (Hoisted out of the class so the
/// constructor's `= {}` default argument can see the member initializers —
/// GCC defers parsing nested-class NSDMIs to the enclosing class's end.)
struct HeuristicTableCacheOptions {
  /// Total byte budget across all shards. The default holds the whole
  /// goal working set of a cold day on the paper's largest warehouse
  /// (~680 one-byte W-3 tables) while still bounding pathological churn.
  std::size_t budget_bytes = 64ull << 20;

  /// Lock shards; goals hash across them so concurrent workers rarely
  /// contend. Clamped to >= 1.
  int shards = 8;
};

/// Shard-locked, memory-bounded LRU cache of per-goal HeuristicTables,
/// shared by a planner's serial path and all of its speculative query
/// workers.
///
/// ## Publication protocol
///
/// Tables are published as std::shared_ptr<const HeuristicTable> snapshots:
/// Acquire copies the pointer under the shard lock and the caller then
/// reads the (immutable) table lock-free for the rest of its search, even
/// if the entry is evicted mid-search — eviction only drops the cache's
/// reference. The shard lock is held for map/LRU bookkeeping only, never
/// during a BFS build.
///
/// ## Prefetch (DESIGN.md §2j)
///
/// Prefetch(goal, pool) claims the goal's build slot and schedules the BFS
/// on the shared thread pool instead of blocking the caller — the service
/// front-end warms every admitted destination this way, so by dispatch
/// time the table is usually hot. A prefetched build publishes through the
/// exact same slot/condvar protocol as a demand miss, so a racing Acquire
/// waits on it exactly as it would wait on another worker's build.
///
/// ## Determinism
///
/// QueryRoute must stay a pure function of committed planner state
/// (PlanBatch's speculative pipeline asserts serial == parallel results),
/// so Acquire never lets thread timing pick the heuristic:
///
///  - A goal whose table fits the budget always returns a table. When
///    another worker is mid-build for the same goal, Acquire blocks on the
///    shard's condition variable instead of falling back to Manhattan.
///  - nullptr ("use Manhattan") happens only when one table alone exceeds
///    a shard's budget — a property of the matrix and the configured
///    budget, identical for every thread interleaving.
///  - Evictions depend on LRU order (and therefore on timing), but only
///    decide *rebuilds*: a rebuilt table is bit-identical (it is a pure
///    function of the matrix and the goal), so results never change.
///  - Prefetch only moves *when* a build runs, never what it builds, so
///    prefetch on/off/raced yields bit-identical routes (the fingerprint
///    tests pin this).
class HeuristicTableCache {
 public:
  using Options = HeuristicTableCacheOptions;

  /// `region_of_cell` / `region_count` are forwarded to every table build
  /// (see HeuristicTable); pass SRP's strip ids to get strip-level minima.
  explicit HeuristicTableCache(const WarehouseMatrix& matrix,
                               const Options& options = {},
                               std::vector<std::int32_t> region_of_cell = {},
                               std::size_t region_count = 0);

  /// Returns the goal's table, building it on first use (misses block
  /// concurrent requests for the same goal until the build publishes).
  /// Returns nullptr only when a single table cannot fit the budget; the
  /// caller then uses Manhattan. Const and thread-safe — called from
  /// concurrent QueryRoute workers.
  std::shared_ptr<const HeuristicTable> Acquire(GridCoord goal) const;

  /// Non-blocking build hint: when the goal has no cached (or in-flight)
  /// table, claims its build slot and schedules the BFS on `pool`. No-op
  /// when the goal is already cached, already building, or a single table
  /// exceeds the shard budget. Const and thread-safe.
  void Prefetch(GridCoord goal, ThreadPool& pool) const;

  HeuristicCacheStats stats() const;

  /// Drops every cached table (tables still held by in-flight searches
  /// survive through their snapshots). Counters are kept, but the
  /// rebuild-tracking goal set resets: an explicit invalidation is not
  /// eviction thrash.
  void Clear();

  std::size_t table_bytes() const { return table_bytes_; }

 private:
  struct Entry {
    std::shared_ptr<const HeuristicTable> table;  // null while building
    std::list<std::int64_t>::iterator lru_it;     // valid once published
    bool building = false;
    bool prefetched = false;  // build claimed by Prefetch, not yet consumed
  };
  struct Shard {
    mutable std::mutex mu;
    mutable std::condition_variable published;
    std::unordered_map<std::int64_t, Entry> entries;
    std::list<std::int64_t> lru;  // front = most recently used
    std::size_t bytes = 0;
    /// Goals ever built since construction (or the last Clear): a build
    /// whose key is already here is an eviction-thrash rebuild.
    std::unordered_set<std::int64_t> ever_built;
  };

  Shard& shard_of(std::int64_t key) const {
    // SplitMix64 finalizer spreads consecutive cell indices across shards.
    std::uint64_t x = static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return shards_[static_cast<std::size_t>(x % shards_.size())];
  }

  /// Shared tail of the demand-miss and prefetch paths: builds the goal's
  /// table outside any lock, publishes it into the shard (miss counter,
  /// LRU front, byte charge, budget evictions), and wakes waiters. The
  /// caller must already hold the goal's build slot (entry.building).
  std::shared_ptr<const HeuristicTable> BuildAndPublish(GridCoord goal,
                                                        bool prefetched) const;

  /// The matrix's open-neighbour mask, built by the first table build
  /// (so constructing a planner stays free) and shared by all later ones.
  const NeighbourMask& open() const;

  const WarehouseMatrix& matrix_;
  mutable std::once_flag open_once_;
  mutable std::optional<NeighbourMask> open_;
  std::vector<std::int32_t> region_of_cell_;
  std::size_t region_count_ = 0;
  std::size_t table_bytes_ = 0;        // per-table cost, fixed by the matrix
  std::size_t shard_budget_bytes_ = 0;
  mutable std::vector<Shard> shards_;

  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable std::atomic<std::int64_t> evictions_{0};
  mutable std::atomic<std::int64_t> rebuilds_{0};
  mutable std::atomic<std::int64_t> prefetch_scheduled_{0};
  mutable std::atomic<std::int64_t> prefetch_hits_{0};
  mutable std::atomic<std::int64_t> prefetch_late_{0};
  mutable std::atomic<std::int64_t> build_ns_{0};
  mutable std::atomic<std::int64_t> prefetch_build_ns_{0};
};

}  // namespace carp::core

#endif  // CARP_CORE_HEURISTIC_TABLE_H_
