#ifndef CARP_SRP_COLLISION_KERNEL_H_
#define CARP_SRP_COLLISION_KERNEL_H_

#include <cstdint>
#include <limits>

namespace carp::srp::internal_store {

/// Slots per SoA block the lane kernels consume in one call. Must equal
/// kSegmentBlockSize (static_asserted where the stores use these kernels);
/// kept as its own constant so this header has no store dependencies.
inline constexpr std::size_t kKernelBlockSlots = 64;

/// Minimum number of slots a scan must cover inside a block before the
/// lane kernels are worth dispatching. A lane call always pays for the
/// whole 64-slot block, while the scalar loops early-exit — on the
/// slope-indexed store's tiny scan windows (typically a handful of slots)
/// the scalar loop wins outright. Gating on the in-block span is
/// parity-safe because both paths produce identical answers and identical
/// examined/pruned tallies; only lanes_processed/lanes_survived (lane-only
/// diagnostics) change. Tuned on the W-2 churn workload: an AVX2 call is a
/// dozen vector ops and already beats the scalar loop on short
/// partial-edge spans.
inline constexpr std::size_t kMinLaneSpanAvx2 = 4;

/// Narrows an int64 scan threshold to int32 for the lane kernels' 32-bit
/// compares. Deliberately *strict* at both rails: a threshold equal to
/// INT32_MIN/INT32_MAX is rejected, which guarantees the sentinel-poisoned
/// tail slots (t0 = INT32_MAX, t1 = INT32_MIN, ...) fail every lane
/// prefilter for any probe that passes this narrowing. Callers fall back to
/// the scalar loop when narrowing fails — probes that far outside the
/// 32-bit coordinate domain cannot match stored segments anyway.
inline bool NarrowToI32(std::int64_t v, std::int32_t* out) {
  if (v <= std::numeric_limits<std::int32_t>::min() ||
      v >= std::numeric_limits<std::int32_t>::max()) {
    return false;
  }
  *out = static_cast<std::int32_t>(v);
  return true;
}

/// A collision candidate's prefilter envelope, narrowed to the stores'
/// 32-bit coordinate domain: time window, position extent, and the per-
/// slope rotated line-key interval (Eq. 4, indexed by slope + 1). One of
/// these is built per query and shared by every block the scan visits.
struct SegmentProbe {
  std::int32_t ct0 = 0;
  std::int32_t ct1 = 0;
  std::int32_t min_pos = 0;
  std::int32_t max_pos = 0;
  std::int32_t klo[3] = {0, 0, 0};
  std::int32_t khi[3] = {0, 0, 0};
};

/// Fills `out` from the candidate's exact int64 envelope; false when any
/// component will not narrow (caller then scans that query scalar).
bool BuildSegmentProbe(std::int64_t ct0, std::int64_t cp0, std::int64_t ct1,
                       std::int64_t cp1, const std::int64_t klo[3],
                       const std::int64_t khi[3], SegmentProbe* out);

/// Bit i of each mask describes slot i of the 64-slot block (bit 0 = first
/// slot). All kernels read whole, padded, 64-byte-aligned blocks — no
/// range masking — relying on the sentinel tails to self-exclude.
///
/// `time` is the set the scalar loop would run its counted prefilters on
/// (live with overlapping time span); `survivors` additionally pass the
/// position-extent and line-key prefilters and are the only slots the
/// exact packed predicate runs on. For every kernel and any block,
/// popcount(time) - popcount(survivors) slots were "pruned by summary" and
/// popcount(survivors) were "examined" — identical to the scalar tallies.
struct SurvivorMasks {
  std::uint64_t time = 0;
  std::uint64_t survivors = 0;
};

/// The kernels are hand-written AVX2 intrinsics compiled with a
/// per-function target attribute, so no file in the build needs -mavx2 and
/// non-AVX2 hosts simply never call them (the stores gate every call on a
/// resolved kAvx2). Builds that cannot compile the intrinsics abort if one
/// is called. Every mask is bit-identical to the scalar loop's tallies.
SurvivorMasks SegmentSurvivorsAvx2(const std::int32_t* t0,
                                   const std::int32_t* p0,
                                   const std::int32_t* t1,
                                   const std::int32_t* p1,
                                   const std::uint8_t* dead,
                                   const SegmentProbe& probe);

/// Point-occupancy masks: `covering` = live slots whose time span covers
/// `t` (the scalar loop's examined set); `hits` = covering slots whose
/// position at time t equals `pos` (hits ⊆ covering).
struct OccupancyMasks {
  std::uint64_t covering = 0;
  std::uint64_t hits = 0;
};

OccupancyMasks SegmentOccupancyAvx2(const std::int32_t* t0,
                                    const std::int32_t* p0,
                                    const std::int32_t* t1,
                                    const std::int32_t* p1,
                                    const std::uint8_t* dead, std::int32_t t,
                                    std::int32_t pos);

/// Forward same-line bucket scan over a LineIndex block ((key, t0, t1)
/// columns, sorted by (key, t0)): `hits` = live entries on the probed line
/// whose span overlaps [ct0, ct1]; `stops` = slots that end the whole scan
/// (key past the bucket, or start time past ct1 — liveness is irrelevant
/// to stopping, exactly as in the scalar loop). The tail key sentinel
/// (INT64_MAX) reads as a stop, so a scan that runs off the logical end
/// terminates for the same reason the scalar loop does.
struct LineForwardMasks {
  std::uint64_t hits = 0;
  std::uint64_t stops = 0;
};

LineForwardMasks LineForwardAvx2(const std::int64_t* key,
                                 const std::int32_t* t0,
                                 const std::int32_t* t1,
                                 const std::uint8_t* dead,
                                 std::int64_t probe_key, std::int32_t ct0,
                                 std::int32_t ct1);

/// Backward line-cover scan masks. The caller walks blocks from the upper
/// bound downward and decides at the *highest* set bit of
/// (hits | key_below | below_reach), respecting the scalar precedence:
/// key_below ends the scan unexamined, a hit answers true, below_reach
/// ends it after examination.
struct LineCoverMasks {
  std::uint64_t hits = 0;
  std::uint64_t key_below = 0;
  std::uint64_t below_reach = 0;
};

LineCoverMasks LineCoverAvx2(const std::int64_t* key, const std::int32_t* t0,
                             const std::int32_t* t1, const std::uint8_t* dead,
                             std::int64_t probe_key, std::int32_t t,
                             std::int32_t cutoff);

}  // namespace carp::srp::internal_store

#endif  // CARP_SRP_COLLISION_KERNEL_H_
