#pragma once

#include <cstdint>
#include <vector>

#include "core/base_partition.hpp"
#include "core/compatibility.hpp"
#include "core/covering.hpp"
#include "core/scheme.hpp"
#include "device/resources.hpp"
#include "util/cancel.hpp"

namespace prpart {

/// Outcome of fit_check().
enum class FitVerdict : std::uint8_t {
  /// No candidate set holds a scheme that fits: the region-allocation
  /// search on the same sets and budget returns `feasible == false`.
  ProvenNone,
  /// A fitting scheme exists (FitCheck::witness).
  Witness,
  /// The state cap stopped the check before it settled.
  Unknown,
};

struct FitCheck {
  FitVerdict verdict = FitVerdict::Unknown;
  /// Depth-first states visited, over every set the check opened.
  std::uint64_t states = 0;
  /// With a witness: a fitting scheme over one set's base partitions.
  PartitionScheme witness;
};

/// States fit_check() may visit per call before it answers Unknown. The
/// largest call on the paper's 1000-design sweep visits 18306, so every
/// rung there settles with room to spare; on wide designs the cap bounds
/// a call to a few milliseconds.
inline constexpr std::uint64_t kFitCheckStateCap = 100'000;

/// Decides whether any assignment of a candidate set's base partitions fits
/// `budget`: each partition goes into a region (whose members' occupancies
/// are pairwise disjoint, as every search merge requires) or, with
/// `allow_static_promotion`, into the static logic. Area follows the
/// search's record() exactly: static_base + promoted raw areas + the
/// tile-rounded element-wise max of each region. Every state the search
/// can record is such an assignment, so ProvenNone means the search finds
/// nothing (DESIGN.md, "Ladder fit check").
///
/// Depth-first over each set in turn: partitions by weighted area, largest
/// first (ties by index); each joins a compatible open region, opens one
/// fresh region, or goes static; a branch is cut as soon as its running
/// area overflows the budget, which is sound because area only grows as
/// partitions join. Visits at most kFitCheckStateCap states, and polls
/// `cancel` (nullable) every 1024 states, throwing CancelledError when it
/// fires.
FitCheck fit_check(const std::vector<BasePartition>& partitions,
                   const CompatibilityTable& compat, const CandidateSets& sets,
                   const ResourceVec& static_base, const ResourceVec& budget,
                   bool allow_static_promotion,
                   const CancelToken* cancel = nullptr);

}  // namespace prpart
