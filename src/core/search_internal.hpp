#pragma once

// Internal machinery of the region-allocation search (src/core/search.cpp):
// the incremental search state, the move apply/undo records, the canonical
// scheme ordering, and the admissible completion lower bound that drives the
// branch-and-bound pruning. Exposed in a header (rather than search.cpp's
// anonymous namespace) so the white-box test suites can exercise the bound's
// admissibility/monotonicity contracts and the undo algebra directly, and so
// the benches can reproduce search decisions. Not part of the public API:
// everything here may change shape between releases; link against
// search_partitioning() for stable behaviour.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/base_partition.hpp"
#include "core/compatibility.hpp"
#include "core/scheme.hpp"
#include "core/search.hpp"
#include "device/resources.hpp"
#include "device/tiles.hpp"
#include "util/bitset.hpp"

namespace prpart::search_internal {

// Heuristic weights for collapsing a ResourceVec into one scalar: frames per
// primitive (x10), i.e. the configuration-memory cost of one unit of each
// resource. Only used to rank states; all reported numbers stay in frames.
constexpr std::uint64_t kWClb = 18;   // 36 frames / 20 CLBs
constexpr std::uint64_t kWBram = 75;  // 30 frames / 4 BRAMs
constexpr std::uint64_t kWDsp = 35;   // 28 frames / 8 DSPs

/// Header-inline: the move scan computes the objective of every considered
/// move through these two, tens of millions of times per search.
inline std::uint64_t weighted_area(const ResourceVec& r) {
  return r.clbs * kWClb + r.brams * kWBram + r.dsps * kWDsp;
}

/// Weighted amount by which `used` exceeds `budget` (0 when it fits).
inline std::uint64_t budget_excess(const ResourceVec& used,
                                   const ResourceVec& budget) {
  auto over = [](std::uint32_t u, std::uint32_t b) -> std::uint64_t {
    return u > b ? u - b : 0;
  };
  return over(used.clbs, budget.clbs) * kWClb +
         over(used.brams, budget.brams) * kWBram +
         over(used.dsps, budget.dsps) * kWDsp;
}

/// Lexicographic objective: first fit (budget excess), then — once fitting —
/// total reconfiguration time with area as tie-break; while not fitting,
/// area (the route towards fitting) with time as tie-break.
struct Objective {
  std::uint64_t excess;
  std::uint64_t primary;
  std::uint64_t secondary;

  bool operator<(const Objective& o) const {
    if (excess != o.excess) return excess < o.excess;
    if (primary != o.primary) return primary < o.primary;
    return secondary < o.secondary;
  }
};

/// The member-set-determined part of a region's cost model: every field is a
/// pure function of the set of base partitions in the region (areas are
/// element-wise maxima, tw_union sums pair weights over the occupancy
/// union). merged_group_cost computes it; the search's move table keeps it
/// per group pair.
struct GroupCost {
  ResourceVec raw;             ///< element-wise max of member areas (Eq. 2)
  TileCount tiles;             ///< Eqs. 3-5 on raw
  std::uint64_t frames = 0;    ///< Eq. 6
  std::uint64_t tw_union = 0;  ///< pair weight over the occupancy union
};

/// One region-in-progress: a set of base partitions plus the incremental
/// cost-model quantities needed to evaluate moves in O(1).
///
/// The pair bookkeeping is weight-generalised: tw_union is the summed
/// weight of all configuration pairs where the group is active in both,
/// tw_same the part where the *same* member is active in both. Their
/// difference, times frames, is the group's (possibly weighted) Eq. 10
/// term. With uniform weights tw_union = C(|occ|, 2).
///
/// `members` is kept sorted at all times: canonical_key relies on it.
struct Group {
  std::vector<std::size_t> members;
  DynBitset occ;             ///< union of member occupancies (configs)
  ResourceVec raw;           ///< element-wise max of member areas (Eq. 2)
  ResourceVec promote_area;  ///< element-wise SUM (cost of going static)
  TileCount tiles;           ///< Eqs. 3-5 on raw
  std::uint64_t frames = 0;  ///< Eq. 6
  std::uint64_t occ_count = 0;  ///< |occ| (uniform-weight fast path)
  std::uint64_t tw_union = 0;   ///< pair weight over occ x occ
  std::uint64_t tw_same = 0;    ///< pair weight kept by one member
  std::uint64_t contrib = 0;    ///< this region's term of Eq. 10
  bool alive = true;
};

struct State {
  std::vector<Group> groups;
  std::vector<std::size_t> static_members;
  ResourceVec static_extra;  ///< promoted partitions, raw sum
  ResourceVec pr_res;        ///< tile-rounded region footprints, summed
  std::uint64_t ttotal = 0;
  std::size_t alive = 0;

  ResourceVec total_res(const ResourceVec& static_base) const {
    return pr_res + static_base + static_extra;
  }
};

struct Move {
  enum class Kind : std::uint8_t { Merge, Promote } kind = Kind::Merge;
  std::size_t a = 0, b = 0;
};

/// Summed weight over unordered pairs within `occ`.
std::uint64_t pair_weight_within(const PairWeights* weights,
                                 const DynBitset& occ);

/// Summed weight over pairs with one configuration in each (disjoint)
/// occupancy set.
std::uint64_t pair_weight_between(const PairWeights* weights, const Group& a,
                                  const Group& b);

/// All currently valid moves on `s`, in the canonical (i, j) enumeration
/// order shared by every execution mode.
std::vector<Move> moves_of(const State& s, bool allow_static_promotion);

/// The member-set-determined cost of merging `a` and `b`: O(1) without pair
/// weights, O(|occ a| x |occ b|) with them.
GroupCost merged_group_cost(const Group& a, const Group& b,
                            const PairWeights* weights);

/// Initial state of one candidate partition set: every base partition in its
/// own region (zero reconfiguration time, maximum area).
State initial_state(const std::vector<BasePartition>& partitions,
                    const CompatibilityTable& compat,
                    const PairWeights* weights,
                    const std::vector<std::size_t>& candidate);

/// Everything needed to reverse one applied move in O(configs): the prior
/// scalar totals wholesale plus group `a`'s prior fields (a merge rewrites
/// them; `b` only flips `alive`). The merged occupancy union is reversed
/// exactly by subtracting `b`'s bits — merges require disjoint occupancies.
struct UndoRecord {
  Move move;
  ResourceVec prior_pr_res;
  ResourceVec prior_static_extra;
  std::uint64_t prior_ttotal = 0;
  std::size_t prior_static_count = 0;
  std::vector<std::size_t> prior_members;
  ResourceVec prior_raw;
  ResourceVec prior_promote_area;
  TileCount prior_tiles;
  std::uint64_t prior_frames = 0;
  std::uint64_t prior_occ_count = 0;
  std::uint64_t prior_tw_union = 0;
  std::uint64_t prior_tw_same = 0;
  std::uint64_t prior_contrib = 0;
  /// Slot for the caller's move-table version stamp of group `a` (the only
  /// group a move rewrites); apply/undo themselves do not touch it.
  std::uint64_t prior_version = 0;
};

/// Applies `move` to `s` and returns the record that undoes it. For merges,
/// `merge_cost` must be the merged_group_cost of the two groups (possibly
/// from the move table); promotes ignore it.
UndoRecord apply_move(State& s, const Move& move, const GroupCost* merge_cost);

/// apply_move writing into a caller-owned record: with a pooled UndoRecord
/// (the search keeps one per possible depth) the member-list copy reuses the
/// record's buffer, so steady-state apply/undo cycles never allocate.
void apply_move_into(State& s, const Move& move, const GroupCost* merge_cost,
                     UndoRecord& undo);

/// Reverses the most recent un-undone apply_move. Records must be undone in
/// strict LIFO order. The record stays intact (and reusable).
void undo_move(State& s, UndoRecord& undo);

/// Canonicalised copy of the grouping in `s`: members sorted within each
/// region, regions sorted lexicographically, static members sorted. Equal
/// groupings render identically, so schemes can be deduplicated and ordered
/// independently of the order in which threads discovered them — and the
/// result_io serialisation of the returned scheme is reproducible. The
/// reference for canonical_key/scheme_from_key, which the search uses.
PartitionScheme canonical_scheme(const State& s);

/// Injective flat encoding of a canonical scheme (sizes delimit the member
/// lists). Lexicographic order on the encoding is the final tie-break of
/// the leaderboard's total order, and equality is the exact deduplication
/// criterion — no hash collisions can alias two distinct groupings.
std::vector<std::uint64_t> scheme_key(const PartitionScheme& scheme);

/// Reusable buffers of canonical_key: after warm-up, encoding a state
/// touches no allocator.
struct KeyScratch {
  std::vector<std::size_t> order;    ///< alive groups, in canonical order
  std::vector<std::size_t> statics;  ///< sorted static members
  std::vector<std::uint64_t> key;
};

/// scheme_key(canonical_scheme(s)), written straight from the state into
/// `scratch.key` (and returned) without building the scheme. Relies on the
/// Group::members sortedness invariant.
const std::vector<std::uint64_t>& canonical_key(const State& s,
                                                KeyScratch& scratch);

/// Inverse of scheme_key: the canonical scheme a key encodes (empty label).
PartitionScheme scheme_from_key(const std::vector<std::uint64_t>& key);

/// A leaderboard entry: the objective and the canonical key. Schemes are
/// decoded from the keys of the final entries only.
struct Kept {
  std::uint64_t ttotal = 0;
  std::uint64_t warea = 0;
  std::vector<std::uint64_t> key;
};

/// Offers the entry (ttotal, warea, key) to the leaderboard `kept`, kept
/// sorted by (ttotal, warea, key), dropping exact duplicates and trimming
/// to `keep` entries. Because that order is total and duplicates compare
/// equal, the final leaderboard is independent of the offer order — the
/// keystone of thread-count-independent results. An entry that does not
/// enter costs no allocation; one that enters a full board reuses the
/// evicted entry's key storage.
void offer_kept(std::vector<Kept>& kept, std::uint64_t ttotal,
                std::uint64_t warea, const std::vector<std::uint64_t>& key,
                std::size_t keep);

/// completion_lower_bound's value when the state's static area already
/// exceeds the weighted budget: no completion can fit, so the subtree is
/// prunable against any leaderboard.
constexpr std::uint64_t kNoFittingCompletion = ~std::uint64_t{0};

/// Knapsack item of completion_lower_bound: promoting the group at `slot`
/// frees `value` weighted frames of Eq. 10 contribution at a static-area
/// price of `price`.
struct PromoteItem {
  std::uint64_t value = 0;
  std::uint64_t price = 0;
  std::size_t slot = 0;
};

/// Admissible lower bound on the weighted total reconfiguration time
/// (Eq. 10, scaled by SearchOptions::pair_weights when present) of every
/// *fitting* completion of `s` — every state reachable from `s` through
/// merge/promote moves whose total area fits `budget`.
///
/// Derivation (DESIGN.md has the full argument):
///  * merges only grow a region's Eq. 10 term (frames are monotone under
///    the element-wise area max of Eq. 2, and merged groups inherit all
///    reconfiguration pairs of Eq. 8), so the only way a completion can
///    beat s.ttotal is by promoting groups to static;
///  * the element-wise fit is relaxed to scalar projections (the combined
///    area weights plus each resource alone); under a projection p, any
///    fitting completion that keeps at least one region satisfies
///      sum_{g in P} p(promote_area(g)) <= p(budget) - p(static area)
///                                          - min_g p(footprint(g)),
///    because regions only grow under merges, while the promote-everything
///    completion needs the summed promotion price within the capacity;
///  * the best removable contribution under that scalar constraint is
///    bounded by the fractional-knapsack (Dantzig) optimum, computed here
///    exactly in integer arithmetic; the final bound is the maximum over
///    the projections.
///
/// The bound is monotone along any decision path: applying a move to `s`
/// never lowers it (a subtree pruned at its root stays prunable all the way
/// down). Returns kNoFittingCompletion when provably no completion fits.
///
/// `items` is the caller-owned knapsack buffer (the search keeps one per
/// worker), so repeated bounds never allocate.
std::uint64_t completion_lower_bound(const State& s,
                                     const ResourceVec& static_base,
                                     const ResourceVec& budget,
                                     bool allow_static_promotion,
                                     std::vector<PromoteItem>& items);

/// The sterile test alone: true exactly when completion_lower_bound returns
/// kNoFittingCompletion, i.e. under some projection either the static area
/// exceeds the budget or alive groups remain and neither promoting them all
/// nor keeping one region fits. One pass over the groups and no knapsack,
/// so the search runs it on every unit and computes the bound's value only
/// where a full leaderboard or the bound statistics need it.
bool no_fitting_completion(const State& s, const ResourceVec& static_base,
                           const ResourceVec& budget,
                           bool allow_static_promotion);

}  // namespace prpart::search_internal
