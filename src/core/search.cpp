#include "core/search.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <optional>
#include <utility>

#include "core/covering.hpp"
#include "core/eval_kernel.hpp"
#include "core/search_internal.hpp"
#include "util/parallel_for.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace prpart {

namespace {

using namespace search_internal;  // NOLINT(google-build-using-namespace)

/// One independent greedy descent: a candidate set's initial state,
/// optionally forced through a distinct first move (§IV-C's restarts).
struct Unit {
  std::size_t set = 0;
  std::optional<Move> first;
};

struct UnitOutcome {
  std::vector<Kept> kept;          ///< unit-local leaderboard
  std::uint64_t evals = 0;         ///< move evaluations consumed
  std::uint64_t cap = 0;           ///< evaluation cap the unit ran with
  bool truncated = false;          ///< stopped because evals reached cap
  bool ran = false;
  bool pruned_speculative = false; ///< skipped on its bound vs the hint
  std::size_t greedy_runs = 0;
  std::uint64_t states_recorded = 0;
  std::uint64_t full_evaluations = 0;  ///< merge costs computed from scratch
  std::uint64_t moves_rescored = 0;    ///< served by the move table
};

/// The branch-and-bound verdict on a unit's start state, filled in on
/// demand: the sterile test whenever the unit is reached, the knapsack
/// value only when a full leaderboard must be compared against it or the
/// unit recorded entries (bound_lb_sum). Both are pure functions of the
/// unit, so whichever phase computes them first, the values are the same.
struct UnitBound {
  bool tested = false;  ///< `sterile` is known
  bool sterile = false; ///< no completion of the start state fits
  bool valued = false;  ///< `lb` is known
  std::uint64_t lb = 0; ///< completion_lower_bound of the start state
};

/// Shared *hint* of the worst kept leaderboard objective, fed by finished
/// units and read (relaxed) by workers to skip units whose completion lower
/// bound cannot enter the board. Purely speculative: the canonical merge
/// re-decides every prune from the deterministic board, replaying units the
/// hint skipped wrongly, so thread interleaving never leaks into results.
class BoundHint {
 public:
  explicit BoundHint(std::size_t keep) : keep_(keep) {}

  /// Worst kept objective once the board is full; UINT64_MAX (prunes
  /// nothing) before that.
  std::uint64_t worst() const { return worst_.load(std::memory_order_relaxed); }

  void offer(const std::vector<Kept>& entries) {
    if (entries.empty()) return;
    const MutexLock lock(mutex_);
    for (const Kept& e : entries)
      offer_kept(kept_, e.ttotal, e.warea, e.key, keep_);
    if (kept_.size() >= keep_)
      worst_.store(kept_.back().ttotal, std::memory_order_relaxed);
  }

 private:
  const std::size_t keep_;
  Mutex mutex_{lock_order::Level::kSearchBoundHint, "search.bound_hint"};
  std::vector<Kept> kept_ PRPART_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> worst_{~std::uint64_t{0}};
};

/// Merge-cost memo entry, valid while both groups' version stamps match
/// (stamps change only when a merge rewrites group `a`; undo restores them,
/// so entries survive across the restarts of a set). Only compatible merges
/// are entered — the compatibility rows filter the rest before the table is
/// consulted.
struct MergeEntry {
  std::uint64_t va = 0, vb = 0;  ///< 0 never matches a live version
  GroupCost cost;
};

/// Everything a search worker would otherwise rebuild per candidate set,
/// kept warm across every set, restart and bound its thread runs, and
/// across searches on a persistent pool thread (DESIGN.md §4e). After
/// warm-up a restart touches the allocator only when a state enters its
/// leaderboard. Holds no reference into any search: every use starts by
/// loading a state, so a search that unwinds (cancellation) leaves nothing
/// behind that a later one could read.
struct Workspace {
  State s;                              ///< moves are applied in place
  std::vector<UndoRecord> undo_stack;   ///< pooled records, one per depth
  std::vector<std::uint64_t> versions;  ///< per-group move-table stamps
  /// Last stamp issued. Never reset: stamps are unique over the
  /// workspace's lifetime, so entries an earlier set or search left in the
  /// table never match and a reloaded table behaves exactly like a fresh
  /// one.
  std::uint64_t version_counter = 0;
  bool table_on = false;                ///< move table + compat rows in use
  std::vector<MergeEntry> table;        ///< n x n when table_on
  std::size_t words = 0;                ///< words per bit row, ceil(n / 64)
  std::vector<std::uint64_t> compat;    ///< n rows: bit j = disjoint occs
  std::vector<std::uint64_t> row_undo;  ///< saved compat rows, per depth
  std::vector<std::uint64_t> alive_mask;  ///< bit g = group g alive
  KeyScratch key;                       ///< record()'s canonical key
  std::vector<PromoteItem> bound_items; ///< the bound's knapsack buffer

  /// Copies `initial` in, reusing the groups' member and occupancy
  /// buffers, and grows the undo pool to one record per possible move.
  void load(const State& initial) {
    s = initial;
    if (undo_stack.size() < s.groups.size())
      undo_stack.resize(s.groups.size());
  }
};

/// The calling thread's workspace. Units run to completion on one thread
/// and never nest, so one per thread suffices.
Workspace& thread_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

/// Runs the units of one candidate set on the calling thread's workspace.
/// The set's state is loaded once; each unit's moves are applied in place
/// and unwound through the undo records afterwards, and merge costs are
/// re-used across the set's restarts through a version-stamped move table
/// (the restarts share the initial state, so step-one move scores differ
/// only around the forced first move). Entirely thread-confined apart from
/// the shared read-only inputs.
class ChunkRunner {
 public:
  ChunkRunner(const Design& design, const ResourceVec& budget,
              const SearchOptions& options, const State& initial)
      : design_(design), budget_(budget), options_(options),
        ws_(thread_workspace()), s_(ws_.s) {
    ws_.load(initial);
    const std::size_t n = s_.groups.size();
    ws_.versions.resize(n);
    for (std::uint64_t& v : ws_.versions) v = ++ws_.version_counter;
    ws_.words = (n + 63) / 64;
    ws_.alive_mask.assign(ws_.words, 0);
    for (std::size_t i = 0; i < n; ++i)
      if (s_.groups[i].alive) set_bit(ws_.alive_mask.data(), i);
    // The table is quadratic in the candidate-set size; past a few hundred
    // groups its footprint outweighs the rescoring win, so fall back to
    // fresh evaluation (results are identical either way).
    ws_.table_on = options_.use_move_table && n <= kMaxTableGroups;
    if (ws_.table_on) {
      ws_.table.resize(n * n);
      // Pairwise-compatibility rows: bit j of row i says the groups'
      // occupancies are disjoint, so the greedy scan can reject an
      // incompatible pair on one bit test instead of a table probe. Kept
      // symmetric, and maintained under apply()/unwind() like the stamps.
      ws_.compat.assign(n * ws_.words, 0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (s_.groups[i].occ.intersects(s_.groups[j].occ)) continue;
          set_bit(compat_row(i), j);
          set_bit(compat_row(j), i);
        }
      }
      // One saved row per possible merge depth.
      ws_.row_undo.resize(n * ws_.words);
    }
  }

  /// Runs `unit` with evaluation cap `cap`. With bounding on (`bound`
  /// non-null) the start state is tested first and the unit is skipped
  /// (`pruned_speculative`) when it is sterile or, with `worst` finite (a
  /// full leaderboard), when its bound exceeds `worst`; a unit that records
  /// entries leaves its bound valued for the bound statistics.
  UnitOutcome run_unit(const Unit& unit, std::uint64_t cap, UnitBound* bound,
                       std::uint64_t worst = kNoFittingCompletion) {
    out_ = UnitOutcome{};
    out_.cap = cap;
    if (unit.first) apply(*unit.first);
    const std::size_t start = undo_depth_;
    if (bound != nullptr) {
      const bool full = worst != kNoFittingCompletion;
      assess(*bound, full);
      if (bound->sterile || (full && bound->lb > worst)) {
        out_.pruned_speculative = true;
        unwind();
        return std::move(out_);
      }
    }
    out_.ran = true;
    if (unit.first) record();
    greedy();
    if (bound != nullptr && !out_.kept.empty() && !bound->valued) {
      unwind(start);
      assess(*bound, true);
    }
    unwind();
    return std::move(out_);
  }

  /// Fills in `bound` for `unit` without running it: the sterile test, and
  /// the value too when `need_value`.
  void bound_unit(const Unit& unit, UnitBound& bound, bool need_value) {
    if (unit.first) apply(*unit.first);
    assess(bound, need_value);
    unwind();
  }

 private:
  static constexpr std::size_t kMaxTableGroups = 128;

  static void set_bit(std::uint64_t* row, std::size_t k) {
    row[k / 64] |= std::uint64_t{1} << (k % 64);
  }
  static void reset_bit(std::uint64_t* row, std::size_t k) {
    row[k / 64] &= ~(std::uint64_t{1} << (k % 64));
  }
  /// The first alive group at or after `from`, or the group count.
  std::size_t next_alive(std::size_t from) const {
    for (std::size_t w = from / 64; w < ws_.words; ++w) {
      std::uint64_t bits = ws_.alive_mask[w];
      if (w == from / 64) bits &= ~std::uint64_t{0} << (from % 64);
      if (bits != 0)
        return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
    return s_.groups.size();
  }
  std::uint64_t* compat_row(std::size_t i) {
    return ws_.compat.data() + i * ws_.words;
  }

  /// The unit's bound on the current (start) state: the sterile test once,
  /// then the value once it is needed and the state is not sterile.
  void assess(UnitBound& bound, bool need_value) {
    if (!bound.tested) {
      bound.tested = true;
      bound.sterile =
          no_fitting_completion(s_, design_.static_base(), budget_,
                                options_.allow_static_promotion);
    }
    if (need_value && !bound.sterile && !bound.valued) {
      bound.valued = true;
      bound.lb = completion_lower_bound(s_, design_.static_base(), budget_,
                                        options_.allow_static_promotion,
                                        ws_.bound_items);
    }
  }

  Objective objective(std::uint64_t excess, std::uint64_t ttotal,
                      std::uint64_t warea) const {
    if (excess > 0) return {excess, warea, ttotal};
    return {0, ttotal, warea};
  }

  Objective state_objective() const {
    const ResourceVec total = s_.total_res(design_.static_base());
    return objective(budget_excess(total, budget_), s_.ttotal,
                     weighted_area(total));
  }

  GroupCost merged_cost(const Group& ga, const Group& gb) const {
    return merged_group_cost(ga, gb, options_.pair_weights);
  }

  /// Counts one move evaluation — the deterministic budget unit — on the
  /// capping step, where evaluations are charged one at a time so the step
  /// stops on exactly the evaluation that reaches the cap.
  void count_evaluation() {
    ++out_.evals;
    if (out_.evals >= out_.cap) out_.truncated = true;
  }

  /// Counts `k` budget units at once for moves rejected without side
  /// effects (the incompatible pairs the capping step's word scan skips
  /// wholesale). Reproduces counting them one by one exactly: the counter
  /// stops at the first increment that reaches the cap. Returns true when
  /// the unit truncated.
  bool count_skipped(std::uint64_t k) {
    const std::uint64_t need = out_.cap - out_.evals;
    if (k >= need) {
      out_.evals = out_.cap;
      out_.truncated = true;
      return true;
    }
    out_.evals += k;
    return false;
  }

  Objective merge_objective(const Group& ga, const Group& gb,
                            const GroupCost& cost) const {
    const std::uint64_t contrib =
        (cost.tw_union - ga.tw_same - gb.tw_same) * cost.frames;
    // scan_base_ is pr_res + static base + static_extra, hoisted out of the
    // greedy scan (it is invariant across one scan's evaluations; unsigned
    // addition reassociates exactly). Subtract the two old footprints (kept
    // as additions to avoid unsigned underflow juggling: compute the new
    // total directly).
    ResourceVec total = scan_base_ + cost.tiles.resources();
    total.clbs -= ga.tiles.resources().clbs + gb.tiles.resources().clbs;
    total.brams -= ga.tiles.resources().brams + gb.tiles.resources().brams;
    total.dsps -= ga.tiles.resources().dsps + gb.tiles.resources().dsps;
    const std::uint64_t ttotal = s_.ttotal - ga.contrib - gb.contrib + contrib;
    return objective(budget_excess(total, budget_), ttotal,
                     weighted_area(total));
  }

  /// Scan-invariant aggregates of the left-hand group `i`, hoisted out of
  /// the inner partner loop of the table scan: the objective of merging
  /// (i, j) only needs these scalars of `ga` plus `gb`'s own fields, so the
  /// per-partner work shrinks to one table probe and a handful of adds.
  /// Unsigned +/- reassociate exactly, so the scores are bit-identical to
  /// merge_objective's.
  struct RowCtx {
    ResourceVec res_base;       ///< scan_base_ - ga footprint
    std::uint64_t tt_base = 0;  ///< s_.ttotal - ga.contrib
    std::uint64_t tw_same = 0;  ///< ga.tw_same
    std::uint64_t version = 0;  ///< versions[i]
    MergeEntry* row = nullptr;  ///< &table[i * n]
  };

  RowCtx row_ctx(std::size_t i) {
    const Group& ga = s_.groups[i];
    const ResourceVec ga_res = ga.tiles.resources();
    RowCtx ctx;
    ctx.res_base = scan_base_;
    ctx.res_base.clbs -= ga_res.clbs;
    ctx.res_base.brams -= ga_res.brams;
    ctx.res_base.dsps -= ga_res.dsps;
    ctx.tt_base = s_.ttotal - ga.contrib;
    ctx.tw_same = ga.tw_same;
    ctx.version = ws_.versions[i];
    ctx.row = &ws_.table[i * s_.groups.size()];
    return ctx;
  }

  /// Objective of merging compatible groups i and j on the table path,
  /// served from the move table when both version stamps still match.
  Objective evaluate_merge_row(const RowCtx& ctx, std::size_t i,
                               std::size_t j) {
    const Group& gb = s_.groups[j];
    MergeEntry& entry = ctx.row[j];
    if (entry.va != ctx.version || entry.vb != ws_.versions[j]) {
      ++out_.full_evaluations;
      entry.cost = merged_cost(s_.groups[i], gb);
      entry.va = ctx.version;
      entry.vb = ws_.versions[j];
    } else {
      ++out_.moves_rescored;
    }
    const GroupCost& cost = entry.cost;
    const std::uint64_t contrib =
        (cost.tw_union - ctx.tw_same - gb.tw_same) * cost.frames;
    ResourceVec total = ctx.res_base + cost.tiles.resources();
    const ResourceVec gb_res = gb.tiles.resources();
    total.clbs -= gb_res.clbs;
    total.brams -= gb_res.brams;
    total.dsps -= gb_res.dsps;
    const std::uint64_t ttotal = ctx.tt_base - gb.contrib + contrib;
    return objective(budget_excess(total, budget_), ttotal,
                     weighted_area(total));
  }

  /// Metrics of promoting group i into the static region: the whole
  /// group's mode set becomes permanently present. Already O(1) from the
  /// group's incremental fields — no table needed.
  Objective evaluate_promote(std::size_t i) {
    const Group& ga = s_.groups[i];
    ResourceVec total = scan_base_ + ga.promote_area;
    total.clbs -= ga.tiles.resources().clbs;
    total.brams -= ga.tiles.resources().brams;
    total.dsps -= ga.tiles.resources().dsps;
    const std::uint64_t ttotal = s_.ttotal - ga.contrib;
    return objective(budget_excess(total, budget_), ttotal,
                     weighted_area(total));
  }

  /// Keeps the compatibility rows symmetric after row `a` changed: `flip`
  /// holds the bits k whose entry (a, k) changed, and each (k, a) follows.
  void flip_compat_column(std::size_t a, std::size_t w, std::uint64_t flip) {
    const std::uint64_t bit = std::uint64_t{1} << (a % 64);
    while (flip != 0) {
      const std::size_t k = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(flip));
      flip &= flip - 1;
      compat_row(k)[a / 64] ^= bit;
    }
  }

  void apply(const Move& move) {
    GroupCost cost;
    if (move.kind == Move::Kind::Merge) {
      // The scan that chose this move just scored it, so with the table on
      // its entry is almost always still valid — reuse it.
      const MergeEntry* entry =
          ws_.table_on ? &ws_.table[move.a * s_.groups.size() + move.b]
                       : nullptr;
      if (entry != nullptr && entry->va == ws_.versions[move.a] &&
          entry->vb == ws_.versions[move.b])
        cost = entry->cost;
      else
        cost = merged_cost(s_.groups[move.a], s_.groups[move.b]);
    }
    UndoRecord& undo = ws_.undo_stack[undo_depth_++];
    apply_move_into(s_, move, &cost, undo);
    undo.prior_version = ws_.versions[move.a];
    reset_bit(ws_.alive_mask.data(),
              move.kind == Move::Kind::Merge ? move.b : move.a);
    if (move.kind == Move::Kind::Merge) {
      ws_.versions[move.a] = ++ws_.version_counter;
      if (ws_.table_on) {
        // Group a absorbed b's occupancy: a is now compatible with exactly
        // the groups both were compatible with. Row a only loses bits, and
        // column a loses the same ones.
        std::uint64_t* row_a = compat_row(move.a);
        const std::uint64_t* row_b = compat_row(move.b);
        std::uint64_t* saved = &ws_.row_undo[(undo_depth_ - 1) * ws_.words];
        for (std::size_t w = 0; w < ws_.words; ++w) {
          saved[w] = row_a[w];
          row_a[w] &= row_b[w];
          flip_compat_column(move.a, w, saved[w] & ~row_a[w]);
        }
      }
    }
  }

  /// Reverses the moves this unit applied down to undo depth `depth` (by
  /// default all of them, restoring the set's initial state), together with
  /// the groups' version stamps and compatibility rows, revalidating table
  /// entries for the next restart.
  void unwind(std::size_t depth = 0) {
    while (undo_depth_ > depth) {
      UndoRecord& undo = ws_.undo_stack[--undo_depth_];
      ws_.versions[undo.move.a] = undo.prior_version;
      set_bit(ws_.alive_mask.data(), undo.move.kind == Move::Kind::Merge
                                         ? undo.move.b
                                         : undo.move.a);
      if (undo.move.kind == Move::Kind::Merge && ws_.table_on) {
        std::uint64_t* row_a = compat_row(undo.move.a);
        const std::uint64_t* saved = &ws_.row_undo[undo_depth_ * ws_.words];
        for (std::size_t w = 0; w < ws_.words; ++w) {
          flip_compat_column(undo.move.a, w, saved[w] & ~row_a[w]);
          row_a[w] = saved[w];
        }
      }
      undo_move(s_, undo);
    }
  }

  /// Records the state when it fits and enters the unit's leaderboard. The
  /// canonical key is written into the workspace; only an entry that
  /// enters the board copies it.
  void record() {
    const ResourceVec total = s_.total_res(design_.static_base());
    if (!total.fits_in(budget_)) return;
    ++out_.states_recorded;
    const std::uint64_t warea = weighted_area(total);
    const std::size_t keep =
        std::max<std::size_t>(1, options_.keep_alternatives);
    if (out_.kept.size() >= keep) {
      const Kept& worst = out_.kept.back();
      // Strictly worse than the current worst: cannot enter. Objective ties
      // fall through to the canonical-key comparison in offer_kept.
      if (s_.ttotal > worst.ttotal ||
          (s_.ttotal == worst.ttotal && warea > worst.warea))
        return;
    }
    offer_kept(out_.kept, s_.ttotal, warea, canonical_key(s_, ws_.key),
               keep);
  }

  /// Greedy descent: repeatedly apply the objective-minimising move while it
  /// strictly improves; records every visited state.
  ///
  /// Each step considers C(a, 2) merges plus a promotes (a = alive groups,
  /// no promotes when promotion is off), and every consideration costs one
  /// move evaluation of the budget, compatible or not. A step that stays
  /// below the cap is therefore charged in one add and scans only what it
  /// scores; the one step that reaches the cap is charged evaluation by
  /// evaluation instead, so it stops on exactly the same move — and leaves
  /// the same move-table entries behind — as a per-move count would.
  void greedy() {
    ++out_.greedy_runs;
    record();
    while (s_.alive > 0 && !out_.truncated) {
      check_cancel(options_.cancel);
      const std::uint64_t a = s_.alive;
      const std::uint64_t considered =
          a * (a - 1) / 2 + (options_.allow_static_promotion ? a : 0);
      std::optional<Move> best_move;
      if (considered < out_.cap - out_.evals) {
        out_.evals += considered;
        best_move = scan<false>();
      } else {
        best_move = scan<true>();
        if (out_.truncated) return;
      }
      if (!best_move) return;  // local optimum
      apply(*best_move);
      record();
    }
  }

  /// One step's move scan in the canonical (i, j)-merges-then-promote
  /// enumeration of moves_of(); returns the best strictly improving move.
  /// kCapping charges every considered move as it goes and returns nullopt
  /// as soon as the unit truncates.
  template <bool kCapping>
  std::optional<Move> scan() {
    scan_base_ = s_.pr_res + design_.static_base() + s_.static_extra;
    Objective best_obj = state_objective();
    std::optional<Move> best_move;
    const std::size_t n = s_.groups.size();
    const auto consider = [&](const Objective& obj, const Move& move) {
      if (obj < best_obj) {
        best_obj = obj;
        best_move = move;
      }
    };
    if (ws_.table_on) {
      // Table path: scan the words of (compat row & alive mask) so only
      // compatible alive partners are visited. On the capping step the
      // alive-but-incompatible partners in between are charged in bulk
      // (they have no side effects), preserving the exact per-pair
      // truncation point.
      for (std::size_t i = next_alive(0); i < n; i = next_alive(i + 1)) {
        const std::uint64_t* row = compat_row(i);
        const RowCtx ctx = row_ctx(i);
        const std::size_t start = i + 1;
        for (std::size_t w = start / 64; w < ws_.words; ++w) {
          const std::uint64_t range = w == start / 64
                                          ? ~std::uint64_t{0} << (start % 64)
                                          : ~std::uint64_t{0};
          const std::uint64_t alive_w = ws_.alive_mask[w] & range;
          std::uint64_t comp_w = alive_w & row[w];
          [[maybe_unused]] const std::uint64_t incomp_w = alive_w & ~row[w];
          [[maybe_unused]] std::uint64_t skipped_before = 0;
          while (comp_w != 0) {
            const int b = std::countr_zero(comp_w);
            comp_w &= comp_w - 1;
            if constexpr (kCapping) {
              const std::uint64_t below =
                  b == 0 ? 0 : incomp_w & ((std::uint64_t{1} << b) - 1);
              const std::uint64_t k =
                  static_cast<std::uint64_t>(std::popcount(below)) -
                  skipped_before;
              skipped_before += k;
              if (count_skipped(k)) return std::nullopt;
              count_evaluation();
            }
            const std::size_t j = w * 64 + static_cast<std::size_t>(b);
            const Objective obj = evaluate_merge_row(ctx, i, j);
            if (kCapping && out_.truncated) return std::nullopt;
            consider(obj, Move{Move::Kind::Merge, i, j});
          }
          if constexpr (kCapping) {
            const std::uint64_t tail =
                static_cast<std::uint64_t>(std::popcount(incomp_w)) -
                skipped_before;
            if (count_skipped(tail)) return std::nullopt;
          }
        }
        if (options_.allow_static_promotion) {
          if constexpr (kCapping) count_evaluation();
          const Objective obj = evaluate_promote(i);
          if (kCapping && out_.truncated) return std::nullopt;
          consider(obj, Move{Move::Kind::Promote, i, 0});
        }
      }
      return best_move;
    }
    // Table-less path (table off, or more groups than it allows): every
    // compatible pair is scored afresh. Cancellation is polled once per row
    // so a step over a large candidate set still answers promptly.
    for (std::size_t i = next_alive(0); i < n; i = next_alive(i + 1)) {
      check_cancel(options_.cancel);
      const Group& ga = s_.groups[i];
      for (std::size_t j = next_alive(i + 1); j < n; j = next_alive(j + 1)) {
        const Group& gb = s_.groups[j];
        if constexpr (kCapping) count_evaluation();
        if (!ga.occ.intersects(gb.occ)) {
          ++out_.full_evaluations;
          const Objective obj = merge_objective(ga, gb, merged_cost(ga, gb));
          if (kCapping && out_.truncated) return std::nullopt;
          consider(obj, Move{Move::Kind::Merge, i, j});
        } else if (kCapping && out_.truncated) {
          return std::nullopt;
        }
      }
      if (options_.allow_static_promotion) {
        if constexpr (kCapping) count_evaluation();
        const Objective obj = evaluate_promote(i);
        if (kCapping && out_.truncated) return std::nullopt;
        consider(obj, Move{Move::Kind::Promote, i, 0});
      }
    }
    return best_move;
  }

  const Design& design_;
  const ResourceVec budget_;
  const SearchOptions& options_;
  Workspace& ws_;
  State& s_;                 ///< ws_.s
  std::size_t undo_depth_ = 0;
  ResourceVec scan_base_;  ///< pr_res + static base + extra, per greedy scan
  UnitOutcome out_;
};

class Searcher {
 public:
  Searcher(const Design& design, const ConnectivityMatrix& matrix,
           const std::vector<BasePartition>& partitions,
           const CompatibilityTable& compat, const CandidateSets& sets,
           const ResourceVec& budget, const SearchOptions& options)
      : design_(design),
        matrix_(matrix),
        partitions_(partitions),
        compat_(compat),
        sets_(sets),
        budget_(budget),
        options_(options) {}

  SearchResult run() {
    if (options_.pair_weights) {
      const PairWeights& w = *options_.pair_weights;
      require(w.size() == matrix_.configs(),
              "pair_weights must have one row per configuration");
      for (const auto& row : w)
        require(row.size() == matrix_.configs(),
                "pair_weights must be square");
    }
    const unsigned threads =
        options_.threads != 0 ? options_.threads : default_thread_count();

    // Phase 1 — enumerate the work: per candidate set (successive
    // covering-list removals, §IV-C), one unit for the unconstrained
    // descent plus one per distinct valid first move.
    std::vector<State> initials;
    std::vector<Unit> units;
    std::vector<std::pair<std::size_t, std::size_t>> set_units;
    for (const std::vector<std::size_t>& candidate : sets_) {
      check_cancel(options_.cancel);
      State initial = initial_state(partitions_, compat_,
                                    options_.pair_weights, candidate);
      const std::size_t set = initials.size();
      const std::size_t begin = units.size();
      units.push_back(Unit{set, std::nullopt});
      std::size_t first_moves = 0;
      for (const Move& m : moves_of(initial, options_.allow_static_promotion)) {
        if (first_moves >= options_.max_first_moves) break;
        if (m.kind == Move::Kind::Merge &&
            initial.groups[m.a].occ.intersects(initial.groups[m.b].occ))
          continue;  // incompatible merge: not a distinct restart
        units.push_back(Unit{set, m});
        ++first_moves;
      }
      set_units.emplace_back(begin, units.size());
      initials.push_back(std::move(initial));
    }
    stats_.units = units.size();

    // Phase 2 — run the units, one candidate set per task so the set's
    // restarts share a chunk runner (state copy, undo stack, move table,
    // all held in the worker thread's workspace).
    // Each unit speculates twice: with the evaluation budget left according
    // to a relaxed global counter, and with the shared bound hint deciding
    // whether it is worth running at all. The merge below corrects any unit
    // whose speculative cap or prune disagrees with the canonical one.
    // Bounds are computed on demand (UnitBound): a unit the counter says is
    // past the budget is not even tested.
    std::vector<UnitOutcome> outcomes(units.size());
    std::vector<UnitBound> bounds(options_.use_bounding ? units.size() : 0);
    std::atomic<std::uint64_t> consumed_hint{0};
    const std::size_t keep =
        std::max<std::size_t>(1, options_.keep_alternatives);
    BoundHint hint(keep);
    parallel_for(options_.pool, initials.size(), threads, [&](std::size_t k) {
      ChunkRunner runner(design_, budget_, options_, initials[k]);
      for (std::size_t i = set_units[k].first; i < set_units[k].second; ++i) {
        const std::uint64_t consumed =
            std::min(consumed_hint.load(std::memory_order_relaxed),
                     options_.max_move_evaluations);
        const std::uint64_t cap = options_.max_move_evaluations - consumed;
        if (cap == 0) continue;  // almost certainly exhausted; merge re-checks
        outcomes[i] = runner.run_unit(
            units[i], cap, options_.use_bounding ? &bounds[i] : nullptr,
            hint.worst());
        if (!outcomes[i].ran) continue;
        consumed_hint.fetch_add(outcomes[i].evals, std::memory_order_relaxed);
        hint.offer(outcomes[i].kept);
      }
    });

    // Phase 3 — deterministic merge in canonical unit order. A unit is
    // pruned when its lower bound proves it cannot displace any entry of
    // the (canonical) leaderboard — the bound exceeds the worst kept
    // objective of a full board, strictly, so objective ties still compete
    // on the canonical-key order. A surviving unit is accepted verbatim
    // when its speculative run is exactly what a sequential search would
    // have done with the remaining budget; otherwise it is replayed with
    // the canonical cap. Once the budget is exhausted every later unit is
    // dropped, mirroring the sequential early-out. Bound parts phase 2 did
    // not compute, and replays, run on one runner per candidate set.
    std::vector<Kept> kept;
    std::uint64_t remaining = options_.max_move_evaluations;
    bool any_unit = false;
    std::size_t last_set = 0;
    std::optional<ChunkRunner> merge_runner;
    std::size_t merge_set = 0;
    const auto runner_for = [&](std::size_t set) -> ChunkRunner& {
      if (!merge_runner || merge_set != set) {
        merge_runner.emplace(design_, budget_, options_, initials[set]);
        merge_set = set;
      }
      return *merge_runner;
    };
    for (std::size_t i = 0; i < units.size(); ++i) {
      check_cancel(options_.cancel);
      if (stats_.budget_exhausted) break;
      if (options_.use_bounding) {
        UnitBound& bound = bounds[i];
        const bool full = kept.size() >= keep;
        if (!bound.tested || (full && !bound.sterile && !bound.valued))
          runner_for(units[i].set).bound_unit(units[i], bound, full);
        const bool dominated =
            full && !bound.sterile && bound.lb > kept.back().ttotal;
        if (bound.sterile || dominated) {
          ++stats_.units_pruned;
          if (dominated) stats_.bound_gap_sum += bound.lb - kept.back().ttotal;
          any_unit = true;
          last_set = units[i].set;
          continue;
        }
      }
      UnitOutcome& out = outcomes[i];
      const bool replay =
          out.pruned_speculative || !out.ran ||
          (out.truncated ? out.cap != remaining : out.evals >= remaining);
      if (replay) {
        out = runner_for(units[i].set).run_unit(
            units[i], remaining,
            options_.use_bounding ? &bounds[i] : nullptr);
        ++stats_.units_replayed;
      }
      remaining -= out.evals;
      stats_.move_evaluations += out.evals;
      stats_.greedy_runs += out.greedy_runs;
      stats_.states_recorded += out.states_recorded;
      stats_.full_evaluations += out.full_evaluations;
      stats_.moves_rescored += out.moves_rescored;
      if (out.truncated) stats_.budget_exhausted = true;
      any_unit = true;
      last_set = units[i].set;
      if (options_.use_bounding && !out.kept.empty()) {
        stats_.bound_lb_sum += bounds[i].lb;
        stats_.bound_best_sum += out.kept.front().ttotal;
      }
      for (const Kept& entry : out.kept)
        offer_kept(kept, entry.ttotal, entry.warea, entry.key, keep);
    }
    stats_.candidate_sets = any_unit ? last_set + 1 : 0;
    for (const UnitOutcome& out : outcomes)
      if (out.pruned_speculative) ++stats_.units_pruned_speculative;

    SearchResult result;
    result.stats = stats_;
    if (!kept.empty()) {
      result.feasible = true;
      // The full evaluator stays the oracle for accepted leaders: the
      // incremental bookkeeping proposes, the kernel certifies. A caller-
      // provided context (the partitioner's) is reused; otherwise build one
      // for this evaluation.
      std::optional<EvalContext> local_context;
      const EvalContext* context = options_.eval_context;
      if (context == nullptr) {
        local_context.emplace(design_, matrix_, partitions_);
        context = &*local_context;
      }
      EvalScratch local_scratch;
      EvalScratch& scratch =
          options_.scratch != nullptr ? *options_.scratch : local_scratch;
      const std::uint64_t scratch_evals_before =
          scratch.stats.kernel_evaluations;
      const std::uint64_t scratch_collapsed_before =
          scratch.stats.signature_collapsed_configs;
      // Schemes are decoded from the final entries' keys only.
      std::vector<PartitionScheme> schemes;
      schemes.reserve(kept.size());
      for (const Kept& k : kept) schemes.push_back(scheme_from_key(k.key));
      std::vector<std::size_t> rank(kept.size());
      for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
      std::vector<std::uint64_t> wcost(kept.size(), 0);
      if (options_.workload_cost != nullptr) {
        // Workload re-ranking: certify every kept alternative in one kernel
        // batch, then stable-sort by the caller's cost, ascending. The
        // batch scores the same schemes in the same order as per-scheme
        // calls (same counters, same results); the stable sort keeps the
        // Eq. 10 + canonical-key order on cost ties, so the re-ranked
        // result is as deterministic as the unranked one.
        std::vector<const PartitionScheme*> frontier;
        frontier.reserve(schemes.size());
        for (const PartitionScheme& scheme : schemes)
          frontier.push_back(&scheme);
        std::vector<SchemeEvaluation> evals;
        context->evaluate_batch_into(frontier, budget_, scratch, evals);
        for (std::size_t i = 0; i < schemes.size(); ++i)
          wcost[i] = options_.workload_cost->cost(schemes[i], evals[i]);
        std::stable_sort(rank.begin(), rank.end(),
                         [&](std::size_t a, std::size_t b) {
                           return wcost[a] < wcost[b];
                         });
      }
      result.scheme = schemes[rank.front()];
      result.scheme.label = "proposed";
      result.eval = context->evaluate(result.scheme, budget_, scratch);
      // Fold the kernel work of *this call* (the scratch may be a warm
      // caller-provided one carrying earlier jobs' counts).
      result.stats.kernel_evaluations +=
          scratch.stats.kernel_evaluations - scratch_evals_before;
      result.stats.signature_collapsed_configs +=
          scratch.stats.signature_collapsed_configs -
          scratch_collapsed_before;
      require(result.eval.valid, "search produced an invalid scheme: " +
                                     result.eval.invalid_reason);
      require(result.eval.fits, "search recorded a non-fitting scheme");
      result.alternatives.reserve(kept.size());
      for (const std::size_t i : rank)
        result.alternatives.push_back(RankedScheme{
            std::move(schemes[i]), kept[i].ttotal, wcost[i]});
      result.alternatives.front().scheme.label = "proposed";
    }
    return result;
  }

 private:
  const Design& design_;
  const ConnectivityMatrix& matrix_;
  const std::vector<BasePartition>& partitions_;
  const CompatibilityTable& compat_;
  const CandidateSets& sets_;
  const ResourceVec budget_;
  const SearchOptions options_;

  SearchStats stats_;
};

}  // namespace

std::uint64_t weighted_total_frames(const SchemeEvaluation& evaluation,
                                    const PairWeights& weights) {
  std::uint64_t total = 0;
  for (const RegionReport& region : evaluation.regions) {
    const std::size_t n = region.active.size();
    require(weights.size() == n, "weights do not match the evaluation");
    for (std::size_t i = 0; i < n; ++i) {
      require(weights[i].size() == n, "weights must be square");
      for (std::size_t j = i + 1; j < n; ++j) {
        const int a = region.active[i];
        const int b = region.active[j];
        if (a >= 0 && b >= 0 && a != b) total += weights[i][j] * region.frames;
      }
    }
  }
  return total;
}

SearchResult search_partitioning(const Design& design,
                                 const ConnectivityMatrix& matrix,
                                 const std::vector<BasePartition>& partitions,
                                 const CompatibilityTable& compat,
                                 const ResourceVec& budget,
                                 const SearchOptions& options) {
  return search_partitioning(
      design, matrix, partitions, compat,
      candidate_sets(partitions, matrix, options.max_candidate_sets,
                     options.cancel),
      budget, options);
}

SearchResult search_partitioning(const Design& design,
                                 const ConnectivityMatrix& matrix,
                                 const std::vector<BasePartition>& partitions,
                                 const CompatibilityTable& compat,
                                 const CandidateSets& sets,
                                 const ResourceVec& budget,
                                 const SearchOptions& options) {
  return Searcher(design, matrix, partitions, compat, sets, budget, options)
      .run();
}

}  // namespace prpart
