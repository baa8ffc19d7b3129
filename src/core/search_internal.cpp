#include "core/search_internal.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

namespace prpart::search_internal {

namespace {

std::uint64_t pairs2(std::uint64_t n) { return n * (n - 1) / 2; }

}  // namespace

std::uint64_t pair_weight_within(const PairWeights* weights,
                                 const DynBitset& occ) {
  if (!weights) return pairs2(occ.count());
  std::uint64_t total = 0;
  occ.for_each_set_bit([&](std::size_t a) {
    occ.for_each_set_bit([&](std::size_t b) {
      if (b > a) total += (*weights)[a][b];
    });
  });
  return total;
}

std::uint64_t pair_weight_between(const PairWeights* weights, const Group& a,
                                  const Group& b) {
  if (!weights) return a.occ_count * b.occ_count;
  std::uint64_t total = 0;
  a.occ.for_each_set_bit([&](std::size_t i) {
    b.occ.for_each_set_bit(
        [&](std::size_t j) { total += (*weights)[i][j]; });
  });
  return total;
}

std::vector<Move> moves_of(const State& s, bool allow_static_promotion) {
  std::vector<Move> moves;
  const std::size_t n = s.groups.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!s.groups[i].alive) continue;
    for (std::size_t j = i + 1; j < n; ++j)
      if (s.groups[j].alive) moves.push_back({Move::Kind::Merge, i, j});
    if (allow_static_promotion) moves.push_back({Move::Kind::Promote, i, 0});
  }
  return moves;
}

GroupCost merged_group_cost(const Group& a, const Group& b,
                            const PairWeights* weights) {
  GroupCost cost;
  cost.raw = elementwise_max(a.raw, b.raw);
  cost.tiles = tiles_for(cost.raw);
  cost.frames = cost.tiles.frames();
  cost.tw_union = a.tw_union + b.tw_union + pair_weight_between(weights, a, b);
  return cost;
}

State initial_state(const std::vector<BasePartition>& partitions,
                    const CompatibilityTable& compat,
                    const PairWeights* weights,
                    const std::vector<std::size_t>& candidate) {
  State s;
  s.groups.reserve(candidate.size());
  for (std::size_t p : candidate) {
    Group g;
    g.members = {p};
    g.occ = compat.occupancy(p);
    g.raw = partitions[p].area;
    g.promote_area = partitions[p].area;
    g.tiles = tiles_for(g.raw);
    g.frames = g.tiles.frames();
    g.occ_count = g.occ.count();
    g.tw_union = pair_weight_within(weights, g.occ);
    g.tw_same = g.tw_union;
    g.contrib = 0;  // a single alternative never reconfigures
    s.groups.push_back(std::move(g));
    s.pr_res += s.groups.back().tiles.resources();
  }
  s.alive = s.groups.size();
  return s;
}

UndoRecord apply_move(State& s, const Move& move, const GroupCost* merge_cost) {
  UndoRecord undo;
  apply_move_into(s, move, merge_cost, undo);
  return undo;
}

void apply_move_into(State& s, const Move& move, const GroupCost* merge_cost,
                     UndoRecord& undo) {
  undo.move = move;
  undo.prior_pr_res = s.pr_res;
  undo.prior_static_extra = s.static_extra;
  undo.prior_ttotal = s.ttotal;
  undo.prior_static_count = s.static_members.size();

  Group& ga = s.groups[move.a];
  auto remove_footprint = [&](const Group& g) {
    s.pr_res.clbs -= g.tiles.resources().clbs;
    s.pr_res.brams -= g.tiles.resources().brams;
    s.pr_res.dsps -= g.tiles.resources().dsps;
    s.ttotal -= g.contrib;
  };
  if (move.kind == Move::Kind::Merge) {
    Group& gb = s.groups[move.b];
    remove_footprint(ga);
    remove_footprint(gb);
    const GroupCost& cost = *merge_cost;
    // Copy (not move) the member list: both vectors keep their buffers, so
    // a pooled UndoRecord makes the apply/undo cycle allocation-free once
    // the capacities have grown to their high-water marks.
    undo.prior_members = ga.members;
    undo.prior_raw = ga.raw;
    undo.prior_promote_area = ga.promote_area;
    undo.prior_tiles = ga.tiles;
    undo.prior_frames = ga.frames;
    undo.prior_occ_count = ga.occ_count;
    undo.prior_tw_union = ga.tw_union;
    undo.prior_tw_same = ga.tw_same;
    undo.prior_contrib = ga.contrib;
    ga.members.resize(undo.prior_members.size() + gb.members.size());
    std::merge(undo.prior_members.begin(), undo.prior_members.end(),
               gb.members.begin(), gb.members.end(), ga.members.begin());
    ga.occ |= gb.occ;
    ga.raw = cost.raw;
    ga.promote_area += gb.promote_area;
    ga.tiles = cost.tiles;
    ga.frames = cost.frames;
    ga.occ_count += gb.occ_count;
    ga.tw_union = cost.tw_union;
    ga.tw_same += gb.tw_same;
    ga.contrib = (ga.tw_union - ga.tw_same) * ga.frames;
    gb.alive = false;
    --s.alive;
    s.pr_res += ga.tiles.resources();
    s.ttotal += ga.contrib;
  } else {
    remove_footprint(ga);
    s.static_extra += ga.promote_area;
    s.static_members.insert(s.static_members.end(), ga.members.begin(),
                            ga.members.end());
    ga.alive = false;
    --s.alive;
  }
}

void undo_move(State& s, UndoRecord& undo) {
  Group& ga = s.groups[undo.move.a];
  if (undo.move.kind == Move::Kind::Merge) {
    Group& gb = s.groups[undo.move.b];
    // Merged occupancies are disjoint, so subtracting b's bits restores a's
    // exact prior occupancy — the O(configs) part of the undo.
    ga.occ.subtract(gb.occ);
    ga.members = undo.prior_members;  // copy: the record keeps its buffer
    ga.raw = undo.prior_raw;
    ga.promote_area = undo.prior_promote_area;
    ga.tiles = undo.prior_tiles;
    ga.frames = undo.prior_frames;
    ga.occ_count = undo.prior_occ_count;
    ga.tw_union = undo.prior_tw_union;
    ga.tw_same = undo.prior_tw_same;
    ga.contrib = undo.prior_contrib;
    gb.alive = true;
  } else {
    s.static_members.resize(undo.prior_static_count);
    ga.alive = true;
  }
  ++s.alive;
  s.pr_res = undo.prior_pr_res;
  s.static_extra = undo.prior_static_extra;
  s.ttotal = undo.prior_ttotal;
}

PartitionScheme canonical_scheme(const State& s) {
  PartitionScheme scheme;
  for (const Group& g : s.groups)
    if (g.alive) {
      Region region{g.members};
      std::sort(region.members.begin(), region.members.end());
      scheme.regions.push_back(std::move(region));
    }
  std::sort(
      scheme.regions.begin(), scheme.regions.end(),
      [](const Region& a, const Region& b) { return a.members < b.members; });
  scheme.static_members = s.static_members;
  std::sort(scheme.static_members.begin(), scheme.static_members.end());
  return scheme;
}

std::vector<std::uint64_t> scheme_key(const PartitionScheme& scheme) {
  std::vector<std::uint64_t> key;
  std::size_t total = 2 + scheme.static_members.size();
  for (const Region& r : scheme.regions) total += 1 + r.members.size();
  key.reserve(total);
  key.push_back(scheme.regions.size());
  for (const Region& r : scheme.regions) {
    key.push_back(r.members.size());
    for (std::size_t m : r.members) key.push_back(m);
  }
  key.push_back(scheme.static_members.size());
  for (std::size_t m : scheme.static_members) key.push_back(m);
  return key;
}

const std::vector<std::uint64_t>& canonical_key(const State& s,
                                                KeyScratch& scratch) {
  scratch.order.clear();
  for (std::size_t g = 0; g < s.groups.size(); ++g)
    if (s.groups[g].alive) scratch.order.push_back(g);
  // Member lists are sorted and pairwise disjoint, so ordering the regions
  // by their member lists is canonical_scheme's region order.
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](std::size_t a, std::size_t b) {
              return s.groups[a].members < s.groups[b].members;
            });
  scratch.statics.assign(s.static_members.begin(), s.static_members.end());
  std::sort(scratch.statics.begin(), scratch.statics.end());
  std::vector<std::uint64_t>& key = scratch.key;
  key.clear();
  key.push_back(scratch.order.size());
  for (const std::size_t g : scratch.order) {
    const std::vector<std::size_t>& members = s.groups[g].members;
    key.push_back(members.size());
    key.insert(key.end(), members.begin(), members.end());
  }
  key.push_back(scratch.statics.size());
  key.insert(key.end(), scratch.statics.begin(), scratch.statics.end());
  return key;
}

PartitionScheme scheme_from_key(const std::vector<std::uint64_t>& key) {
  PartitionScheme scheme;
  std::size_t at = 0;
  const auto take = [&](std::vector<std::size_t>& out) {
    const auto size = static_cast<std::ptrdiff_t>(key[at++]);
    const auto begin = key.begin() + static_cast<std::ptrdiff_t>(at);
    out.assign(begin, begin + size);
    at += static_cast<std::size_t>(size);
  };
  scheme.regions.resize(key[at++]);
  for (Region& region : scheme.regions) take(region.members);
  take(scheme.static_members);
  return scheme;
}

namespace {

/// The leaderboard order: objective first, canonical key last. The entry
/// being offered is given by its fields, so offer_kept can place it before
/// it owns a copy of the key.
bool precedes(const Kept& a, std::uint64_t ttotal, std::uint64_t warea,
              const std::vector<std::uint64_t>& key) {
  if (a.ttotal != ttotal) return a.ttotal < ttotal;
  if (a.warea != warea) return a.warea < warea;
  return a.key < key;
}

}  // namespace

void offer_kept(std::vector<Kept>& kept, std::uint64_t ttotal,
                std::uint64_t warea, const std::vector<std::uint64_t>& key,
                std::size_t keep) {
  const auto at =
      std::partition_point(kept.begin(), kept.end(), [&](const Kept& e) {
        return precedes(e, ttotal, warea, key);
      });
  if (at != kept.end() && at->key == key) return;
  const auto pos = static_cast<std::size_t>(at - kept.begin());
  if (pos >= keep) return;  // would be trimmed straight away
  Kept entry;
  if (kept.size() >= keep) {
    entry = std::move(kept.back());
    kept.pop_back();
  }
  entry.ttotal = ttotal;
  entry.warea = warea;
  entry.key.assign(key.begin(), key.end());
  kept.insert(kept.begin() + static_cast<std::ptrdiff_t>(pos),
              std::move(entry));
}

namespace {

/// Exact comparison of the non-negative rationals a/b and c/d (b, d > 0)
/// by synchronous continued-fraction expansion: compare the integer parts,
/// then recurse on the flipped reciprocals of the remainders. Never
/// overflows — the naive cross-multiplication a*d vs c*b does not fit in 64
/// bits for knapsack densities (contribution counts reach ~2^50).
int frac_cmp(std::uint64_t a, std::uint64_t b, std::uint64_t c,
             std::uint64_t d) {
  int sign = 1;
  for (;;) {
    const std::uint64_t qa = a / b;
    const std::uint64_t qc = c / d;
    if (qa != qc) return (qa < qc ? -1 : 1) * sign;
    const std::uint64_t ra = a % b;
    const std::uint64_t rc = c % d;
    if (ra == 0 || rc == 0) {
      if (ra == rc) return 0;
      return (ra == 0 ? -1 : 1) * sign;
    }
    // ra/b vs rc/d compares as the *inverse* of b/ra vs d/rc.
    a = b;
    c = d;
    b = ra;
    d = rc;
    sign = -sign;
  }
}

/// One scalarisation of the element-wise area constraint. A fitting
/// completion satisfies every projection's scalar inequality, so each
/// projection yields an independently admissible bound and the final bound
/// takes their maximum. The single-resource projections catch subtrees that
/// are starved of one resource long before the combined scalar notices.
struct Projection {
  std::uint64_t clb, bram, dsp;
};

constexpr Projection kProjections[] = {
    {kWClb, kWBram, kWDsp},  // the search's combined area scalarisation
    {1, 0, 0},               // CLBs alone
    {0, 1, 0},               // BRAMs alone
    {0, 0, 1},               // DSPs alone
};

std::uint64_t project(const Projection& p, const ResourceVec& r) {
  return r.clbs * p.clb + r.brams * p.bram + r.dsps * p.dsp;
}

/// The bound under one projection. kNoFittingCompletion means the
/// projection alone proves no completion of `s` can fit.
std::uint64_t projected_lower_bound(const State& s, const Projection& proj,
                                    const ResourceVec& static_area,
                                    const ResourceVec& budget,
                                    bool allow_static_promotion,
                                    std::vector<PromoteItem>& items) {
  const std::uint64_t pbudget = project(proj, budget);
  const std::uint64_t pstatic = project(proj, static_area);
  // Any fitting total covers the static area element-wise, so a projected
  // static area beyond the projected budget proves the subtree sterile.
  if (pstatic > pbudget) return kNoFittingCompletion;
  // No alive groups: the state is its own only completion.
  if (s.alive == 0) return s.ttotal;
  const std::uint64_t cap0 = pbudget - pstatic;

  // Two exhaustive shapes of a completion. (a) Everything promoted: needs
  // the summed promotion price within cap0. (b) At least one region
  // remains: since regions only grow under merges, some region's footprint
  // is at least the smallest alive group's tile-rounded footprint, leaving
  // at most cap0 - minfoot of capacity for promotions.
  std::uint64_t total_price = 0;
  std::uint64_t minfoot = ~std::uint64_t{0};
  for (const Group& g : s.groups) {
    if (!g.alive) continue;
    total_price += project(proj, g.promote_area);
    minfoot = std::min(minfoot, project(proj, g.tiles.resources()));
  }
  const bool all_promotable = allow_static_promotion && total_price <= cap0;
  const bool region_fits = minfoot <= cap0;
  if (!all_promotable && !region_fits) return kNoFittingCompletion;
  // Merges only ever raise the total (contribution superadditivity), so
  // without promotions the current total is itself the floor.
  if (!allow_static_promotion) return s.ttotal;
  if (all_promotable) return 0;  // every contribution may become removable
  if (s.ttotal == 0) return 0;

  std::uint64_t capacity = cap0 - minfoot;
  std::uint64_t removable = 0;  // groups promotable at zero area price
  items.clear();
  for (std::size_t i = 0; i < s.groups.size(); ++i) {
    const Group& g = s.groups[i];
    if (!g.alive || g.contrib == 0) continue;
    const std::uint64_t price = project(proj, g.promote_area);
    if (price == 0) {
      removable += g.contrib;
      continue;
    }
    items.push_back({g.contrib, price, i});
  }
  // Best-density-first greedy with a fractional last item is the exact LP
  // optimum (Dantzig bound), an upper bound on any promotable subset's
  // value. The density order must be exact: a misordered prefix can
  // undershoot the LP optimum and break admissibility.
  std::sort(items.begin(), items.end(),
            [](const PromoteItem& x, const PromoteItem& y) {
              const int cmp =
                  frac_cmp(x.value, x.price, y.value, y.price);
              if (cmp != 0) return cmp > 0;
              return x.slot < y.slot;
            });
  for (const PromoteItem& item : items) {
    if (item.price <= capacity) {
      removable += item.value;
      capacity -= item.price;
      continue;
    }
    // floor(value * capacity / price) without 128-bit arithmetic: split the
    // value into price-quotient and remainder. The remainder product fits
    // (both factors < price <= weighted device area); if a pathological
    // input overflows anyway, fall back to the whole value — a looser but
    // still admissible bound.
    const std::uint64_t quot = item.value / item.price;
    const std::uint64_t rem = item.value % item.price;
    std::uint64_t fraction = quot * capacity;
    if (rem > 0) {
      if (capacity >
          std::numeric_limits<std::uint64_t>::max() / rem)
        fraction = item.value;
      else
        fraction += rem * capacity / item.price;
    }
    removable += std::min(fraction, item.value);
    break;
  }
  return s.ttotal - std::min(s.ttotal, removable);
}

}  // namespace

std::uint64_t completion_lower_bound(const State& s,
                                     const ResourceVec& static_base,
                                     const ResourceVec& budget,
                                     bool allow_static_promotion,
                                     std::vector<PromoteItem>& items) {
  const ResourceVec static_area = static_base + s.static_extra;
  std::uint64_t lb = 0;
  for (const Projection& proj : kProjections) {
    const std::uint64_t b = projected_lower_bound(
        s, proj, static_area, budget, allow_static_promotion, items);
    if (b == kNoFittingCompletion) return kNoFittingCompletion;
    lb = std::max(lb, b);
  }
  return lb;
}

bool no_fitting_completion(const State& s, const ResourceVec& static_base,
                           const ResourceVec& budget,
                           bool allow_static_promotion) {
  // projected_lower_bound's two sterile exits, per projection, with the
  // promote-everything price and the smallest footprint gathered in one
  // pass over the groups.
  constexpr std::size_t kCount = std::size(kProjections);
  std::uint64_t total_price[kCount] = {};
  std::uint64_t minfoot[kCount];
  std::fill_n(minfoot, kCount, ~std::uint64_t{0});
  for (const Group& g : s.groups) {
    if (!g.alive) continue;
    const ResourceVec foot = g.tiles.resources();
    for (std::size_t k = 0; k < kCount; ++k) {
      total_price[k] += project(kProjections[k], g.promote_area);
      minfoot[k] = std::min(minfoot[k], project(kProjections[k], foot));
    }
  }
  const ResourceVec static_area = static_base + s.static_extra;
  for (std::size_t k = 0; k < kCount; ++k) {
    const std::uint64_t pbudget = project(kProjections[k], budget);
    const std::uint64_t pstatic = project(kProjections[k], static_area);
    if (pstatic > pbudget) return true;
    if (s.alive == 0) continue;
    const std::uint64_t cap0 = pbudget - pstatic;
    const bool all_promotable =
        allow_static_promotion && total_price[k] <= cap0;
    if (!all_promotable && minfoot[k] > cap0) return true;
  }
  return false;
}

}  // namespace prpart::search_internal
