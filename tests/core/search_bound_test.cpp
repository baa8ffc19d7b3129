// White-box contract of the branch-and-bound completion lower bound
// (search_internal::completion_lower_bound):
//
//  * admissibility — the bound never exceeds the (weighted) Eq. 10 total of
//    any *fitting* state reachable from the bounded state, checked against
//    randomised move playouts whose totals are themselves cross-checked
//    against the evaluate_scheme oracle;
//  * monotonicity — applying any move never lowers the bound, so a pruned
//    subtree stays pruned (the soundness keystone of the search's pruning);
//  * the undo algebra — apply_move/undo_move restore the search state
//    exactly, which the incremental evaluation relies on.
#include "core/search_internal.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include <optional>
#include <tuple>
#include <vector>

#include "core/clustering.hpp"
#include "core/covering.hpp"
#include "core/scheme.hpp"
#include "design/synthetic.hpp"
#include "tests/core/example_designs.hpp"
#include "util/rng.hpp"

namespace prpart {
namespace {

namespace si = search_internal;
using testing::paper_example;

struct Harness {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
  CompatibilityTable compat;

  explicit Harness(Design d)
      : design(std::move(d)),
        matrix(design),
        partitions(enumerate_base_partitions(design, matrix)),
        compat(matrix, partitions) {}

  /// Initial state of the first (complete) candidate partition set.
  si::State initial(const PairWeights* weights = nullptr) const {
    const std::vector<std::size_t> order = covering_order(partitions);
    const CoverResult cov = cover(partitions, matrix, order, 0);
    EXPECT_TRUE(cov.complete);
    return si::initial_state(partitions, compat, weights, cov.selected);
  }

  ResourceVec slack_budget() const {
    const ResourceVec lower =
        design.largest_configuration_area() + design.static_base();
    return {lower.clbs + lower.clbs / 3 + 200, lower.brams + lower.brams / 3 + 8,
            lower.dsps + lower.dsps / 3 + 8};
  }
};

/// Valid moves on `s`: moves_of() minus merges of overlapping occupancies
/// (the search rejects those at evaluation time; applying one would break
/// the disjoint-union invariant of the incremental state).
std::vector<si::Move> valid_moves(const si::State& s, bool allow_promotion) {
  std::vector<si::Move> out;
  for (const si::Move& m : si::moves_of(s, allow_promotion)) {
    if (m.kind == si::Move::Kind::Merge &&
        s.groups[m.a].occ.intersects(s.groups[m.b].occ))
      continue;
    out.push_back(m);
  }
  return out;
}

void apply_random_move(si::State& s, Rng& rng, bool allow_promotion,
                       const PairWeights* weights,
                       std::vector<si::UndoRecord>* undo_log = nullptr) {
  const std::vector<si::Move> moves = valid_moves(s, allow_promotion);
  ASSERT_FALSE(moves.empty());
  const si::Move m = moves[rng.below(moves.size())];
  si::GroupCost cost;
  if (m.kind == si::Move::Kind::Merge)
    cost = si::merged_group_cost(s.groups[m.a], s.groups[m.b], weights);
  si::UndoRecord undo = si::apply_move(s, m, &cost);
  if (undo_log) undo_log->push_back(std::move(undo));
}

PairWeights random_weights(std::size_t n, Rng& rng) {
  PairWeights w(n, std::vector<std::uint32_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      w[i][j] = w[j][i] = static_cast<std::uint32_t>(rng.uniform(0, 5));
  return w;
}

/// Walks one random move path to the end, checking at every step that
///  * the bound is monotone along the path,
///  * every prefix's bound admits every fitting suffix state,
///  * the incremental ttotal matches the evaluate_scheme oracle.
void check_playout(Harness& h, const ResourceVec& budget, Rng& rng,
                   bool allow_promotion, const PairWeights* weights,
                   std::size_t* fitting_states = nullptr) {
  si::State s = h.initial(weights);
  std::vector<std::uint64_t> bounds;    // lb of every prefix state
  std::vector<std::uint64_t> fitting;   // ttotal of every fitting state
  std::vector<si::PromoteItem> items;   // knapsack buffer, reused
  const auto visit = [&](const si::State& state) {
    const std::uint64_t lb = si::completion_lower_bound(
        state, h.design.static_base(), budget, allow_promotion, items);
    if (!bounds.empty()) {
      EXPECT_GE(lb, bounds.back()) << "bound decreased along a move path";
    }
    // Admissibility of every earlier prefix against this state, and of this
    // state against itself (a state is its own completion).
    const bool fits = state.total_res(h.design.static_base()).fits_in(budget);
    if (fits) {
      for (std::uint64_t earlier : bounds)
        EXPECT_LE(earlier, state.ttotal) << "bound exceeded a completion";
      EXPECT_NE(lb, si::kNoFittingCompletion)
          << "bound declared a fitting state unreachable";
      EXPECT_LE(lb, state.ttotal);
      fitting.push_back(state.ttotal);
    }
    bounds.push_back(lb);
    // Oracle: the incrementally maintained total is the (weighted) Eq. 10
    // value of the canonical scheme.
    const PartitionScheme scheme = si::canonical_scheme(state);
    const SchemeEvaluation eval =
        evaluate_scheme(h.design, h.matrix, h.partitions, scheme, budget);
    ASSERT_TRUE(eval.valid) << eval.invalid_reason;
    EXPECT_EQ(eval.fits, fits);
    const std::uint64_t expected =
        weights ? weighted_total_frames(eval, *weights) : eval.total_frames;
    EXPECT_EQ(state.ttotal, expected);
  };
  visit(s);
  while (!valid_moves(s, allow_promotion).empty()) {
    apply_random_move(s, rng, allow_promotion, weights);
    visit(s);
  }
  if (fitting_states) *fitting_states += fitting.size();
}

TEST(SearchBound, InitialStateBoundIsZero) {
  Harness h(paper_example());
  const si::State s = h.initial();
  EXPECT_EQ(s.ttotal, 0u);
  std::vector<si::PromoteItem> items;
  EXPECT_EQ(si::completion_lower_bound(s, h.design.static_base(),
                                       h.slack_budget(), true, items),
            0u);
}

TEST(SearchBound, PromotionDisabledBoundIsTheCurrentTotal) {
  Harness h(paper_example());
  Rng rng(7);
  si::State s = h.initial();
  std::vector<si::PromoteItem> items;
  for (int step = 0; step < 3 && !valid_moves(s, false).empty(); ++step) {
    apply_random_move(s, rng, /*allow_promotion=*/false, nullptr);
    EXPECT_EQ(si::completion_lower_bound(s, h.design.static_base(),
                                         h.slack_budget(), false, items),
              s.ttotal);
  }
  EXPECT_GT(s.ttotal, 0u);  // the path above must have merged something
}

TEST(SearchBound, OversizedStaticProvesNoFittingCompletion) {
  Harness h(paper_example());
  si::State s = h.initial();
  // Promote one group under a budget far below its area: the static side
  // alone exceeds the budget, so no completion can ever fit.
  si::GroupCost unused;
  si::UndoRecord undo =
      si::apply_move(s, si::Move{si::Move::Kind::Promote, 0, 0}, &unused);
  const ResourceVec tiny{1, 0, 0};
  std::vector<si::PromoteItem> items;
  EXPECT_EQ(
      si::completion_lower_bound(s, h.design.static_base(), tiny, true, items),
      si::kNoFittingCompletion);
  // And it stays absorbed after further moves (monotonicity's edge case).
  Rng rng(3);
  apply_random_move(s, rng, true, nullptr);
  EXPECT_EQ(
      si::completion_lower_bound(s, h.design.static_base(), tiny, true, items),
      si::kNoFittingCompletion);
  (void)undo;
}

// Tight budgets exercise the knapsack capacity and the sterile detection;
// the unconstrained budget guarantees fitting states so the admissibility
// leg is never vacuous.
constexpr ResourceVec kUnconstrained{100000, 1000, 1000};

TEST(SearchBound, PaperExampleAdmissibleAndMonotone) {
  Harness h(paper_example());
  std::size_t fitting = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    check_playout(h, {900, 8, 16}, rng, true, nullptr, &fitting);
    check_playout(h, kUnconstrained, rng, true, nullptr, &fitting);
    check_playout(h, h.slack_budget(), rng, /*allow_promotion=*/false,
                  nullptr, &fitting);
  }
  EXPECT_GT(fitting, 0u) << "no playout visited a fitting state";
}

TEST(SearchBound, WeightedPlayoutsAdmissibleAndMonotone) {
  Harness h(paper_example());
  std::size_t fitting = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(100 + seed);
    const PairWeights w = random_weights(h.matrix.configs(), rng);
    check_playout(h, kUnconstrained, rng, true, &w, &fitting);
    check_playout(h, {900, 8, 16}, rng, true, &w, &fitting);
  }
  EXPECT_GT(fitting, 0u) << "no playout visited a fitting state";
}

TEST(SearchBound, SyntheticPlayoutsAdmissibleAndMonotone) {
  std::size_t fitting = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const auto cls = static_cast<CircuitClass>(seed % 4);
    Harness h(generate_synthetic(rng, cls).design);
    check_playout(h, h.slack_budget(), rng, true, nullptr, &fitting);
    check_playout(h, kUnconstrained, rng, true, nullptr, &fitting);
    Rng wrng(900 + seed);
    const PairWeights w = random_weights(h.matrix.configs(), wrng);
    check_playout(h, h.slack_budget(), wrng, true, &w, &fitting);
  }
  EXPECT_GT(fitting, 0u) << "no playout visited a fitting state";
}

TEST(SearchBound, SterileTestMatchesTheBoundOnSuiteDesigns) {
  // The search runs no_fitting_completion on every unit it reaches and the
  // full bound only where it needs the value, so the two must agree on
  // which states are sterile: over random playouts of seed-2013 suite
  // designs, at budgets from below the single-region bill to well above
  // it, with promotion on and off.
  std::size_t sterile = 0, fertile = 0;
  std::vector<si::PromoteItem> items;
  Rng rng(2013);
  for (SyntheticDesign& sd : generate_synthetic_suite(2013, 24)) {
    Harness h(std::move(sd.design));
    const ResourceVec lower =
        h.design.largest_configuration_area() + h.design.static_base();
    for (const std::uint32_t pct : {60u, 90u, 100u, 115u, 135u, 200u}) {
      const ResourceVec budget{lower.clbs * pct / 100,
                               lower.brams * pct / 100,
                               lower.dsps * pct / 100};
      for (const bool promotion : {true, false}) {
        si::State s = h.initial();
        for (;;) {
          const bool no_fit = si::no_fitting_completion(
              s, h.design.static_base(), budget, promotion);
          const std::uint64_t lb = si::completion_lower_bound(
              s, h.design.static_base(), budget, promotion, items);
          EXPECT_EQ(no_fit, lb == si::kNoFittingCompletion)
              << "budget " << pct << "% promotion " << promotion;
          ++(no_fit ? sterile : fertile);
          if (valid_moves(s, promotion).empty()) break;
          apply_random_move(s, rng, promotion, nullptr);
        }
      }
    }
  }
  EXPECT_GT(sterile, 0u);
  EXPECT_GT(fertile, 0u);
}

TEST(SearchBound, CanonicalKeyMatchesTheReferenceEncoding) {
  // The search encodes recorded states straight into a reused key buffer
  // and decodes schemes from the final keys only; both must agree with the
  // reference canonical_scheme/scheme_key pair on every reachable state,
  // and the reused bound buffer must give the allocating bound's answer.
  std::size_t states = 0;
  si::KeyScratch scratch;
  std::vector<si::PromoteItem> items;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const auto cls = static_cast<CircuitClass>(seed % 4);
    Harness h(seed == 0 ? paper_example()
                        : generate_synthetic(rng, cls).design);
    si::State s = h.initial();
    for (;;) {
      const PartitionScheme reference = si::canonical_scheme(s);
      const std::vector<std::uint64_t>& key = si::canonical_key(s, scratch);
      EXPECT_EQ(key, si::scheme_key(reference));
      const PartitionScheme decoded = si::scheme_from_key(key);
      EXPECT_EQ(decoded.label, reference.label);
      EXPECT_EQ(decoded.static_members, reference.static_members);
      ASSERT_EQ(decoded.regions.size(), reference.regions.size());
      for (std::size_t r = 0; r < decoded.regions.size(); ++r)
        EXPECT_EQ(decoded.regions[r].members, reference.regions[r].members);
      std::vector<si::PromoteItem> fresh;
      EXPECT_EQ(si::completion_lower_bound(s, h.design.static_base(),
                                           h.slack_budget(), true, items),
                si::completion_lower_bound(s, h.design.static_base(),
                                           h.slack_budget(), true, fresh));
      ++states;
      if (valid_moves(s, true).empty()) break;
      apply_random_move(s, rng, true, nullptr);
    }
  }
  EXPECT_GT(states, 8u);
}

TEST(SearchBound, OfferKeptKeepsTheBestDistinctEntries) {
  // Offers in two different orders, with duplicates and ties broken by the
  // key, must leave the same board: the keep best entries ordered by
  // (ttotal, warea, key), each key once.
  const std::vector<si::Kept> offers = {
      {5, 1, {3}}, {2, 9, {1}}, {5, 1, {2}}, {2, 9, {1}},
      {7, 0, {0}}, {2, 8, {4}}, {5, 1, {2}}, {1, 50, {9}},
  };
  for (const std::size_t keep : {std::size_t{1}, std::size_t{3},
                                 std::size_t{10}}) {
    std::vector<si::Kept> forward, backward;
    for (const si::Kept& e : offers)
      si::offer_kept(forward, e.ttotal, e.warea, e.key, keep);
    for (auto it = offers.rbegin(); it != offers.rend(); ++it)
      si::offer_kept(backward, it->ttotal, it->warea, it->key, keep);
    std::vector<si::Kept> expected;
    for (const si::Kept& e : offers) {
      bool seen = false;
      for (const si::Kept& x : expected) seen = seen || x.key == e.key;
      if (!seen) expected.push_back(e);
    }
    std::sort(expected.begin(), expected.end(),
              [](const si::Kept& a, const si::Kept& b) {
                return std::tie(a.ttotal, a.warea, a.key) <
                       std::tie(b.ttotal, b.warea, b.key);
              });
    if (expected.size() > keep) expected.resize(keep);
    for (const std::vector<si::Kept>* board : {&forward, &backward}) {
      ASSERT_EQ(board->size(), expected.size()) << "keep=" << keep;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ((*board)[i].ttotal, expected[i].ttotal);
        EXPECT_EQ((*board)[i].warea, expected[i].warea);
        EXPECT_EQ((*board)[i].key, expected[i].key);
      }
    }
  }
}

TEST(SearchBound, UndoRestoresTheStateExactly) {
  Harness h(paper_example());
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    si::State s = h.initial();
    const si::State before = s;
    std::vector<si::UndoRecord> undos;
    const std::uint64_t steps = 1 + rng.below(6);
    for (std::uint64_t k = 0; k < steps; ++k) {
      if (valid_moves(s, true).empty()) break;
      apply_random_move(s, rng, true, nullptr, &undos);
    }
    ASSERT_FALSE(undos.empty());
    while (!undos.empty()) {
      si::undo_move(s, undos.back());
      undos.pop_back();
    }
    EXPECT_EQ(s.ttotal, before.ttotal);
    EXPECT_EQ(s.alive, before.alive);
    EXPECT_EQ(s.pr_res, before.pr_res);
    EXPECT_EQ(s.static_extra, before.static_extra);
    EXPECT_EQ(s.static_members, before.static_members);
    ASSERT_EQ(s.groups.size(), before.groups.size());
    for (std::size_t g = 0; g < s.groups.size(); ++g) {
      const si::Group& a = s.groups[g];
      const si::Group& b = before.groups[g];
      EXPECT_EQ(a.alive, b.alive);
      EXPECT_EQ(a.members, b.members);
      EXPECT_EQ(a.raw, b.raw);
      EXPECT_EQ(a.promote_area, b.promote_area);
      EXPECT_EQ(a.frames, b.frames);
      EXPECT_EQ(a.occ_count, b.occ_count);
      EXPECT_EQ(a.tw_union, b.tw_union);
      EXPECT_EQ(a.tw_same, b.tw_same);
      EXPECT_EQ(a.contrib, b.contrib);
    }
    EXPECT_EQ(si::scheme_key(si::canonical_scheme(s)),
              si::scheme_key(si::canonical_scheme(before)));
  }
}

}  // namespace
}  // namespace prpart
