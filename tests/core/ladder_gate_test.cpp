// The device ladder's fit check (DESIGN.md, "Ladder fit check"): its
// verdicts against exhaustive search, and a gated ladder that equals one
// searching every rung the single-region bill fits.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/feasibility.hpp"
#include "core/optimal.hpp"
#include "core/partitioner.hpp"
#include "core/search.hpp"
#include "design/synthetic.hpp"
#include "tests/core/example_designs.hpp"
#include "tests/core/result_dump.hpp"
#include "util/cancel.hpp"
#include "util/parallel_for.hpp"

namespace prpart {
namespace {

using testing::dump;
using testing::fallback_at_bill;
using testing::sweep_options;

FitCheck check_plan(const DesignPlan& plan, const Design& design,
                    const ResourceVec& budget, bool allow_static_promotion,
                    const CancelToken* cancel = nullptr) {
  return fit_check(plan.base_partitions(), plan.compatibility(),
                   plan.candidate_sets(), design.static_base(), budget,
                   allow_static_promotion, cancel);
}

ResourceVec scaled(const ResourceVec& r, std::uint32_t sixteenths) {
  return {r.clbs + r.clbs * sixteenths / 16, r.brams + r.brams * sixteenths / 16,
          r.dsps + r.dsps * sixteenths / 16};
}

// (a) Every verdict the check gives holds up: a proof of "none" against
// the exhaustive search on every candidate set and against the greedy
// search, a witness against the reference evaluator.
TEST(FitCheck, VerdictsAgreeWithExhaustiveSearch) {
  SyntheticOptions small;
  small.min_modules = 2;
  small.max_modules = 3;
  small.max_modes = 3;
  const auto suite = generate_synthetic_suite(31, 40, small);
  std::size_t proven = 0, witnessed = 0;
  for (const SyntheticDesign& s : suite) {
    const Design& design = s.design;
    PartitionerOptions options;
    options.search.max_candidate_sets = 8;
    options.search.threads = 1;
    const DesignPlan plan(design, options);
    const ResourceVec bill = plan.single_region_bill().total;
    for (const std::uint32_t slack : {0u, 1u, 2u, 4u, 8u}) {
      const ResourceVec budget = scaled(bill, slack);
      for (const bool promote : {true, false}) {
        const std::string what = design.name() + " budget " +
                                 budget.to_string() +
                                 (promote ? "" : " (no promotion)");
        const FitCheck check = check_plan(plan, design, budget, promote);
        ASSERT_NE(check.verdict, FitVerdict::Unknown) << what;
        if (check.verdict == FitVerdict::Witness) {
          ++witnessed;
          const SchemeEvaluation eval = evaluate_scheme_reference(
              design, plan.matrix(), plan.base_partitions(), check.witness,
              budget);
          EXPECT_TRUE(eval.valid) << what << ": " << eval.invalid_reason;
          EXPECT_TRUE(eval.fits) << what;
          EXPECT_TRUE(promote || check.witness.static_members.empty())
              << what;
          continue;
        }
        ++proven;
        OptimalOptions exact;
        exact.allow_static_promotion = promote;
        for (const std::vector<std::size_t>& set : plan.candidate_sets()) {
          const OptimalResult r = optimal_partitioning(
              design, plan.matrix(), plan.base_partitions(),
              plan.compatibility(), budget, set, exact);
          EXPECT_FALSE(r.exhausted) << what;
          EXPECT_FALSE(r.feasible) << what;
        }
        SearchOptions search = options.search;
        search.allow_static_promotion = promote;
        EXPECT_FALSE(search_partitioning(design, plan.matrix(),
                                         plan.base_partitions(),
                                         plan.compatibility(),
                                         plan.candidate_sets(), budget, search)
                         .feasible)
            << what;
      }
    }
  }
  // The grid exercises both verdicts.
  EXPECT_GT(proven, 0u);
  EXPECT_GT(witnessed, 0u);
}

// The ladder without the check: one plan, solve() on every rung the
// single-region bill fits until the search proposes a scheme.
DevicePartitionResult ungated_ladder(const Design& design,
                                     const DeviceLibrary& library,
                                     const PartitionerOptions& options) {
  const DesignPlan plan(design, options);
  DevicePartitionResult out;
  for (std::size_t i = 0; i < library.devices().size(); ++i) {
    const Device& device = library.devices()[i];
    if (!plan.single_region_bill().fits_in(device.capacity())) continue;
    if (out.device == nullptr) out.first_feasible_index = i;
    out.device = &device;
    out.chosen_index = i;
    out.result = solve(plan, device.capacity(), options);
    ++out.rungs_searched;
    if (out.result.proposed_from_search) break;
  }
  out.escalated = out.chosen_index != out.first_feasible_index;
  return out;
}

// (b) On the paper's sweep the gated ladder returns exactly what searching
// every rung returns. A design whose gated walk did not escalate searched
// its first rung and stopped there, as the ungated walk does, so the
// comparison covers the first 300 designs and every escalated one.
TEST(LadderGate, EqualsTheUngatedLadderOnTheSweepSuite) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto suite = generate_synthetic_suite(2013, 1000);
  const PartitionerOptions options = sweep_options();
  std::vector<std::string> gated(suite.size()), ungated(suite.size());
  std::vector<std::size_t> searched(suite.size()), skipped(suite.size()),
      reference_searched(suite.size());
  std::vector<char> compared(suite.size(), 0);
  parallel_for(suite.size(), default_thread_count(), [&](std::size_t i) {
    const DevicePartitionResult g =
        partition_on_smallest_device(suite[i].design, lib, options);
    searched[i] = g.rungs_searched;
    skipped[i] = g.rungs_proven_infeasible;
    if (i >= 300 && !g.escalated) return;
    compared[i] = 1;
    gated[i] = dump(g);
    const DevicePartitionResult u =
        ungated_ladder(suite[i].design, lib, options);
    ungated[i] = dump(u);
    reference_searched[i] = u.rungs_searched;
  });
  std::size_t total_searched = 0, total_skipped = 0, escalated_compared = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    total_searched += searched[i];
    total_skipped += skipped[i];
    if (!compared[i]) {
      // Not escalated: the first rung the bill fits was searched, alone.
      EXPECT_EQ(searched[i], 1u) << "design " << i;
      EXPECT_EQ(skipped[i], 0u) << "design " << i;
      continue;
    }
    if (i >= 300) ++escalated_compared;
    EXPECT_EQ(gated[i], ungated[i]) << "design " << i;
    EXPECT_EQ(searched[i] + skipped[i], reference_searched[i])
        << "design " << i;
  }
  EXPECT_GT(escalated_compared, 0u);
  // BENCH_sweep.json's ladder block: 1380 searches before the check.
  EXPECT_EQ(total_searched, 1022u);
  EXPECT_EQ(total_skipped, 358u);
}

// (c) The last rung the bill fits is searched even when the check proves it
// empty: its result is the one reported. Here that rung is not the last
// device — capacities are not element-wise monotone along a library.
TEST(LadderGate, TheLastRungTheBillFitsIsAlwaysSearched) {
  const Design d = fallback_at_bill();
  const ResourceVec bill = single_region_bill(d).total;
  ASSERT_EQ(check_plan(DesignPlan(d), d, bill, true).verdict,
            FitVerdict::ProvenNone);
  DeviceLibrary lib;
  lib.add(Device("few_clbs", {bill.clbs - 20, bill.brams, bill.dsps}, 1));
  lib.add(Device("exact", bill, 1));
  lib.add(Device("no_dsps", {bill.clbs * 2, bill.brams * 2, 0}, 1));
  const DevicePartitionResult last = partition_on_smallest_device(d, lib);
  EXPECT_EQ(last.chosen_index, 1u);
  EXPECT_EQ(last.rungs_searched, 1u);
  EXPECT_EQ(last.rungs_proven_infeasible, 0u);
  EXPECT_FALSE(last.escalated);
  EXPECT_TRUE(last.result.feasible);
  EXPECT_FALSE(last.result.proposed_from_search);
  EXPECT_EQ(dump(last), dump(ungated_ladder(d, lib, {})));

  // With a roomier rung after it, the same rung is skipped unsearched.
  lib.add(Device("roomy", {bill.clbs * 2, bill.brams * 2, bill.dsps * 2}, 1));
  const DevicePartitionResult skipped = partition_on_smallest_device(d, lib);
  EXPECT_EQ(skipped.chosen_index, 3u);
  EXPECT_EQ(skipped.first_feasible_index, 1u);
  EXPECT_EQ(skipped.rungs_searched, 1u);
  EXPECT_EQ(skipped.rungs_proven_infeasible, 1u);
  EXPECT_TRUE(skipped.escalated);
  EXPECT_TRUE(skipped.result.proposed_from_search);
  EXPECT_EQ(dump(skipped), dump(ungated_ladder(d, lib, {})));
}

// (d) A fired token stops the check.
TEST(FitCheck, FiredCancelTokenStopsTheCheck) {
  const Design d = fallback_at_bill();
  const DesignPlan plan(d);
  CancelToken fired;
  fired.cancel();
  EXPECT_THROW(
      check_plan(plan, d, plan.single_region_bill().total, true, &fired),
      CancelledError);
  CancelToken live;
  EXPECT_EQ(
      check_plan(plan, d, plan.single_region_bill().total, true, &live)
          .verdict,
      FitVerdict::ProvenNone);
}

}  // namespace
}  // namespace prpart
