#include "core/partitioner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/schemes.hpp"
#include "design/synthetic.hpp"
#include "device/tiles.hpp"
#include "tests/core/example_designs.hpp"
#include "tests/core/result_dump.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::dump;
using testing::fallback_at_bill;
using testing::paper_example;
using testing::sweep_options;

// The device ladder as it stood before the design plan: one full
// partition_design per rung, infeasible rungs included. The ladder under
// test must return exactly what this returns.
DevicePartitionResult per_rung_reference(const Design& design,
                                         const DeviceLibrary& library,
                                         const PartitionerOptions& options) {
  const auto& devices = library.devices();
  DevicePartitionResult out;
  bool found_first = false;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    PartitionerResult r =
        partition_design(design, devices[i].capacity(), options);
    if (!r.feasible) continue;
    if (!found_first) {
      out.first_feasible_index = i;
      found_first = true;
    }
    out.device = &devices[i];
    out.chosen_index = i;
    out.result = std::move(r);
    if (!out.result.proposed_from_search && i + 1 < devices.size()) continue;
    out.escalated = out.chosen_index != out.first_feasible_index;
    return out;
  }
  if (!found_first)
    throw DeviceError("design '" + design.name() +
                      "' does not fit any device in the library");
  out.escalated = out.chosen_index != out.first_feasible_index;
  return out;
}

DevicePartitionResult expect_ladder_matches_reference(
    const Design& design, const DeviceLibrary& library,
    const PartitionerOptions& options) {
  DevicePartitionResult ladder =
      partition_on_smallest_device(design, library, options);
  EXPECT_EQ(dump(ladder), dump(per_rung_reference(design, library, options)))
      << design.name();
  return ladder;
}

TEST(Partitioner, ProducesAllFourSchemes) {
  const Design d = paper_example();
  const PartitionerResult r = partition_design(d, {100000, 1000, 1000});
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed_from_search);
  EXPECT_EQ(r.modular.name, "Modular");
  EXPECT_EQ(r.single_region.name, "Single region");
  EXPECT_EQ(r.static_impl.name, "Static");
  EXPECT_FALSE(r.base_partitions.empty());
}

TEST(Partitioner, ProposedNeverWorseThanSingleRegion) {
  const Design d = paper_example();
  for (std::uint32_t budget_clbs : {700u, 900u, 1200u, 2000u}) {
    const PartitionerResult r =
        partition_design(d, {budget_clbs, 10, 16});
    if (!r.feasible) continue;
    EXPECT_LE(r.proposed.eval.total_frames,
              r.single_region.eval.total_frames)
        << "budget " << budget_clbs;
    EXPECT_TRUE(r.proposed.eval.fits);
  }
}

TEST(Partitioner, InfeasibleBudgetReported) {
  const Design d = paper_example();
  const PartitionerResult r = partition_design(d, {100, 1, 1});
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.single_region.eval.fits);
}

TEST(Partitioner, FallbackToSingleRegionWhenSearchCannotBeat) {
  // A budget exactly at the single-region lower bound leaves no slack: the
  // proposed scheme degenerates to the single region.
  const Design d = paper_example();
  const ResourceVec lower = tiles_for(d.largest_configuration_area()).resources();
  const PartitionerResult r = partition_design(d, lower);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed.eval.fits);
  EXPECT_LE(r.proposed.eval.total_frames,
            r.single_region.eval.total_frames);
}

TEST(DeviceSearch, PicksSmallestWorkableDevice) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  // A small design should land on the smallest device.
  const Design d = testing::fig3_example();
  const DevicePartitionResult r = partition_on_smallest_device(d, lib);
  ASSERT_NE(r.device, nullptr);
  EXPECT_EQ(r.chosen_index, 0u);
  EXPECT_FALSE(r.escalated);
  EXPECT_TRUE(r.result.feasible);
}

TEST(DeviceSearch, HugeDesignThrows) {
  const Design d = DesignBuilder("huge")
                       .module("X", {{"X1", {50000, 0, 0}}})
                       .configuration({{"X", "X1"}})
                       .build();
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  EXPECT_THROW(partition_on_smallest_device(d, lib), DeviceError);
}

TEST(DeviceSearch, ChosenIndexAlwaysAtLeastFirstFeasible) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto suite = generate_synthetic_suite(101, 12);
  PartitionerOptions fast;
  fast.search.max_move_evaluations = 100000;
  for (const SyntheticDesign& s : suite) {
    const DevicePartitionResult r =
        partition_on_smallest_device(s.design, lib, fast);
    EXPECT_GE(r.chosen_index, r.first_feasible_index);
    EXPECT_EQ(r.escalated, r.chosen_index != r.first_feasible_index);
    EXPECT_TRUE(r.result.feasible);
  }
}

TEST(DeviceSearch, EscalationOnlyWhenSearchFailsOnSmallerDevice) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto suite = generate_synthetic_suite(202, 8);
  PartitionerOptions fast;
  fast.search.max_move_evaluations = 100000;
  for (const SyntheticDesign& s : suite) {
    const DevicePartitionResult r =
        partition_on_smallest_device(s.design, lib, fast);
    if (r.escalated) {
      // The device actually chosen must host a search-found scheme, unless
      // we ran off the end of the library.
      if (r.chosen_index + 1 < lib.devices().size()) {
        EXPECT_TRUE(r.result.proposed_from_search);
      }
    }
  }
}

TEST(DeviceSearch, LadderMatchesPerRungReferenceOnTheSweepSuite) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto suite = generate_synthetic_suite(2013, 150);
  const PartitionerOptions options = sweep_options();
  std::size_t escalated = 0;
  for (const SyntheticDesign& s : suite)
    if (expect_ladder_matches_reference(s.design, lib, options).escalated)
      ++escalated;
  // The slice exercises escalation past single-region-only rungs.
  EXPECT_GT(escalated, 0u);
}

TEST(DeviceSearch, SingleRegionFitsOnlyTheLastRungAndTheFallbackIsKept) {
  const Design d = fallback_at_bill();
  const ResourceVec bill = single_region_bill(d).total;
  DeviceLibrary lib;
  lib.add(Device("half", {bill.clbs / 2, bill.brams, bill.dsps}, 1));
  lib.add(Device("exact", bill, 1));
  const DevicePartitionResult r = partition_on_smallest_device(d, lib);
  EXPECT_EQ(r.chosen_index, 1u);
  EXPECT_EQ(r.first_feasible_index, 1u);
  EXPECT_FALSE(r.escalated);
  EXPECT_TRUE(r.result.feasible);
  EXPECT_FALSE(r.result.proposed_from_search);
  EXPECT_EQ(r.result.proposed.name, "Proposed (single-region fallback)");
  expect_ladder_matches_reference(d, lib, {});
}

TEST(DeviceSearch, DesignFittingNoRungThrows) {
  const Design d = fallback_at_bill();
  const ResourceVec bill = single_region_bill(d).total;
  DeviceLibrary lib;
  lib.add(Device("few_clbs", {bill.clbs - 20, bill.brams, bill.dsps}, 1));
  lib.add(Device("few_brams", {bill.clbs * 4, bill.brams - 4, bill.dsps}, 1));
  EXPECT_THROW(partition_on_smallest_device(d, lib), DeviceError);
  EXPECT_THROW(per_rung_reference(d, lib, {}), DeviceError);
}

TEST(DeviceSearch, EscalationSkipsAnInfeasibleRungBetweenFeasibleOnes) {
  // Feasible rungs 0 and 2 with an infeasible one between them (libraries
  // are ordered by logic, not by every resource): rung 0 only supports the
  // single region, so the walk escalates across rung 1 to rung 2.
  const Design d = fallback_at_bill();
  const ResourceVec bill = single_region_bill(d).total;
  DeviceLibrary lib;
  lib.add(Device("exact", bill, 1));
  lib.add(Device("no_dsps", {bill.clbs * 2, bill.brams * 2, 0}, 1));
  lib.add(Device("roomy", {bill.clbs * 2, bill.brams * 2, bill.dsps * 2}, 1));
  const DevicePartitionResult r = partition_on_smallest_device(d, lib);
  EXPECT_EQ(r.first_feasible_index, 0u);
  EXPECT_EQ(r.chosen_index, 2u);
  EXPECT_TRUE(r.escalated);
  EXPECT_TRUE(r.result.proposed_from_search);
  expect_ladder_matches_reference(d, lib, {});
}

// One plan serves every budget: solve() equals a fresh partition_design for
// an infeasible, a tight and a generous budget, with a call-local scratch
// and with one warm scratch shared across all calls (the server's path,
// where the kernel counters are folded in as scratch deltas).
TEST(DesignPlanTest, SolveMatchesAFreshPartitionForEveryBudget) {
  const auto suite = generate_synthetic_suite(2013, 6);
  const ResourceVec generous =
      DeviceLibrary::virtex5().devices().back().capacity();
  for (const SyntheticDesign& s : suite) {
    const ResourceVec bill = single_region_bill(s.design).total;
    const ResourceVec infeasible{bill.clbs - 1, bill.brams, bill.dsps};
    for (const bool shared : {false, true}) {
      EvalScratch warm;
      PartitionerOptions options = sweep_options();
      if (shared) options.search.scratch = &warm;
      const DesignPlan plan(s.design, options);
      for (const ResourceVec& budget : {infeasible, bill, generous}) {
        const std::string what = s.design.name() + " budget " +
                                 budget.to_string() +
                                 (shared ? " (shared scratch)" : "");
        const PartitionerResult solved = solve(plan, budget, options);
        const PartitionerResult fresh =
            partition_design(s.design, budget, options);
        EXPECT_EQ(dump(solved), dump(fresh)) << what;
        // The plan scores its baselines once; each must still equal an
        // evaluation against this very budget.
        EvalScratch scratch;
        EXPECT_EQ(dump(solved.modular.eval),
                  dump(plan.context().evaluate(solved.modular.scheme, budget,
                                               scratch)))
            << what;
        EXPECT_EQ(dump(solved.static_impl.eval),
                  dump(plan.context().evaluate(solved.static_impl.scheme,
                                               budget, scratch)))
            << what;
        EXPECT_EQ(dump(solved.single_region.eval),
                  dump(single_region_scheme(s.design, plan.matrix(),
                                            plan.base_partitions(), budget)
                           .second))
            << what;
      }
    }
  }
}

TEST(DesignPlanTest, InfeasibleBudgetKeepsTheBaselines) {
  // `partition --device <too-small>` reports the baselines and the
  // single-region evaluation of an infeasible target; a solve against a
  // reused plan must report the same ones.
  const Design d = paper_example();
  const DesignPlan plan(d);
  (void)solve(plan, {100000, 1000, 1000});
  const PartitionerResult r = solve(plan, {100, 1, 1});
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.single_region.eval.fits);
  EXPECT_FALSE(r.modular.eval.fits);
  EXPECT_TRUE(r.modular.eval.valid);
  EXPECT_TRUE(r.static_impl.eval.valid);
  EXPECT_EQ(r.stats.kernel_evaluations, 2u);
  EXPECT_EQ(dump(r), dump(partition_design(d, {100, 1, 1})));
}

TEST(DesignPlanTest, SingleRegionBillDecidesFeasibility) {
  const Design d = paper_example();
  const DesignPlan plan(d);
  const SingleRegionBill& bill = plan.single_region_bill();
  EXPECT_EQ(bill.total, single_region_bill(d).total);
  ResourceVec tight = bill.total;
  EXPECT_TRUE(solve(plan, tight).feasible);
  tight.clbs -= 1;
  EXPECT_FALSE(solve(plan, tight).feasible);
  EXPECT_EQ(solve(plan, bill.total).single_region.eval.total_resources,
            bill.total);
}

TEST(DesignPlanTest, FiredCancelTokenUnwindsThePlan) {
  // The plan polls the job's token while it enumerates base partitions, so
  // a job whose deadline has passed stops before the plan is built.
  const Design d = paper_example();
  CancelToken fired;
  fired.cancel();
  PartitionerOptions options;
  options.search.cancel = &fired;
  EXPECT_THROW(DesignPlan(d, options), CancelledError);
  // A live token changes nothing.
  CancelToken live;
  options.search.cancel = &live;
  const DesignPlan plan(d, options);
  EXPECT_EQ(plan.base_partitions().size(),
            DesignPlan(d).base_partitions().size());
}

}  // namespace
}  // namespace prpart
