#include "flow/flow.hpp"

#include "floorplan/annealing.hpp"
#include "util/status.hpp"

namespace prpart {

namespace {

/// Finishes a FlowResult from a scheme that floorplanned successfully.
void finish(FlowResult& result, const Design& design,
            PartitionerResult partitioning, FloorplanResult plan,
            const Device& device) {
  result.success = true;
  result.ucf = to_ucf(device, plan.placements);
  result.bitstreams = generate_bitstreams(
      design, partitioning.base_partitions, partitioning.proposed.scheme,
      partitioning.proposed.eval);
  result.partitioning = std::move(partitioning);
  result.floorplan = std::move(plan);
}

/// run_flow over a prebuilt plan: only the budget changes between feedback
/// iterations and devices, so one plan serves them all.
FlowResult run_flow_on(const DesignPlan& partition_plan, const Design& design,
                       const Device& device, const FlowOptions& options) {
  FlowResult result;
  result.device = &device;

  ResourceVec budget = device.capacity();
  const Floorplanner floorplanner(device);

  for (result.iterations = 1;
       result.iterations <= options.max_feedback_iterations;
       ++result.iterations) {
    PartitionerResult partitioning =
        solve(partition_plan, budget, options.partitioner);
    if (!partitioning.feasible) {
      result.failure_reason = "design does not fit " + device.name() +
                              " (budget " + budget.to_string() + ")";
      return result;
    }

    FloorplanResult plan =
        floorplanner.place_scheme(partitioning.proposed.eval);
    if (plan.success) {
      finish(result, design, std::move(partitioning), std::move(plan),
             device);
      return result;
    }

    // First feedback lever (§VI): try the search's ranked runner-up
    // schemes; a slightly costlier grouping often floorplans where the
    // best one fragments.
    if (!partitioning.alternatives.empty()) {
      EvalScratch scratch;
      for (std::size_t alt = 1; alt < partitioning.alternatives.size();
           ++alt) {
        SchemeEvaluation eval = partition_plan.context().evaluate(
            partitioning.alternatives[alt].scheme, budget, scratch);
        if (!eval.valid || !eval.fits) continue;
        FloorplanResult alt_plan = floorplanner.place_scheme(eval);
        if (!alt_plan.success) continue;
        partitioning.proposed.scheme =
            partitioning.alternatives[alt].scheme;
        partitioning.proposed.eval = std::move(eval);
        partitioning.proposed.name = "Proposed (alternative)";
        result.alternative_used = alt;
        finish(result, design, std::move(partitioning),
               std::move(alt_plan), device);
        return result;
      }
    }

    // Second lever: joint (simulated-annealing) placement of the best
    // scheme's rectangles; first-fit commitments are what usually wedge.
    if (options.use_annealing_fallback) {
      std::vector<TileCount> need;
      need.reserve(partitioning.proposed.eval.regions.size());
      for (const RegionReport& region : partitioning.proposed.eval.regions)
        need.push_back(region.tiles);
      FloorplanResult annealed = anneal_place(device, need, options.annealing);
      if (annealed.success) {
        finish(result, design, std::move(partitioning), std::move(annealed),
               device);
        return result;
      }
    }

    // Last lever: the scheme fit by resource count but not as rectangles;
    // tighten the budget so the next partitioning leaves more slack.
    const std::uint32_t tenths = options.budget_shrink_tenths;
    require(tenths >= 1 && tenths <= 9, "budget shrink must be 1..9 tenths");
    budget = ResourceVec{budget.clbs - budget.clbs * tenths / 10,
                         budget.brams - budget.brams * tenths / 10,
                         budget.dsps - budget.dsps * tenths / 10};
    result.partitioning = std::move(partitioning);
    result.floorplan = std::move(plan);
  }
  --result.iterations;  // loop overshoots by one on failure
  result.failure_reason = "no floorplannable scheme within " +
                          std::to_string(options.max_feedback_iterations) +
                          " feedback iterations on " + device.name();
  return result;
}

}  // namespace

FlowResult run_flow(const Design& design, const Device& device,
                    const FlowOptions& options) {
  const DesignPlan partition_plan(design, options.partitioner);
  return run_flow_on(partition_plan, design, device, options);
}

FlowResult run_flow_auto_device(const Design& design,
                                const DeviceLibrary& library,
                                const FlowOptions& options) {
  require(!library.devices().empty(), "device library is empty");
  const DesignPlan partition_plan(design, options.partitioner);
  FlowResult last;
  for (const Device& device : library.devices()) {
    last = run_flow_on(partition_plan, design, device, options);
    if (last.success) return last;
  }
  throw DeviceError("design '" + design.name() +
                    "' completes the flow on no device in the library (last: " +
                    last.failure_reason + ")");
}

}  // namespace prpart
