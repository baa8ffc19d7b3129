#include "server/job.hpp"

#include <utility>

#include "core/clustering.hpp"
#include "core/connectivity.hpp"
#include "core/scheme.hpp"
#include "floorplan/placement.hpp"
#include "util/status.hpp"

namespace prpart::server {

namespace {

/// The proposal (and optionally its fitting runners-up), placed when the
/// params ask for placement-true costs, then replayed.
void simulate_stage(const JobSpec& spec, const Design& design,
                    const DeviceLibrary& library, const ReplayOptions& options,
                    JobOutcome& out) {
  std::vector<PartitionScheme> schemes{out.result.proposed.scheme};
  std::vector<SchemeEvaluation> evals{out.result.proposed.eval};
  // The wire labels the proposal "proposed", a single-region fallback too.
  schemes.front().label = "proposed";
  if (options.runners_up) {
    const ConnectivityMatrix matrix(design);
    const auto partitions = enumerate_base_partitions(design, matrix);
    for (std::size_t i = 1; i < out.result.alternatives.size(); ++i) {
      PartitionScheme alt = out.result.alternatives[i].scheme;
      SchemeEvaluation eval =
          evaluate_scheme(design, matrix, partitions, alt, out.budget);
      if (!eval.valid || !eval.fits) continue;
      if (alt.label.empty()) alt.label = "alt" + std::to_string(i);
      schemes.push_back(std::move(alt));
      evals.push_back(std::move(eval));
    }
  }
  if (spec.simulate->floorplan) {
    // Patch every scheme's frames with its placement; a vetoed proposal
    // fails the job, vetoed runners-up drop out.
    out.placement = &placement_device(out.device, out.budget, library);
    std::vector<PartitionScheme> kept_schemes;
    std::vector<SchemeEvaluation> kept_evals;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const PlacedFloorplan plan = floorplan_scheme(*out.placement, evals[i]);
      ++out.placed;
      if (!plan.feasible) {
        ++out.vetoed;
        if (i > 0) continue;
        out.failure = "the proposed scheme has no legal floorplan on " +
                      out.placement->name();
        return;
      }
      kept_schemes.push_back(std::move(schemes[i]));
      kept_evals.push_back(with_placement_frames(std::move(evals[i]), plan));
    }
    schemes = std::move(kept_schemes);
    evals = std::move(kept_evals);
  }
  out.replay = replay_schemes(design, *spec.simulate, options,
                              spec.request.options.search.threads, schemes,
                              evals);
}

}  // namespace

std::string JobSpec::cache_target() const {
  std::string target = request.target_string();
  if (simulate) target += ";" + simulate->cache_string();
  if (floorplan) target += ";" + floorplan->cache_string();
  return target;
}

std::optional<analysis::InfeasibilityProof> check_job(
    const JobSpec& spec, const Design& design, const DeviceLibrary& library) {
  const PartitionRequest& request = spec.request;
  const Device* device =
      request.device.empty() ? nullptr : &library.by_name(request.device);
  if (spec.simulate && design.configurations().size() < 2)
    throw ParseError("simulation needs at least two configurations");
  if (!device && !request.budget) return std::nullopt;
  return analysis::prove_infeasible(
      design, device ? device->capacity() : *request.budget, library,
      device ? device->name() : "budget");
}

std::string infeasible_headline(const Design& design,
                                const ResourceVec& budget) {
  return "design does not fit the target (lower bound " +
         (design.largest_configuration_area() + design.static_base())
             .to_string() +
         ", budget " + budget.to_string() + ")";
}

const Device& placement_device(const Device* target, const ResourceVec& budget,
                               const DeviceLibrary& library) {
  if (target) return *target;
  const Device* device = library.smallest_fitting(budget);
  if (!device) throw DeviceError("no library device covers the budget");
  return *device;
}

JobOutcome run_job(const JobSpec& spec, const Design& design,
                   const DeviceLibrary& library,
                   const ReplayOptions& replay_options) {
  const PartitionRequest& request = spec.request;
  JobOutcome out;
  if (request.device.empty() && !request.budget) {
    DevicePartitionResult dp =
        partition_on_smallest_device(design, library, request.options);
    out.device = dp.device;
    out.budget = dp.device->capacity();
    out.result = std::move(dp.result);
  } else {
    if (!request.device.empty()) out.device = &library.by_name(request.device);
    out.budget = out.device ? out.device->capacity() : *request.budget;
    out.result = partition_design(design, out.budget, request.options);
  }
  if (!out.result.feasible) {
    out.failure = infeasible_headline(design, out.budget);
  } else if (spec.floorplan) {
    out.placement = &placement_device(out.device, out.budget, library);
    out.rerank = floorplan_rerank(design, out.result, *out.placement, out.budget,
                                  spec.floorplan->rerank_options(), &library);
    out.placed = out.rerank.ranked.size();
    out.vetoed = out.rerank.vetoed_count;
    if (!out.rerank.any_feasible)
      out.failure = "no enumerated scheme has a legal floorplan on " +
                    out.placement->name();
  } else if (spec.simulate) {
    simulate_stage(spec, design, library, replay_options, out);
  }
  return out;
}

Replay replay_schemes(const Design& design, const SimulateParams& params,
                      const ReplayOptions& options, unsigned threads,
                      const std::vector<PartitionScheme>& schemes,
                      const std::vector<SchemeEvaluation>& evals) {
  const std::size_t configs = design.configurations().size();
  const SimulateSetup setup =
      options.workload ? *options.workload : simulate_setup(configs, params);
  sim::SimulationOptions sopt;
  sopt.prefetch = params.prefetch;
  sopt.predictor = &setup.env;  // the environment chain predicts prefetches
  sopt.inter_arrival_ns = params.inter_arrival_ns;
  sopt.idle_frames_budget = options.idle_frames_budget;
  std::vector<sim::SchemeRef> refs;
  for (std::size_t i = 0; i < schemes.size(); ++i)
    refs.push_back(sim::SchemeRef{&schemes[i], &evals[i]});
  const std::vector<sim::SimulationResult> results =
      sim::simulate_schemes(design, refs, setup.trace, sopt, threads);

  Replay replay{setup.source, setup.trace.transitions(), {}};
  for (std::size_t i = 0; i < schemes.size(); ++i)
    replay.rows.push_back(SimulatedScheme{schemes[i].label,
                                          evals[i].total_frames,
                                          evals[i].worst_frames, results[i]});
  return replay;
}

std::string job_payload(const JobSpec& spec, const Design& design,
                        const JobOutcome& out) {
  if (spec.floorplan)
    return floorplan_result_json(design, out.result, out.rerank,
                                 out.device_name(), out.budget)
        .dump();
  if (spec.simulate)
    return simulate_result_json(design, out.device_name(), out.budget,
                                *spec.simulate, out.replay.source,
                                out.replay.transitions, out.replay.rows)
        .dump();
  return partition_result_json(design, out.result, out.device_name(),
                               out.budget)
      .dump();
}

}  // namespace prpart::server
