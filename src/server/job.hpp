#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "server/protocol.hpp"

namespace prpart::server {

/// The job engine of the one-shot CLI and the server worker (DESIGN.md
/// §10): both build a JobSpec, run it through check_job/run_job and render
/// the JobOutcome, so they make the same decisions by construction.
struct JobSpec {
  PartitionRequest request;
  std::optional<SimulateParams> simulate;    ///< replay a workload after
  std::optional<FloorplanParams> floorplan;  ///< floorplan + re-rank after

  /// Cache target: target_string(), extended by the stage's cache_string().
  std::string cache_target() const;
};

/// Throws DeviceError for an unknown device and ParseError for a simulate
/// job over fewer than two configurations; then, for an explicit target,
/// returns the analysis::prove_infeasible proof when the design cannot fit.
/// That bound is the search's own feasibility test: a job it passes
/// partitions feasibly.
std::optional<analysis::InfeasibilityProof> check_job(
    const JobSpec& spec, const Design& design, const DeviceLibrary& library);

/// "design does not fit the target (lower bound …, budget …)".
std::string infeasible_headline(const Design& design, const ResourceVec& budget);

/// Where floorplan stages place: the named or ladder device, else the
/// smallest library device covering the budget, else DeviceError.
const Device& placement_device(const Device* target, const ResourceVec& budget,
                               const DeviceLibrary& library);

/// Simulate-stage knobs outside the wire schema (`prpart simulate
/// --rank/--idle-frames/--trace`); the server runs the defaults.
struct ReplayOptions {
  bool runners_up = false;  ///< also replay the fitting runners-up
  std::uint64_t idle_frames_budget = ~std::uint64_t{0};
  /// A recorded workload replacing simulate_setup's.
  std::optional<SimulateSetup> workload;
};

/// What a replay ran and what each scheme paid (proposal first).
struct Replay {
  std::string source;  ///< "markov", "uniform" or "file"
  std::uint64_t transitions = 0;
  std::vector<SimulatedScheme> rows;
};

struct JobOutcome {
  PartitionerResult result;
  const Device* device = nullptr;  ///< named or ladder target; null: budget
  ResourceVec budget;              ///< what the search ran against
  const Device* placement = nullptr;  ///< set when a stage placed schemes
  FloorplanRerank rerank;             ///< floorplan jobs
  Replay replay;                      ///< simulate jobs
  std::size_t placed = 0;  ///< schemes the placement pass floorplanned
  std::size_t vetoed = 0;  ///< ... and vetoed
  /// Why the job has no answer (the infeasible headline or a placement
  /// veto); empty on success.
  std::string failure;

  std::string device_name() const { return device ? device->name() : ""; }
};

/// Resolves the target (device, budget, or the smallest-device ladder) and
/// partitions; after a feasible search runs the floorplan re-rank or the
/// (optionally placement-true) simulate stage. Effort, threads, deadline,
/// pool and scratch come from spec.request.options. Throws DeviceError when
/// no device fits (ladder) or covers the budget (placement).
JobOutcome run_job(const JobSpec& spec, const Design& design,
                   const DeviceLibrary& library,
                   const ReplayOptions& replay_options = {});

/// The simulate stage's replay of `schemes` on `threads` workers; also
/// `prpart simulate --load`'s, which has no search.
Replay replay_schemes(const Design& design, const SimulateParams& params,
                      const ReplayOptions& options, unsigned threads,
                      const std::vector<PartitionScheme>& schemes,
                      const std::vector<SchemeEvaluation>& evals);

/// The result payload of the spec's stage: what the server stores and
/// answers, and what the CLI's `--json` prints.
std::string job_payload(const JobSpec& spec, const Design& design,
                        const JobOutcome& outcome);

}  // namespace prpart::server
