#pragma once

// Replays of the program's one-shot paths through its public functions,
// with a span around each layer call. With a null recorder the replay runs
// untraced; the results are the same either way, and the checks in main.cpp
// hold them equal to the one-shot calls and to the served bytes.

#include <cstdint>
#include <string>

#include "core/partitioner.hpp"
#include "device/device.hpp"
#include "spans.hpp"

namespace perfbench {

/// Work counts recorded at the layer boundaries of the replay.
struct LayerCounts {
  std::uint64_t designs = 0;
  std::uint64_t rungs = 0;             ///< partition_design calls
  std::uint64_t rungs_infeasible = 0;  ///< rungs below the lower bound
  std::uint64_t searches = 0;
  std::uint64_t searches_discarded = 0;  ///< searched, then escalated past
  std::uint64_t base_partitions = 0;
  std::uint64_t move_evaluations = 0;
  std::uint64_t units = 0;
  std::uint64_t units_pruned = 0;
  std::uint64_t kernel_evaluations = 0;
  std::uint64_t floorplan_candidates = 0;
  std::uint64_t floorplan_vetoed = 0;
  std::uint64_t sim_transitions = 0;

  void add(const LayerCounts& other);
};

/// partition_on_smallest_device, rung by rung (each rung partition_design
/// with one span per layer), inside a `design` span.
prpart::DevicePartitionResult replay_smallest_device(
    const prpart::Design& design, const prpart::DeviceLibrary& library,
    const prpart::PartitionerOptions& options, SpanRecorder* recorder,
    std::uint64_t request, LayerCounts& counts);

struct JobReplay {
  bool infeasible = false;
  std::string payload;   ///< result bytes (what the server splices)
  std::string response;  ///< full ok_response line
  std::uint64_t proposed_total_frames = 0;  ///< partitioner's Eq. 10 total
  LayerCounts counts;
};

/// One request line of the serving protocol replayed the way a server
/// worker runs it: parse_request -> design_from_xml -> job_cache_key ->
/// partitioner -> floorplan_rerank / simulate_scheme -> encoder ->
/// ok_response, inside a `job` span. Handles `analyze` and auto-device
/// `partition`, `floorplan` and `simulate` jobs (the kinds the serve_mix
/// stream sends). Throws on anything else.
JobReplay replay_job(const std::string& line,
                     const prpart::DeviceLibrary& library,
                     SpanRecorder* recorder, std::uint64_t request);

}  // namespace perfbench
