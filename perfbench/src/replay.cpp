#include "replay.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/frontend.hpp"
#include "core/clustering.hpp"
#include "core/compatibility.hpp"
#include "core/connectivity.hpp"
#include "core/eval_kernel.hpp"
#include "core/schemes.hpp"
#include "design/io_xml.hpp"
#include "floorplan/rerank.hpp"
#include "server/hash.hpp"
#include "server/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/status.hpp"

namespace perfbench {

using namespace prpart;

void LayerCounts::add(const LayerCounts& o) {
  designs += o.designs;
  rungs += o.rungs;
  rungs_infeasible += o.rungs_infeasible;
  searches += o.searches;
  searches_discarded += o.searches_discarded;
  base_partitions += o.base_partitions;
  move_evaluations += o.move_evaluations;
  units += o.units;
  units_pruned += o.units_pruned;
  kernel_evaluations += o.kernel_evaluations;
  floorplan_candidates += o.floorplan_candidates;
  floorplan_vetoed += o.floorplan_vetoed;
  sim_transitions += o.sim_transitions;
}

namespace {

// Mirrors partition_design (src/core/partitioner.cpp) call for call; the
// trace run checks that the outcome matches the one-shot call.
PartitionerResult replay_partition_design(const Design& design,
                                          const ResourceVec& budget,
                                          const PartitionerOptions& options,
                                          SpanRecorder* rec,
                                          std::uint64_t request,
                                          LayerCounts& counts) {
  PartitionerResult result;
  ++counts.rungs;

  const ConnectivityMatrix matrix =
      timed(rec, Layer::kConnectivity, request,
            [&] { return ConnectivityMatrix(design); });
  result.base_partitions = timed(rec, Layer::kClustering, request, [&] {
    return enumerate_base_partitions(design, matrix,
                                     options.max_partition_modes);
  });
  counts.base_partitions += result.base_partitions.size();
  const CompatibilityTable compat =
      timed(rec, Layer::kCompatibility, request, [&] {
        return CompatibilityTable(matrix, result.base_partitions);
      });
  const EvalContext context = timed(rec, Layer::kEvalContext, request, [&] {
    return EvalContext(design, matrix, result.base_partitions);
  });

  EvalScratch scratch;
  std::uint64_t baseline_evals = 0;
  std::uint64_t baseline_collapsed = 0;
  {
    const ScopedSpan span(rec, Layer::kBaselines, request);
    result.modular.name = "Modular";
    result.modular.scheme =
        make_modular_scheme(design, matrix, result.base_partitions);
    result.static_impl.name = "Static";
    result.static_impl.scheme =
        make_static_scheme(design, matrix, result.base_partitions);
    const PartitionScheme* baselines[2] = {&result.modular.scheme,
                                           &result.static_impl.scheme};
    SchemeEvaluation evals[2];
    context.evaluate_batch_into(baselines, 2, budget, scratch, evals);
    result.modular.eval = std::move(evals[0]);
    result.static_impl.eval = std::move(evals[1]);
    require(result.modular.eval.valid,
            "modular baseline invalid: " + result.modular.eval.invalid_reason);
    require(result.static_impl.eval.valid,
            "static baseline invalid: " +
                result.static_impl.eval.invalid_reason);
    baseline_evals = scratch.stats.kernel_evaluations;
    baseline_collapsed = scratch.stats.signature_collapsed_configs;

    result.single_region.name = "Single region";
    auto [single_scheme, single_eval] = single_region_scheme(
        design, matrix, result.base_partitions, budget);
    result.single_region.scheme = std::move(single_scheme);
    result.single_region.eval = std::move(single_eval);
    result.feasible = result.single_region.eval.fits;
  }

  if (result.feasible) {
    const ScopedSpan span(rec, Layer::kSearch, request);
    ++counts.searches;
    SearchOptions search_options = options.search;
    search_options.eval_context = &context;
    SearchResult search = search_partitioning(
        design, matrix, result.base_partitions, compat, budget, search_options);
    result.stats = search.stats;
    const auto objective_of = [&](const SchemeEvaluation& e) {
      return options.search.pair_weights
                 ? weighted_total_frames(e, *options.search.pair_weights)
                 : e.total_frames;
    };
    if (search.feasible &&
        objective_of(search.eval) <= objective_of(result.single_region.eval)) {
      result.proposed = {"Proposed", std::move(search.scheme),
                         std::move(search.eval)};
      result.proposed_from_search = true;
      result.alternatives = std::move(search.alternatives);
    } else {
      result.proposed = result.single_region;
      result.proposed.name = "Proposed (single-region fallback)";
      result.proposed_from_search = false;
    }
  } else {
    ++counts.rungs_infeasible;
  }
  result.stats.kernel_evaluations += baseline_evals;
  result.stats.signature_collapsed_configs += baseline_collapsed;

  counts.move_evaluations += result.stats.move_evaluations;
  counts.units += result.stats.units;
  counts.units_pruned += result.stats.units_pruned;
  counts.kernel_evaluations += result.stats.kernel_evaluations;
  return result;
}

}  // namespace

// Mirrors partition_on_smallest_device (src/core/partitioner.cpp).
DevicePartitionResult replay_smallest_device(const Design& design,
                                             const DeviceLibrary& library,
                                             const PartitionerOptions& options,
                                             SpanRecorder* rec,
                                             std::uint64_t request,
                                             LayerCounts& counts) {
  const ScopedSpan span(rec, Layer::kDesign, request);
  ++counts.designs;
  const auto& devices = library.devices();
  require(!devices.empty(), "device library is empty");

  DevicePartitionResult out;
  bool found_first = false;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    PartitionerResult r = replay_partition_design(
        design, devices[i].capacity(), options, rec, request, counts);
    if (!r.feasible) continue;
    if (!found_first) {
      out.first_feasible_index = i;
      found_first = true;
    }
    const bool only_single_region = !r.proposed_from_search;
    out.device = &devices[i];
    out.chosen_index = i;
    out.result = std::move(r);
    if (only_single_region && i + 1 < devices.size()) {
      ++counts.searches_discarded;
      continue;
    }
    out.escalated = out.chosen_index != out.first_feasible_index;
    return out;
  }
  if (found_first) {
    out.escalated = out.chosen_index != out.first_feasible_index;
    return out;
  }
  throw DeviceError("design '" + design.name() +
                    "' does not fit any device in the library");
}

// Mirrors Server::handle_request / admit_job / execute_job for the request
// kinds the serve_mix stream sends (src/server/server.cpp).
JobReplay replay_job(const std::string& line, const DeviceLibrary& library,
                     SpanRecorder* rec, std::uint64_t request) {
  using namespace prpart::server;
  const ScopedSpan span(rec, Layer::kJob, request);
  JobReplay out;

  const Request req = timed(rec, Layer::kParseRequest, request,
                            [&] { return parse_request(line); });
  if (req.type == Request::Type::Analyze) {
    analysis::AnalysisOptions options;
    options.library = library;
    options.budget = req.analyze.budget;
    if (!req.analyze.device.empty()) options.device = req.analyze.device;
    const analysis::SourceAnalysis sa =
        timed(rec, Layer::kAnalyze, request, [&] {
          return analysis::analyze_design_source(req.analyze.design_xml,
                                                 options);
        });
    const ScopedSpan encode(rec, Layer::kEncode, request);
    out.payload = analysis::analysis_json(sa.result).dump();
    out.response = ok_response(req.id, out.payload);
    return out;
  }

  const PartitionRequest* preq = nullptr;
  std::string target;
  switch (req.type) {
    case Request::Type::Partition:
      preq = &req.partition;
      target = preq->target_string();
      break;
    case Request::Type::Simulate:
      preq = &req.simulate.partition;
      target = preq->target_string() + ";" + req.simulate.params.cache_string();
      break;
    case Request::Type::Floorplan:
      preq = &req.floorplan.partition;
      target =
          preq->target_string() + ";" + req.floorplan.params.cache_string();
      break;
    default:
      throw std::invalid_argument("replay_job: unsupported request type");
  }
  if (!preq->device.empty() || preq->budget)
    throw std::invalid_argument("replay_job: only auto-device jobs");

  const Design design = timed(rec, Layer::kDesignParse, request, [&] {
    return design_from_xml(preq->design_xml);
  });
  PartitionerOptions options = preq->options;
  if (options.search.threads == 0) options.search.threads = 1;
  {
    const ScopedSpan key(rec, Layer::kCacheKey, request);
    const std::string cache_key = job_cache_key(design, target, options);
    if (cache_key.empty()) throw std::logic_error("empty cache key");
  }

  DevicePartitionResult dp = replay_smallest_device(design, library, options,
                                                    rec, request, out.counts);
  const std::string& device_name = dp.device->name();
  const ResourceVec budget = dp.device->capacity();
  const PartitionerResult& result = dp.result;
  out.proposed_total_frames = result.proposed.eval.total_frames;

  if (req.type == Request::Type::Floorplan) {
    const FloorplanRerank rerank =
        timed(rec, Layer::kFloorplanRerank, request, [&] {
          return floorplan_rerank(design, result, *dp.device, budget,
                                  req.floorplan.params.rerank_options(),
                                  &library);
        });
    out.counts.floorplan_candidates += rerank.ranked.size();
    out.counts.floorplan_vetoed += rerank.vetoed_count;
    if (!rerank.any_feasible) {
      out.infeasible = true;
      return out;
    }
    const ScopedSpan encode(rec, Layer::kEncode, request);
    out.payload =
        floorplan_result_json(design, result, rerank, device_name, budget)
            .dump();
  } else if (req.type == Request::Type::Simulate) {
    const SimulateParams& params = req.simulate.params;
    if (params.floorplan)
      throw std::invalid_argument("replay_job: simulate+floorplan unsupported");
    const SchemeEvaluation& eval = result.proposed.eval;
    const SimulateSetup setup = timed(rec, Layer::kSimReplay, request, [&] {
      return simulate_setup(design.configurations().size(), params);
    });
    sim::SimulationOptions sopt;
    sopt.prefetch = params.prefetch;
    sopt.predictor = &setup.env;
    sopt.inter_arrival_ns = params.inter_arrival_ns;
    const sim::SimulationResult sr =
        timed(rec, Layer::kSimReplay, request, [&] {
          return sim::simulate_scheme(design, result.proposed.scheme, eval,
                                      setup.trace, sopt);
        });
    out.counts.sim_transitions += sr.transitions;
    const ScopedSpan encode(rec, Layer::kEncode, request);
    out.payload =
        simulate_result_json(design, device_name, budget, params, setup.source,
                             setup.trace.transitions(),
                             {SimulatedScheme{"proposed", eval.total_frames,
                                              eval.worst_frames, sr}})
            .dump();
  } else {
    const ScopedSpan encode(rec, Layer::kEncode, request);
    out.payload =
        partition_result_json(design, result, device_name, budget).dump();
  }
  {
    const ScopedSpan encode(rec, Layer::kEncode, request);
    out.response = ok_response(req.id, out.payload);
  }
  return out;
}

}  // namespace perfbench
