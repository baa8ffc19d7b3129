#include "core/partitioner.hpp"

#include "core/clustering.hpp"
#include "core/feasibility.hpp"
#include "core/schemes.hpp"
#include "util/status.hpp"

namespace prpart {

DesignPlan::DesignPlan(const Design& design, const PartitionerOptions& options)
    : design_(design),
      matrix_(design),
      partitions_(enumerate_base_partitions(design, matrix_,
                                            options.max_partition_modes,
                                            options.search.cancel)),
      compat_(matrix_, partitions_),
      sets_(prpart::candidate_sets(partitions_, matrix_,
                                   options.search.max_candidate_sets,
                                   options.search.cancel)),
      // One evaluation-kernel context per (design, partition set): the
      // baseline evaluations below, the search's final certification, and
      // any caller re-evaluation share its precomputed activity matrix
      // (DESIGN.md §4d).
      context_(design, matrix_, partitions_),
      bill_(prpart::single_region_bill(design)) {
  // A caller-provided scratch (options.search.scratch — the server's job
  // workers keep one warm per pool thread) is reused so steady-state jobs
  // evaluate with zero heap allocations (§4e).
  EvalScratch local_scratch;
  EvalScratch& scratch = options.search.scratch != nullptr
                             ? *options.search.scratch
                             : local_scratch;
  const std::uint64_t scratch_evals_before = scratch.stats.kernel_evaluations;
  const std::uint64_t scratch_collapsed_before =
      scratch.stats.signature_collapsed_configs;

  // Baselines, scored in one kernel batch (§4e) — same evaluations in the
  // same order as two evaluate() calls. The empty budget only decides
  // `fits`, which solve() recomputes per budget.
  modular_.name = "Modular";
  modular_.scheme = make_modular_scheme(design, matrix_, partitions_);
  static_impl_.name = "Static";
  static_impl_.scheme = make_static_scheme(design, matrix_, partitions_);
  {
    const PartitionScheme* baselines[2] = {&modular_.scheme,
                                           &static_impl_.scheme};
    SchemeEvaluation evals[2];
    context_.evaluate_batch_into(baselines, 2, ResourceVec{}, scratch, evals);
    modular_.eval = std::move(evals[0]);
    static_impl_.eval = std::move(evals[1]);
  }
  require(modular_.eval.valid,
          "modular baseline invalid: " + modular_.eval.invalid_reason);
  require(static_impl_.eval.valid,
          "static baseline invalid: " + static_impl_.eval.invalid_reason);
  // Kernel work of the baselines alone; the search folds its own
  // certification delta into its stats, so adding the whole scratch delta
  // would double-count when the scratch is shared.
  baseline_evals_ = scratch.stats.kernel_evaluations - scratch_evals_before;
  baseline_collapsed_ =
      scratch.stats.signature_collapsed_configs - scratch_collapsed_before;

  single_region_.name = "Single region";
  auto [single_scheme, single_eval] =
      single_region_scheme(design, matrix_, partitions_, ResourceVec{});
  single_region_.scheme = std::move(single_scheme);
  single_region_.eval = std::move(single_eval);
}

PartitionerResult solve(const DesignPlan& plan, const ResourceVec& budget,
                        const PartitionerOptions& options) {
  PartitionerResult result;
  result.base_partitions = plan.partitions_;
  result.modular = plan.modular_;
  result.static_impl = plan.static_impl_;
  result.single_region = plan.single_region_;
  for (SchemeSummary* s :
       {&result.modular, &result.static_impl, &result.single_region})
    s->eval.fits = s->eval.total_resources.fits_in(budget);

  // Feasibility (§IV-C): the single-region scheme is the area lower bound;
  // if it does not fit, no partitioning does.
  result.feasible = result.single_region.eval.fits;

  if (result.feasible) {
    SearchOptions search_options = options.search;
    search_options.eval_context = &plan.context_;
    SearchResult search = search_partitioning(
        plan.design_, plan.matrix_, plan.partitions_, plan.compat_,
        plan.sets_, budget, search_options);
    result.stats = search.stats;
    // Compare against the single-region fallback under the same objective
    // the search optimised (weighted when pair weights were supplied).
    const auto objective_of = [&](const SchemeEvaluation& e) {
      return options.search.pair_weights
                 ? weighted_total_frames(e, *options.search.pair_weights)
                 : e.total_frames;
    };
    if (search.feasible &&
        objective_of(search.eval) <=
            objective_of(result.single_region.eval)) {
      result.proposed = {"Proposed", std::move(search.scheme),
                         std::move(search.eval)};
      result.proposed_from_search = true;
      result.alternatives = std::move(search.alternatives);
    } else {
      // Fall back to the only scheme guaranteed to fit.
      result.proposed = result.single_region;
      result.proposed.name = "Proposed (single-region fallback)";
      result.proposed_from_search = false;
    }
  }

  // The plan's baseline evaluations went through the shared kernel
  // context; fold them into the stats next to the search's own
  // certification counts.
  result.stats.kernel_evaluations += plan.baseline_evals_;
  result.stats.signature_collapsed_configs += plan.baseline_collapsed_;

  return result;
}

PartitionerResult partition_design(const Design& design,
                                   const ResourceVec& budget,
                                   const PartitionerOptions& options) {
  const DesignPlan plan(design, options);
  return solve(plan, budget, options);
}

DevicePartitionResult partition_on_smallest_device(
    const Design& design, const DeviceLibrary& library,
    const PartitionerOptions& options) {
  const auto& devices = library.devices();
  require(!devices.empty(), "device library is empty");

  const DesignPlan plan(design, options);
  // The bill is exactly solve()'s feasibility check, so a rung it does not
  // fit costs no search and no result. Capacities are not element-wise
  // monotone along the library, so the last rung it fits need not be the
  // last device.
  const auto bill_fits = [&](std::size_t i) {
    return plan.single_region_bill().fits_in(devices[i].capacity());
  };
  std::size_t first = 0;
  while (first < devices.size() && !bill_fits(first)) ++first;
  if (first == devices.size())
    throw DeviceError("design '" + design.name() +
                      "' does not fit any device in the library");
  std::size_t last = devices.size() - 1;
  while (!bill_fits(last)) --last;

  DevicePartitionResult out;
  out.first_feasible_index = first;
  for (std::size_t i = first; i <= last; ++i) {
    if (!bill_fits(i)) continue;
    const ResourceVec& capacity = devices[i].capacity();
    // A search that finds no fitting scheme sends the walk to the next
    // rung, so a rung proven to hold none is skipped unsearched; the last
    // one is searched regardless, because its result is the one reported.
    if (i < last &&
        fit_check(plan.base_partitions(), plan.compatibility(),
                  plan.candidate_sets(), design.static_base(), capacity,
                  options.search.allow_static_promotion,
                  options.search.cancel)
                .verdict == FitVerdict::ProvenNone) {
      ++out.rungs_proven_infeasible;
      continue;
    }
    out.device = &devices[i];
    out.chosen_index = i;
    out.result = solve(plan, capacity, options);
    ++out.rungs_searched;
    // A single-region-only answer stays in hand while a larger device is
    // tried (§V: designs re-iterated on larger FPGAs); the last rung
    // reports it as is.
    if (out.result.proposed_from_search) break;
  }
  out.escalated = out.chosen_index != out.first_feasible_index;
  return out;
}

}  // namespace prpart
