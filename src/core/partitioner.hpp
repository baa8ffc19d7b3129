#pragma once

#include <string>
#include <vector>

#include "core/base_partition.hpp"
#include "core/compatibility.hpp"
#include "core/connectivity.hpp"
#include "core/covering.hpp"
#include "core/eval_kernel.hpp"
#include "core/scheme.hpp"
#include "core/search.hpp"
#include "design/design.hpp"
#include "device/device.hpp"

namespace prpart {

struct PartitionerOptions {
  /// Search effort and parallelism. `search.threads` fans the search's
  /// work units across a worker pool (0 = hardware concurrency, 1 =
  /// inline); every thread count yields byte-identical schemes and stats,
  /// so PartitionerResult is reproducible across machines. Surfaced on the
  /// CLI as `--threads N`. `search.pool` and `search.scratch` pass a
  /// persistent WorkerPool and a warm EvalScratch through to both the
  /// search phases and the partitioner's own baseline batch (§4e): the
  /// server's job workers set them so steady-state requests spawn no
  /// threads and allocate nothing in the kernel.
  SearchOptions search;
  /// Cap on enumerated base-partition size passed to the clustering
  /// (0 = unlimited, the paper's behaviour). The number of co-occurring
  /// mode subsets grows as 2^(configuration width), so designs much wider
  /// than the paper's 5-6 modules should set a cap (full-configuration
  /// partitions are kept regardless).
  std::size_t max_partition_modes = 0;
};

/// A named scheme with its evaluation.
struct SchemeSummary {
  std::string name;
  PartitionScheme scheme;
  SchemeEvaluation eval;
};

/// Everything the tool reports for one design on one budget: the proposed
/// partitioning plus the three reference schemes of the paper's evaluation.
struct PartitionerResult {
  /// Whether any PR scheme fits (equivalently, whether the single-region
  /// lower bound fits; §IV-C feasibility check).
  bool feasible = false;

  /// The proposed scheme: the search result, or the single-region scheme
  /// when the search found nothing better that fits.
  SchemeSummary proposed;
  /// True when `proposed` came from the search rather than the fallback.
  bool proposed_from_search = false;

  SchemeSummary modular;        ///< one module per region
  SchemeSummary single_region;  ///< one region for everything
  SchemeSummary static_impl;    ///< fully static (usually does not fit)

  std::vector<BasePartition> base_partitions;
  /// Ranked fitting schemes from the search (ascending objective; first is
  /// `proposed` when proposed_from_search). Used by the flow's floorplan
  /// feedback to try runners-up before shrinking the budget.
  std::vector<RankedScheme> alternatives;
  SearchStats stats;
};

/// The budget-independent half of the §IV flow for one design: the
/// connectivity matrix, the base partitions (clustering + covering), the
/// compatibility table, the evaluation-kernel context, and the three
/// baseline schemes with their evaluations. Built once, it serves any
/// number of solve() calls against different budgets: the device ladder
/// and the flow's budget-shrink loop each build one plan per design.
///
/// Lifetime: the plan refers to `design`, which must outlive it, and its
/// kernel context refers into the plan's own matrix and partitions, so a
/// plan is neither copyable nor movable. solve() results own their data
/// and may outlive the plan.
class DesignPlan {
 public:
  /// Reads options.max_partition_modes, options.search.max_candidate_sets,
  /// options.search.cancel and, for the baseline batch,
  /// options.search.scratch (a local scratch when null). Throws
  /// InternalError when a baseline evaluates invalid.
  explicit DesignPlan(const Design& design,
                      const PartitionerOptions& options = {});

  DesignPlan(const DesignPlan&) = delete;
  DesignPlan& operator=(const DesignPlan&) = delete;

  const ConnectivityMatrix& matrix() const { return matrix_; }
  const std::vector<BasePartition>& base_partitions() const {
    return partitions_;
  }
  const CompatibilityTable& compatibility() const { return compat_; }
  /// The search's candidate partition sets (candidate_sets() at the plan's
  /// options.search.max_candidate_sets); they do not depend on the budget.
  const CandidateSets& candidate_sets() const { return sets_; }
  /// Kernel context over matrix() and base_partitions() (DESIGN.md §4d).
  const EvalContext& context() const { return context_; }
  /// The single-region area bill: solve() is feasible for a budget exactly
  /// when this bill fits it.
  const SingleRegionBill& single_region_bill() const { return bill_; }

 private:
  friend PartitionerResult solve(const DesignPlan&, const ResourceVec&,
                                 const PartitionerOptions&);

  const Design& design_;
  ConnectivityMatrix matrix_;
  std::vector<BasePartition> partitions_;
  CompatibilityTable compat_;
  CandidateSets sets_;
  EvalContext context_;
  SingleRegionBill bill_;
  /// Baselines evaluated once; only `fits` depends on the budget, and
  /// solve() sets it.
  SchemeSummary modular_;
  SchemeSummary static_impl_;
  SchemeSummary single_region_;
  /// Kernel counters of the baseline batch, folded into every solve()'s
  /// stats as if the batch ran per budget.
  std::uint64_t baseline_evals_ = 0;
  std::uint64_t baseline_collapsed_ = 0;
};

/// The per-budget half of the §IV flow: the feasibility check, the
/// region-allocation search and the single-region fallback. Byte-identical
/// to partition_design(design, budget, options) for the plan's design when
/// `options` matches the one the plan was built with;
/// options.max_partition_modes and options.search.max_candidate_sets are
/// the plan's and are not read here.
PartitionerResult solve(const DesignPlan& plan, const ResourceVec& budget,
                        const PartitionerOptions& options = {});

/// Runs the whole §IV flow for `design` against a resource budget:
/// connectivity matrix, clustering, covering, compatibility, search, plus
/// the baseline schemes. Builds a DesignPlan and solves it once.
PartitionerResult partition_design(const Design& design,
                                   const ResourceVec& budget,
                                   const PartitionerOptions& options = {});

/// Result of the device-selection mode (§IV-C: the tool "can suggest the
/// smallest FPGA suitable to implement the given design").
struct DevicePartitionResult {
  /// Device the design was finally partitioned on.
  const Device* device = nullptr;
  std::size_t chosen_index = 0;
  /// Smallest device whose capacity covers the single-region lower bound.
  std::size_t first_feasible_index = 0;
  /// True when the search had to escalate past the first feasible device
  /// because only the single-region scheme fit there (§V: 201 of 1000
  /// designs "could not be alternatively arranged on the smallest FPGA").
  bool escalated = false;
  PartitionerResult result;
  /// Rungs the region-allocation search ran on.
  std::size_t rungs_searched = 0;
  /// Rungs the single-region bill fits but fit_check() proved to hold no
  /// fitting scheme, so the ladder moved on without searching them.
  std::size_t rungs_proven_infeasible = 0;
};

/// Walks the library from the smallest device up: picks the first device
/// where the design is implementable at all, partitions there, and - when
/// no scheme other than single-region is feasible - retries on the next
/// larger device. Throws DeviceError when the design fits no device. One
/// DesignPlan serves the whole walk; devices the single-region bill does
/// not fit are skipped without solving, and so is every other rung but the
/// last the bill fits on which fit_check() proves that no candidate set
/// holds a fitting scheme (the search would find none, and the walk would
/// move on; DESIGN.md, "Ladder fit check"). The result equals searching
/// every rung the bill fits.
DevicePartitionResult partition_on_smallest_device(
    const Design& design, const DeviceLibrary& library,
    const PartitionerOptions& options = {});

}  // namespace prpart
