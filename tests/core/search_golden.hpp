#pragma once

// Golden fingerprints of the region-allocation search at pinned evaluation
// budgets. The table in search_golden_table.inc was generated once by
// search_golden_gen and is compared by search_golden_test: it pins every
// truncation point of the deterministic move-evaluation budget, so a change
// to how the greedy scan charges its evaluations has to stop at exactly the
// same move, fill exactly the same caches, and return the same bytes.
//
// Regenerate (only when a result change is intended and documented):
//   build/tests/search_golden_gen > tests/core/search_golden_table.inc

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/clustering.hpp"
#include "core/compatibility.hpp"
#include "core/connectivity.hpp"
#include "core/result_io.hpp"
#include "core/search.hpp"
#include "design/synthetic.hpp"
#include "synth/ip_library.hpp"
#include "tests/core/example_designs.hpp"
#include "util/rng.hpp"

namespace prpart::golden {

/// One pinned search: design index into designs(), evaluation cap, setting
/// flags, and the expected fingerprint. full_evaluations / moves_rescored
/// are exact at threads=1 only (scheduling-dependent otherwise).
struct Row {
  unsigned design;
  std::uint64_t cap;
  unsigned flags;
  std::uint64_t result_hash;  ///< FNV-1a of result_text()
  std::uint64_t stats_hash;   ///< FNV-1a of stats_text()
  std::uint64_t move_evaluations;
  std::uint64_t full_evaluations;
  std::uint64_t moves_rescored;
};

enum Flag : unsigned {
  kMoveTable = 1u,
  kPromotion = 2u,
  kWeighted = 4u,
};
constexpr unsigned kFlagCombinations = 8;

constexpr std::uint64_t kCaps[] = {1,   2,    50,   511,   512,
                                   513, 1000, 4096, 400000};

struct Case {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
  CompatibilityTable compat;
  ResourceVec budget;
  PairWeights weights;  ///< seeded, symmetric, zero diagonal

  Case(Design d, const ResourceVec& b, std::uint64_t weight_seed)
      : design(std::move(d)),
        matrix(design),
        partitions(enumerate_base_partitions(design, matrix)),
        compat(matrix, partitions),
        budget(b) {
    Rng rng(weight_seed);
    const std::size_t n = matrix.configs();
    weights.assign(n, std::vector<std::uint32_t>(n, 0));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        weights[i][j] = weights[j][i] =
            static_cast<std::uint32_t>(rng.uniform(1, 1000));
  }
};

/// The paper's running example, the §V wireless receiver, and the first 20
/// designs of the seed-2013 synthetic suite (budget 1.35x the single-region
/// lower bound, as in the property suites).
inline std::vector<Case> designs() {
  std::vector<Case> out;
  out.reserve(22);
  out.emplace_back(testing::paper_example(), ResourceVec{900, 8, 16}, 1);
  out.emplace_back(synth::wireless_receiver_design(),
                   ResourceVec{6800, 64, 150}, 2);
  std::uint64_t seed = 3;
  for (SyntheticDesign& s : generate_synthetic_suite(2013, 20)) {
    const ResourceVec lower =
        s.design.largest_configuration_area() + s.design.static_base();
    const ResourceVec budget{lower.clbs + lower.clbs / 3 + 200,
                             lower.brams + lower.brams / 3 + 8,
                             lower.dsps + lower.dsps / 3 + 8};
    out.emplace_back(std::move(s.design), budget, seed++);
  }
  return out;
}

inline SearchOptions options_for(const Case& c, std::uint64_t cap,
                                 unsigned flags, unsigned threads) {
  SearchOptions opt;
  opt.max_move_evaluations = cap;
  opt.use_move_table = (flags & kMoveTable) != 0;
  opt.allow_static_promotion = (flags & kPromotion) != 0;
  opt.pair_weights = (flags & kWeighted) != 0 ? &c.weights : nullptr;
  opt.threads = threads;
  return opt;
}

inline SearchResult run(const Case& c, std::uint64_t cap, unsigned flags,
                        unsigned threads) {
  return search_partitioning(c.design, c.matrix, c.partitions, c.compat,
                             c.budget, options_for(c, cap, flags, threads));
}

/// The result_io bytes of the proposed scheme and of every ranked
/// alternative (with its objective).
inline std::string result_text(const Case& c, const SearchResult& r) {
  std::ostringstream out;
  out << "feasible=" << r.feasible << "\n";
  if (!r.feasible) return out.str();
  out << partitioning_to_xml(c.design, c.partitions, r.scheme, r.eval);
  for (const RankedScheme& alt : r.alternatives) {
    const SchemeEvaluation e = evaluate_scheme(c.design, c.matrix,
                                               c.partitions, alt.scheme,
                                               c.budget);
    out << "alternative=" << alt.total_frames << "\n"
        << partitioning_to_xml(c.design, c.partitions, alt.scheme, e);
  }
  return out.str();
}

/// Every deterministic SearchStats field (identical for any thread count).
inline std::string stats_text(const SearchStats& s) {
  std::ostringstream out;
  out << "move_evaluations=" << s.move_evaluations
      << " candidate_sets=" << s.candidate_sets
      << " greedy_runs=" << s.greedy_runs
      << " states_recorded=" << s.states_recorded
      << " budget_exhausted=" << s.budget_exhausted << " units=" << s.units
      << " units_pruned=" << s.units_pruned
      << " bound_gap_sum=" << s.bound_gap_sum
      << " bound_lb_sum=" << s.bound_lb_sum
      << " bound_best_sum=" << s.bound_best_sum
      << " kernel_evaluations=" << s.kernel_evaluations
      << " signature_collapsed_configs=" << s.signature_collapsed_configs;
  return out.str();
}

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

/// The fingerprint row of one threads=1 run.
inline Row fingerprint(unsigned design, const Case& c, std::uint64_t cap,
                       unsigned flags, const SearchResult& r) {
  return Row{design,
             cap,
             flags,
             fnv1a(result_text(c, r)),
             fnv1a(stats_text(r.stats)),
             r.stats.move_evaluations,
             r.stats.full_evaluations,
             r.stats.moves_rescored};
}

}  // namespace prpart::golden
