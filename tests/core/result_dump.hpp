#pragma once

// Text dumps of partitioner results for equality checks in tests (equal
// dumps are byte-identical results), and the sweep's search effort.

#include <ostream>
#include <sstream>
#include <string>

#include "core/partitioner.hpp"

namespace prpart::testing {

inline void dump_scheme(std::ostream& os, const PartitionScheme& s) {
  os << "scheme '" << s.label << "' regions";
  for (const Region& r : s.regions) {
    os << " [";
    for (std::size_t m : r.members) os << ' ' << m;
    os << " ]";
  }
  os << " static";
  for (std::size_t m : s.static_members) os << ' ' << m;
  os << '\n';
}

inline void dump_eval(std::ostream& os, const SchemeEvaluation& e) {
  os << "eval valid=" << e.valid << " '" << e.invalid_reason
     << "' fits=" << e.fits << " pr=" << e.pr_resources.to_string()
     << " static=" << e.static_resources.to_string()
     << " total=" << e.total_resources.to_string()
     << " frames=" << e.total_frames << '/' << e.worst_frames << '\n';
  for (const RegionReport& r : e.regions) {
    os << "  region raw=" << r.raw.to_string() << " tiles="
       << r.tiles.clb_tiles << ',' << r.tiles.bram_tiles << ','
       << r.tiles.dsp_tiles << " frames=" << r.frames
       << " pairs=" << r.reconfig_pairs << " active";
    for (int a : r.active) os << ' ' << a;
    os << '\n';
  }
}

inline std::string dump(const SchemeEvaluation& e) {
  std::ostringstream os;
  dump_eval(os, e);
  return os.str();
}

// Every field of a PartitionerResult that the tool reports, as text:
// equal dumps are byte-identical results. SearchStats contributes its
// deterministic core only.
inline std::string dump(const PartitionerResult& r) {
  std::ostringstream os;
  os << "feasible=" << r.feasible
     << " from_search=" << r.proposed_from_search << '\n';
  for (const SchemeSummary* s :
       {&r.proposed, &r.modular, &r.single_region, &r.static_impl}) {
    os << s->name << ": ";
    dump_scheme(os, s->scheme);
    dump_eval(os, s->eval);
  }
  os << "base partitions";
  for (const BasePartition& p : r.base_partitions)
    os << " {" << p.modes.to_string() << ' ' << p.frequency_weight << ' '
       << p.edges << ' ' << p.area.to_string() << ' ' << p.frames << '}';
  os << '\n';
  for (const RankedScheme& a : r.alternatives) {
    os << "alternative " << a.total_frames << ' ' << a.workload_cost << ' ';
    dump_scheme(os, a.scheme);
  }
  const SearchStats& st = r.stats;
  os << "stats moves=" << st.move_evaluations << " sets=" << st.candidate_sets
     << " greedy=" << st.greedy_runs << " states=" << st.states_recorded
     << " exhausted=" << st.budget_exhausted << " units=" << st.units
     << " pruned=" << st.units_pruned << " gap=" << st.bound_gap_sum
     << " lb=" << st.bound_lb_sum << " best=" << st.bound_best_sum
     << " kernel=" << st.kernel_evaluations
     << " collapsed=" << st.signature_collapsed_configs << '\n';
  return os.str();
}

inline std::string dump(const DevicePartitionResult& r) {
  return "device " + std::to_string(r.chosen_index) + " first " +
         std::to_string(r.first_feasible_index) + " escalated " +
         std::to_string(r.escalated) + " name " + r.device->name() + '\n' +
         dump(r.result);
}

/// The sweep effort of the Fig. 7/8 benches (24 candidate sets, 400k
/// evaluations), on one search thread.
inline PartitionerOptions sweep_options() {
  PartitionerOptions o;
  o.search.max_candidate_sets = 24;
  o.search.max_move_evaluations = 400'000;
  o.search.threads = 1;
  return o;
}

}  // namespace prpart::testing
