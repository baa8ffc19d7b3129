#pragma once

#include <string>
#include <utility>
#include <vector>

#include "design/builder.hpp"
#include "design/design.hpp"
#include "util/rng.hpp"

namespace prpart::testing {

/// The running example of the paper's §III/§IV: modules A (3 modes),
/// B (2 modes), C (3 modes) and the five valid configurations
///   S->A3->B2->C3, S->A1->B1->C1, S->A3->B2->C1,
///   S->A1->B2->C2, S->A2->B2->C3.
/// Mode areas are not given in the paper; the values here are chosen so
/// that no two modes are interchangeable in area.
inline Design paper_example() {
  return DesignBuilder("paper-example")
      .static_base({0, 0, 0})
      .module("A", {{"A1", {100, 0, 0}},
                    {"A2", {260, 1, 2}},
                    {"A3", {180, 0, 4}}})
      .module("B", {{"B1", {400, 2, 0}}, {"B2", {90, 0, 1}}})
      .module("C", {{"C1", {150, 1, 0}},
                    {"C2", {310, 0, 8}},
                    {"C3", {55, 0, 0}}})
      .configuration({{"A", "A3"}, {"B", "B2"}, {"C", "C3"}})
      .configuration({{"A", "A1"}, {"B", "B1"}, {"C", "C1"}})
      .configuration({{"A", "A3"}, {"B", "B2"}, {"C", "C1"}})
      .configuration({{"A", "A1"}, {"B", "B2"}, {"C", "C2"}})
      .configuration({{"A", "A2"}, {"B", "B2"}, {"C", "C3"}})
      .build();
}

/// The §IV-D special case: no mode relations, two configurations
///   1) CAN (C) -> FIR (F)      2) Ethernet (E) -> FPU (P) -> CRC (R),
/// each module having a single mode and absent (mode 0) elsewhere.
inline Design one_off_modules() {
  return DesignBuilder("one-off")
      .module("C", {{"C1", {120, 1, 0}}})
      .module("F", {{"F1", {200, 0, 6}}})
      .module("E", {{"E1", {340, 4, 0}}})
      .module("P", {{"P1", {500, 0, 12}}})
      .module("R", {{"R1", {60, 0, 0}}})
      .configuration({{"C", "C1"}, {"F", "F1"}})
      .configuration({{"E", "E1"}, {"P", "P1"}, {"R", "R1"}})
      .build();
}

/// The two-module example of §IV-A (Fig. 3): A has a small (A1) and a large
/// (A2) mode, B has a large (B1) and a small (B2) mode, and the three valid
/// configurations are A1->B1, A2->B2, A1->B2 (the largest modes never
/// co-exist).
inline Design fig3_example() {
  return DesignBuilder("fig3")
      .module("A", {{"A1", {100, 0, 0}}, {"A2", {400, 0, 0}}})
      .module("B", {{"B1", {500, 0, 0}}, {"B2", {80, 0, 0}}})
      .configuration({{"A", "A1"}, {"B", "B1"}})
      .configuration({{"A", "A2"}, {"B", "B2"}})
      .configuration({{"A", "A1"}, {"B", "B2"}})
      .build();
}

/// A design whose plan takes well under a millisecond but whose search runs
/// for tens to hundreds of milliseconds: twenty two-mode modules and
/// sixteen configurations of three modules each. Narrow configurations keep
/// the base partitions few (95 cliques of at most three modes), while
/// candidate sets of ~40 singleton groups give every greedy descent hundreds
/// of moves per step. Cancellation tests use it so that a 1 ms deadline
/// always fires inside the search.
inline Design long_search_design() {
  DesignBuilder builder("long-search");
  for (int m = 0; m < 20; ++m) {
    std::vector<Mode> modes;
    for (int k = 0; k < 2; ++k)
      modes.push_back(Mode{
          "m" + std::to_string(m) + "_" + std::to_string(k),
          ResourceVec{static_cast<std::uint32_t>(60 + 13 * m + 29 * k),
                      static_cast<std::uint32_t>(k),
                      static_cast<std::uint32_t>(m % 3)}});
    builder.module("M" + std::to_string(m), std::move(modes));
  }
  Rng rng(11);
  for (int c = 0; c < 16; ++c) {
    std::vector<std::pair<std::string, std::string>> uses;
    for (int j = 0; j < 3; ++j) {
      const int m = (3 * c + j) % 20;
      uses.emplace_back("M" + std::to_string(m),
                        "m" + std::to_string(m) + "_" +
                            std::to_string(rng.below(2)));
    }
    builder.configuration(uses);
  }
  return builder.build();
}

// Exactly at its single-region bill the search finds no fitting scheme
// with fewer frames than the single region (the nested configurations
// rule out a searched single-region equivalent), so the partitioner keeps
// the single-region fallback.
inline Design fallback_at_bill() {
  return DesignBuilder("fallback_at_bill")
      .module("A", {{"A1", {100, 0, 1}}})
      .module("B", {{"B1", {290, 2, 2}}})
      .module("C", {{"C1", {100, 2, 2}}})
      .configuration({{"B", "B1"}})
      .configuration({{"B", "B1"}, {"C", "C1"}})
      .configuration({{"A", "A1"}})
      .build();
}

}  // namespace prpart::testing
