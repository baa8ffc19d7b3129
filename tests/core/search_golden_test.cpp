// Golden truncation points of the region-allocation search: every pinned
// design x evaluation cap x setting (move table, static promotion, pair
// weights) must reproduce the recorded result bytes and deterministic
// counters — at threads=1 including the scheduling-dependent
// full_evaluations / moves_rescored split, at threads=4 the deterministic
// core. The caps land inside the first greedy step, around 512 evaluations
// and near the natural end of the search, so the greedy scan's budget
// accounting must stop on exactly the same move as when the table was
// recorded. See search_golden.hpp for how the table is generated.
#include <gtest/gtest.h>

#include <iterator>

#include "tests/core/search_golden.hpp"

namespace prpart {
namespace {

using golden::Row;

constexpr Row kGolden[] = {
#include "tests/core/search_golden_table.inc"
};

/// The pinned designs, built once for the whole suite.
const std::vector<golden::Case>& cases() {
  static const std::vector<golden::Case> all = golden::designs();
  return all;
}

class SearchGolden : public ::testing::TestWithParam<unsigned> {};

TEST(SearchGoldenTable, CoversEveryDesignCapAndSetting) {
  EXPECT_EQ(std::size(kGolden), cases().size() *
                                    std::size(golden::kCaps) *
                                    golden::kFlagCombinations);
}

TEST_P(SearchGolden, MatchesRecordedFingerprints) {
  const unsigned design = GetParam();
  const golden::Case& c = cases()[design];
  std::size_t checked = 0;
  for (const Row& want : kGolden) {
    if (want.design != design) continue;
    ++checked;
    const SearchResult one = golden::run(c, want.cap, want.flags, 1);
    const Row got = golden::fingerprint(design, c, want.cap, want.flags, one);
    const std::string where = "cap=" + std::to_string(want.cap) +
                              " flags=" + std::to_string(want.flags);
    EXPECT_EQ(got.result_hash, want.result_hash)
        << where << "\n" << golden::result_text(c, one);
    EXPECT_EQ(got.stats_hash, want.stats_hash)
        << where << "\n" << golden::stats_text(one.stats);
    EXPECT_EQ(got.move_evaluations, want.move_evaluations) << where;
    EXPECT_EQ(got.full_evaluations, want.full_evaluations) << where;
    EXPECT_EQ(got.moves_rescored, want.moves_rescored) << where;

    const SearchResult four = golden::run(c, want.cap, want.flags, 4);
    EXPECT_EQ(golden::fnv1a(golden::result_text(c, four)), want.result_hash)
        << where << " threads=4";
    EXPECT_EQ(golden::fnv1a(golden::stats_text(four.stats)), want.stats_hash)
        << where << " threads=4\n" << golden::stats_text(four.stats);
  }
  EXPECT_EQ(checked, std::size(golden::kCaps) * golden::kFlagCombinations);
}

INSTANTIATE_TEST_SUITE_P(Designs, SearchGolden, ::testing::Range(0u, 22u));

}  // namespace
}  // namespace prpart
