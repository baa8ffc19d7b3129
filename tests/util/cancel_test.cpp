#include "util/cancel.hpp"

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "synth/ip_library.hpp"
#include "tests/core/example_designs.hpp"

namespace prpart {
namespace {

TEST(CancelTest, DefaultTokenIsLive) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(check_cancel(&token));
  EXPECT_NO_THROW(check_cancel(nullptr));
}

TEST(CancelTest, CancelFlagFires) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(check_cancel(&token), CancelledError);
}

TEST(CancelTest, PastDeadlineFires) {
  CancelToken token;
  token.set_deadline(monotonic_now_ns() - 1);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTest, FutureDeadlineDoesNotFire) {
  CancelToken token;
  token.set_timeout_ms(60'000);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTest, NonPositiveTimeoutDisarms) {
  CancelToken token;
  token.set_deadline(monotonic_now_ns() - 1);
  token.set_timeout_ms(0);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTest, PreCancelledTokenAbortsSearch) {
  const Design design = synth::wireless_receiver_design();
  CancelToken token;
  token.cancel();
  PartitionerOptions options;
  options.search.max_move_evaluations = 500'000;
  options.search.cancel = &token;
  EXPECT_THROW(partition_design(design, {6800, 64, 150}, options),
               CancelledError);
}

TEST(CancelTest, NullTokenSearchCompletes) {
  const Design design = synth::wireless_receiver_design();
  PartitionerOptions options;
  options.search.max_move_evaluations = 300'000;
  const PartitionerResult r = partition_design(design, {6800, 64, 150}, options);
  EXPECT_TRUE(r.feasible);
}

TEST(CancelTest, MidSearchDeadlineAborts) {
  // The plan takes ~0.1 ms and the search tens of milliseconds, so the 1 ms
  // deadline fires inside the search.
  const Design design = testing::long_search_design();
  CancelToken token;
  token.set_timeout_ms(1);
  PartitionerOptions options;
  options.search.max_move_evaluations = 50'000'000;
  options.search.cancel = &token;
  EXPECT_THROW(partition_design(design, {100000, 1000, 1000}, options),
               CancelledError);
}

}  // namespace
}  // namespace prpart
