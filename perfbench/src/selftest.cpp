// Self-tests of the benchmark's own arithmetic: percentile selection,
// span self time on hand-built nested sets, failure counting and timing
// calibration.
// Exits 0 when every check holds, 1 otherwise.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "check.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_percentile() {
  // Nearest rank: rank ceil(p * n), 1-based.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(perfbench::percentile(ten, 0.5) == 5, "p50 of 1..10 is 5");
  expect(perfbench::percentile(ten, 0.9) == 9, "p90 of 1..10 is 9");
  expect(perfbench::percentile(ten, 0.99) == 10, "p99 of 1..10 is 10");
  expect(perfbench::percentile(ten, 1.0) == 10, "p100 is the max");
  expect(perfbench::percentile({42}, 0.5) == 42, "one sample");
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  expect(perfbench::percentile(thousand, 0.99) == 990,
         "p99 of 1..1000 leaves 10 samples above it");
  expect(perfbench::percentile(thousand, 0.5) == 500, "p50 of 1..1000");
  bool threw = false;
  try {
    perfbench::percentile({}, 0.5);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "percentile of no samples throws");
}

perfbench::Span span(std::uint32_t name, std::int64_t start, std::int64_t end,
                     std::int32_t parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void test_self_times() {
  // root [0,100) with children a [10,30) and b [40,90); b has child
  // c [50,60). Self: root 100-20-50 = 30, a 20, b 50-10 = 40, c 10.
  const std::vector<perfbench::Span> nested = {
      span(0, 0, 100, -1), span(1, 10, 30, 0), span(2, 40, 90, 0),
      span(3, 50, 60, 2)};
  auto t = perfbench::self_times(nested, 4);
  expect(t[0].self_ns == 30, "root self excludes both children");
  expect(t[1].self_ns == 20, "leaf self is its duration");
  expect(t[2].self_ns == 40, "inner self excludes its child only");
  expect(t[3].self_ns == 10, "grandchild leaf");
  std::int64_t sum = 0;
  for (const auto& x : t) sum += x.self_ns;
  expect(sum == 100, "self times of a tree add up to the root's duration");

  // Two spans of the same name aggregate; overlapping children are
  // counted once; a child sticking out of its parent is clipped.
  const std::vector<perfbench::Span> odd = {
      span(0, 0, 50, -1), span(1, 5, 20, 0), span(1, 15, 25, 0),
      span(2, 40, 70, 0), span(0, 100, 110, -1)};
  t = perfbench::self_times(odd, 3);
  expect(t[0].self_ns == (50 - 20 - 10) + 10,
         "union of overlapping children, clipped, over two root spans");
  expect(t[0].count == 2 && t[1].count == 2, "span counts per name");
  expect(t[1].self_ns == 25, "sibling leaves of one name add");
}

void test_failed_frac() {
  using perfbench::Expected;
  using perfbench::Observed;
  perfbench::Tally tally;
  const auto judge_into = [&](const Observed& got, const Expected& want) {
    if (auto bad = perfbench::judge(got, want))
      tally.fail(*bad);
    else
      tally.pass();
  };
  Observed ok_same{true, true, "{\"a\":1}", ""};
  Observed ok_other{true, true, "{\"a\":2}", ""};
  Observed infeasible{true, false, "", "infeasible"};
  Observed timeout{true, false, "", "timeout"};
  Observed lost{};
  const Expected payload{false, "{\"a\":1}"};
  const Expected verdict{true, ""};

  judge_into(ok_same, payload);      // correct bytes
  judge_into(infeasible, verdict);   // infeasible, and the replay agrees
  expect(tally.failed() == 0 && tally.attempted() == 2,
         "matching ok and matching infeasible are not failures");
  judge_into(infeasible, payload);   // infeasible where the replay succeeds
  expect(tally.failed() == 1, "infeasible that does not match is a failure");
  judge_into(ok_other, payload);     // wrong bytes
  judge_into(ok_same, verdict);      // ok where the replay is infeasible
  judge_into(timeout, payload);
  judge_into(lost, payload);
  expect(tally.attempted() == 7 && tally.failed() == 5,
         "every violation counts once");
  expect(std::fabs(tally.failed_frac() - 5.0 / 7.0) < 1e-12,
         "failed_frac is failed over attempted");
  expect(perfbench::Tally{}.failed_frac() == 0.0, "no attempts, no failures");
}

void test_calibrate() {
  using perfbench::kReferenceProbeMs;
  const double ref = kReferenceProbeMs;
  // A steady host at reference speed leaves times unchanged; one twice as
  // slow halves them.
  const std::vector<double> calls = {4, 8, 2};
  auto cal = perfbench::calibrate(calls, {ref, ref, ref, ref}, 1);
  expect(cal == calls, "reference-speed probes leave times unchanged");
  cal = perfbench::calibrate(calls, std::vector<double>(4, 2 * ref), 4);
  expect(cal == std::vector<double>({2, 4, 1}), "a 2x slower host halves");

  // Radius 1: call k is scaled by the median (nearest rank, lower middle)
  // of the probes just before and just after it.
  cal = perfbench::calibrate({10, 10, 10}, {ref, 2 * ref, 4 * ref, ref}, 1);
  expect(cal == std::vector<double>({10, 5, 10}),
         "radius 1 takes the faster of the two neighbouring probes");
  // Radius 2 over 5 probes: call 0 sees probes 0..2, call 1 probes 0..3,
  // call 2 probes 1..4, call 3 probes 2..4 (clipped at both ends).
  cal = perfbench::calibrate({1, 1, 1, 1},
                             {ref, 5 * ref, 2 * ref, 4 * ref, 4 * ref}, 2);
  expect(cal == std::vector<double>({0.5, 0.5, 0.25, 0.25}),
         "median over a clipped window of 2 * radius probes");

  bool threw = false;
  try {
    perfbench::calibrate({1, 2}, {ref, ref}, 4);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "one probe more than calls is required");
  expect(perfbench::slowdown({ref, 3 * ref, 2 * ref}) == 2.0,
         "slowdown is the median probe over the reference");

  perfbench::ProbedSequence seq;
  seq.record(1.0);
  seq.record(2.0);
  expect(seq.size() == 2 && seq.probes_ms().size() == 3 &&
             seq.calibrated().size() == 2,
         "a probed sequence brackets every call with probes");
  for (const double p : seq.probes_ms())
    expect(p > 0.0, "the reference loop takes time");
}

}  // namespace

int main() {
  test_percentile();
  test_self_times();
  test_failed_frac();
  test_calibrate();
  std::printf("perfbench self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
