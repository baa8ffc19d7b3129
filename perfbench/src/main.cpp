// prpart benchmark program: one command, two workloads.
//
//   perfbench --workload sweep|serve_mix --seed N --seconds S
//             --trace 0|1 --out-dir DIR
//
// --trace 0 times the workload through the program's public calls and
// prints the end-to-end metrics; --trace 1 replays it through the same
// calls with a span around each layer and prints the per-layer metrics.
// Inputs are made before timing starts: each workload's design set is
// fixed, and --seed sets the order designs are run in and the request
// stream. Every timing is calibrated for the host's speed at the time it
// was taken (calibrate.hpp); the report lines also give the raw wall-clock
// figures. Every output is checked; any failed check makes the run exit 1.
// The last stdout line is the JSON result object.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "check.hpp"
#include "core/connectivity.hpp"
#include "core/partitioner.hpp"
#include "core/scheme.hpp"
#include "core/schemes.hpp"
#include "design/io_xml.hpp"
#include "design/synthetic.hpp"
#include "replay.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "spans.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace perfbench {
namespace {

using namespace prpart;

/// Set-ups per run; setup_s is the median of their calibrated times.
/// Set-up takes milliseconds, so the early repetitions (cold caches, idle
/// clock) must not decide it.
constexpr int kSetupReps = 9;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(monotonic_now_ns() - start_ns) / 1e9;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2013;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Metrics in print order, with their units.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }
  void print(const Args& args, const Tally& tally) const {
    for (const auto& m : metrics_)
      std::printf("seed=%llu workload=%s %-32s %.6g %s%s%s\n",
                  static_cast<unsigned long long>(args.seed),
                  args.workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.empty() ? "" : "  ",
                  m.note.c_str());
    std::printf("seed=%llu workload=%s failed_frac %.6g (%llu of %llu)\n",
                static_cast<unsigned long long>(args.seed),
                args.workload.c_str(), tally.failed_frac(),
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.attempted()));
    for (const std::string& r : tally.reasons())
      std::printf("FAILED CHECK: %s\n", r.c_str());
    json::Value metrics = json::Value::object();
    for (const auto& m : metrics_) {
      json::Value v = json::Value::object();
      v.set("value", json::Value(m.value));
      v.set("unit", json::Value(m.unit));
      metrics.set(m.name, v);
    }
    json::Value out = json::Value::object();
    out.set("correct", json::Value(tally.failed() == 0));
    out.set("attempted", json::Value(tally.attempted()));
    out.set("failed", json::Value(tally.failed()));
    out.set("metrics", metrics);
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> metrics_;
};

std::string count_note(std::size_t n) {
  return "(n=" + std::to_string(n) + ")";
}

std::string raw_note(double raw, const char* unit) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "raw %.6g %s", raw, unit);
  return buf;
}

void add_setup(Report& report, const ProbedSequence& setups) {
  report.add("setup_s", median(setups.calibrated()), "s",
             "(median of " + std::to_string(setups.size()) + "; " +
                 raw_note(median(setups.raw()), "s") + ")");
}

/// Calibrated latency percentiles, with the raw ones in the notes.
void add_latencies(Report& report, const std::vector<double>& ms,
                   const std::vector<double>& raw_ms) {
  const std::string n = "(n=" + std::to_string(ms.size());
  const auto note = [&](double p) {
    return n +
           (p == 0.99 && ms.size() < 1000 ? " fewer than 1000 samples" : "") +
           "; " + raw_note(percentile(raw_ms, p), "ms") + ")";
  };
  report.add("latency_p50_ms", percentile(ms, 0.50), "ms", note(0.50));
  report.add("latency_p90_ms", percentile(ms, 0.90), "ms", note(0.90));
  report.add("latency_p99_ms", percentile(ms, 0.99), "ms", note(0.99));
}

/// How much slower than the reference host the timed region ran.
void print_slowdown(const Args& args, const std::vector<double>& probes_ms) {
  std::printf("seed=%llu workload=%s host_slowdown %.4g (median reference "
              "loop %.4g ms over %zu probes / %.4g ms)\n",
              static_cast<unsigned long long>(args.seed),
              args.workload.c_str(), slowdown(probes_ms),
              percentile(probes_ms, 0.5), probes_ms.size(),
              kReferenceProbeMs);
}

/// Per-layer metrics of a traced replay.
void add_layers(Report& report, const SpanRecorder& rec,
                const LayerCounts& counts, double traced_s, double untraced_s) {
  const std::vector<NameTotals> totals = self_times(rec.spans(), kLayerCount);
  double attributed_s = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer == Layer::kDesign || layer == Layer::kJob) continue;
    const double self_s = static_cast<double>(totals[i].self_ns) / 1e9;
    attributed_s += self_s;
    report.add(std::string(layer_name(layer)) + ".self_s", self_s, "s",
               "(spans=" + std::to_string(totals[i].count) + ")");
  }
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  report.add("core.clustering.base_partitions", u(counts.base_partitions),
             "count");
  report.add("core.search.move_evaluations", u(counts.move_evaluations),
             "count");
  report.add("core.search.units", u(counts.units), "count");
  report.add("core.search.units_pruned", u(counts.units_pruned), "count");
  report.add("core.search.kernel_evaluations", u(counts.kernel_evaluations),
             "count");
  report.add("core.ladder.rungs", u(counts.rungs), "count");
  report.add("core.ladder.rungs_infeasible", u(counts.rungs_infeasible),
             "count");
  report.add("core.ladder.searches", u(counts.searches), "count");
  report.add("core.ladder.searches_discarded", u(counts.searches_discarded),
             "count");
  report.add("core.ladder.useful_ratio",
             counts.rungs == 0 ? 0.0 : u(counts.designs) / u(counts.rungs),
             "ratio", "(designs=" + std::to_string(counts.designs) + ")");
  report.add("floorplan.candidates", u(counts.floorplan_candidates), "count");
  report.add("floorplan.vetoed", u(counts.floorplan_vetoed), "count");
  report.add("sim.transitions", u(counts.sim_transitions), "count");
  report.add("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio",
             "(traced " + std::to_string(traced_s) + " s, untraced " +
                 std::to_string(untraced_s) + " s)");
  report.add("trace.unattributed_frac", 1.0 - attributed_s / traced_s,
             "ratio");
}

/// Server-side per-layer numbers of serve_mix (zero on the other workloads).
struct ServerNumbers {
  double rtt_hit_p50_ms = 0.0;
  double rtt_miss_p50_ms = 0.0;
  std::size_t hit_samples = 0;
  std::size_t miss_samples = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t repeats = 0;
  std::uint64_t ram_evictions = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t job_p50_us = 0;
  std::uint64_t job_p99_us = 0;
};

void add_server(Report& report, const ServerNumbers& s) {
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  report.add("server.rtt_hit_p50_ms", s.rtt_hit_p50_ms, "ms",
             count_note(s.hit_samples));
  report.add("server.rtt_miss_p50_ms", s.rtt_miss_p50_ms, "ms",
             count_note(s.miss_samples));
  report.add("server.cache_hits", u(s.cache_hits), "count");
  report.add("server.cache_misses", u(s.cache_misses), "count");
  report.add("server.repeat_hit_ratio",
             s.repeats == 0 ? 0.0 : u(s.cache_hits) / u(s.repeats), "ratio",
             "(repeated requests " + std::to_string(s.repeats) + ")");
  report.add("server.ram_evictions", u(s.ram_evictions), "count");
  report.add("server.disk_hits", u(s.disk_hits), "count");
  report.add("server.disk_writes", u(s.disk_writes), "count");
  report.add("server.job_p50_us", u(s.job_p50_us), "us");
  report.add("server.job_p99_us", u(s.job_p99_us), "us");
}

// ---------------------------------------------------------------------------
// sweep: designs through partition_on_smallest_device, one at a time.
//
// A run makes at least kMinPasses passes over the design set and goes on
// until --seconds has elapsed, timing every design on every pass with the
// reference loop between designs. The work per design is deterministic and
// single-threaded, so other load on the host can only add time to it: a
// design's latency is its fastest calibrated pass, which neither the
// host's drift (calibration) nor a burst of slowdown during some passes
// (the minimum) moves. ops_per_s is designs over the sum of those
// latencies (designs per second of one thread's work).

constexpr int kMinPasses = 3;
// The design set is fixed and --seed sets the order it is partitioned in:
// with seeded sets the per-design cost mix, and with it the percentiles,
// moved more between seeds than the host noise does.
/// The paper's §V suite (bench/sweep_common.cpp, Figs. 7-8).
constexpr std::uint64_t kSweepSuiteSeed = 2013;
constexpr std::size_t kSweepDesigns = 1000;

struct SweepSetup {
  std::vector<SyntheticDesign> designs;
  std::vector<std::size_t> order;  ///< processing order
  DeviceLibrary library = DeviceLibrary::virtex5();
  PartitionerOptions options;
};

SweepSetup make_sweep(std::uint64_t seed) {
  SweepSetup s;
  // The sweep effort of bench/sweep_common.cpp, one search thread.
  s.options.search.max_candidate_sets = 24;
  s.options.search.max_move_evaluations = 400'000;
  s.options.search.threads = 1;
  s.designs = generate_synthetic_suite(kSweepSuiteSeed, kSweepDesigns);
  s.order.resize(s.designs.size());
  for (std::size_t i = 0; i < s.order.size(); ++i) s.order[i] = i;
  Rng rng(seed);
  for (std::size_t i = s.order.size() - 1; i > 0; --i)
    std::swap(s.order[i], s.order[rng.below(i + 1)]);
  return s;
}

/// Re-scores the proposed scheme with the scalar reference evaluator (or,
/// for the single-region fallback, re-derives the single-region scheme)
/// and compares total and worst frames with the kernel's.
std::optional<std::string> check_rescore(const Design& design,
                                         const DevicePartitionResult& dp) {
  const PartitionerResult& r = dp.result;
  const ResourceVec budget = dp.device->capacity();
  const ConnectivityMatrix matrix(design);
  const SchemeEvaluation ref =
      r.proposed_from_search
          ? evaluate_scheme_reference(design, matrix, r.base_partitions,
                                      r.proposed.scheme, budget)
          : single_region_scheme(design, matrix, r.base_partitions, budget)
                .second;
  if (ref.total_frames != r.proposed.eval.total_frames ||
      ref.worst_frames != r.proposed.eval.worst_frames)
    return "design '" + design.name() + "': reference frames " +
           std::to_string(ref.total_frames) + "/" +
           std::to_string(ref.worst_frames) + " != kernel " +
           std::to_string(r.proposed.eval.total_frames) + "/" +
           std::to_string(r.proposed.eval.worst_frames);
  return std::nullopt;
}

bool same_outcome(const DevicePartitionResult& a,
                  const DevicePartitionResult& b) {
  return a.chosen_index == b.chosen_index &&
         a.result.proposed.eval.total_frames ==
             b.result.proposed.eval.total_frames &&
         a.result.proposed.eval.worst_frames ==
             b.result.proposed.eval.worst_frames;
}

std::string spans_path(const Args& args) {
  return args.out_dir + "/spans_" + args.workload + "_" +
         std::to_string(args.seed) + ".jsonl";
}

int run_sweep(const Args& args) {
  ProbedSequence setup_times;
  SweepSetup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = monotonic_now_ns();
    setup = make_sweep(args.seed);
    setup_times.record(seconds_since(t0));
  }
  const auto& designs = setup.designs;
  const std::size_t n = designs.size();
  Tally tally;
  Report report;

  if (!args.trace) {
    std::vector<std::optional<DevicePartitionResult>> first(n);
    ProbedSequence calls;
    std::size_t runs = 0;
    const std::int64_t deadline =
        monotonic_now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    while (runs < kMinPasses * n || monotonic_now_ns() < deadline) {
      const std::size_t i = setup.order[runs % n];
      const bool first_pass = runs < n;
      ++runs;
      const std::int64_t t0 = monotonic_now_ns();
      try {
        DevicePartitionResult dp = partition_on_smallest_device(
            designs[i].design, setup.library, setup.options);
        calls.record(seconds_since(t0) * 1e3);
        if (first_pass) {
          first[i] = std::move(dp);  // tallied by the re-score below
        } else if (!first[i] || !same_outcome(dp, *first[i])) {
          tally.fail("design " + std::to_string(i) +
                     ": repeat differs from its first result");
        } else {
          tally.pass();
        }
      } catch (const std::exception& e) {
        calls.record(seconds_since(t0) * 1e3);
        tally.fail("design " + std::to_string(i) + ": " + e.what());
      }
    }
    const double rss = peak_rss_mb();

    // Call k ran design order[k % n]; a design's latency is its fastest
    // pass, calibrated and raw.
    const std::vector<double> cal = calls.calibrated();
    const std::vector<double>& raw = calls.raw();
    std::vector<double> latencies_ms(n, 0.0), raw_ms(n, 0.0);
    for (std::size_t k = 0; k < cal.size(); ++k) {
      const std::size_t i = setup.order[k % n];
      latencies_ms[i] = k < n ? cal[k] : std::min(latencies_ms[i], cal[k]);
      raw_ms[i] = k < n ? raw[k] : std::min(raw_ms[i], raw[k]);
    }
    std::uint64_t frames = 0;
    double busy_s = 0.0, raw_busy_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      busy_s += latencies_ms[i] / 1e3;
      raw_busy_s += raw_ms[i] / 1e3;
      if (!first[i]) continue;
      frames += first[i]->result.proposed.eval.total_frames;
      if (auto bad = check_rescore(designs[i].design, *first[i]))
        tally.fail(*bad);
      else
        tally.pass();
    }
    add_setup(report, setup_times);
    report.add("ops_per_s", static_cast<double>(n) / busy_s, "1/s",
               "(" + std::to_string(n) + " designs, " + std::to_string(runs) +
                   " timed calls; " +
                   raw_note(static_cast<double>(n) / raw_busy_s, "1/s") + ")");
    add_latencies(report, latencies_ms, raw_ms);
    report.add("frames_total", static_cast<double>(frames), "frames",
               "(" + std::to_string(n) + " designs)");
    report.add("peak_rss_mb", rss, "MB");
    print_slowdown(args, calls.probes_ms());
    report.print(args, tally);
    return tally.failed() == 0 ? 0 : 1;
  }

  // Traced run: one pass untraced through the one-shot call, then the same
  // designs replayed layer by layer; both must agree design by design.
  std::vector<DevicePartitionResult> oneshot(n);
  const std::int64_t u0 = monotonic_now_ns();
  for (const std::size_t i : setup.order)
    oneshot[i] = partition_on_smallest_device(designs[i].design,
                                              setup.library, setup.options);
  const double untraced_s = seconds_since(u0);

  SpanRecorder rec;
  LayerCounts counts;
  std::vector<DevicePartitionResult> replayed(n);
  const std::int64_t t0 = monotonic_now_ns();
  for (const std::size_t i : setup.order)
    replayed[i] = replay_smallest_device(designs[i].design, setup.library,
                                         setup.options, &rec, i, counts);
  const double traced_s = seconds_since(t0);

  for (std::size_t i = 0; i < n; ++i) {
    if (same_outcome(oneshot[i], replayed[i]))
      tally.pass();
    else
      tally.fail("design " + std::to_string(i) +
                 ": traced replay differs from the one-shot call");
  }
  add_layers(report, rec, counts, traced_s, untraced_s);
  add_server(report, ServerNumbers{});
  if (!rec.write_jsonl(spans_path(args)))
    tally.fail("cannot write " + spans_path(args));
  report.print(args, tally);
  return tally.failed() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve_mix: an in-process Server, two closed-loop clients over loopback.
//
// A run plays one seeded stream of requests in at least
// kMinRounds rounds (and until --seconds has elapsed), each round against
// a freshly started server with an empty store, so every round does the
// same work. With two clients and two workers no request queues behind
// another, so other load on the host is what makes a request's round trips
// differ between rounds. Each client runs the reference loop between its
// requests; a request's latency is its fastest calibrated round trip, and
// ops_per_s is the median over rounds of the round's throughput scaled by
// the round's host slowdown.

enum class Kind { kPartition, kFloorplan, kSimulate, kAnalyze };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kPartition: return "partition";
    case Kind::kFloorplan: return "floorplan";
    case Kind::kSimulate: return "simulate";
    case Kind::kAnalyze: return "analyze";
  }
  return "?";
}

struct ServeJob {
  std::size_t design = 0;
  Kind kind = Kind::kPartition;
  std::string id;
  std::string line;  ///< request line without the trailing newline
};

/// The design pool: the first kPoolDesigns designs of the paper's §V suite.
/// The seed shapes the stream over them.
constexpr std::uint64_t kPoolSeed = 2013;
constexpr std::size_t kPoolDesigns = 720;  ///< 1000 requests per round
/// Every kKindStride-th design also gets a floorplan job, the one
/// kKindStride / 3 later a simulate job and the one after that an analyze
/// job: 20 of each.
constexpr std::size_t kKindStride = 36;
constexpr std::size_t kRamEntries = 64;
constexpr int kMinRounds = 3;
constexpr unsigned kClients = 2;
constexpr unsigned kReplayThreads = 3;

/// Repeats per job after its first request: "hot" ones arrive kHotSpan
/// first requests later (RAM-tier hits), "cold" ones kColdSpan later, when
/// the kRamEntries-entry RAM tier has evicted the result and the disk store
/// serves it. Every job's repeats are in the stream, so every seed sends
/// the same requests and only their order differs; the share of hits,
/// misses and re-searched infeasible floorplans is fixed. Hits and analyze
/// requests (answered inline, never cached) are about a quarter of the
/// stream and take well under a millisecond, so each reported percentile
/// stays inside a class of searches, where the search rather than the
/// round trip's fixed costs sets the time: p50 and p90 among partition and
/// simulate misses, p99 among floorplan searches and the slowest partition
/// misses. A quarter of the partition jobs repeat, alternately hot and
/// cold. Floorplan jobs take up to a few hundred ms, long enough for a hot
/// repeat to arrive while the first copy is still searching, so they
/// repeat only cold.
struct RepeatCounts {
  int hot;
  int cold;
};
constexpr RepeatCounts repeats_of(Kind k, std::size_t design) {
  switch (k) {
    case Kind::kPartition:
      return design % 8 == 1 ? RepeatCounts{1, 0}
             : design % 8 == 5 ? RepeatCounts{0, 1}
                               : RepeatCounts{0, 0};
    case Kind::kFloorplan: return {0, 1};
    case Kind::kSimulate: return {1, 0};
    case Kind::kAnalyze: return {0, 0};
  }
  return {0, 0};
}
constexpr double kHotSpan[2] = {8.0, 40.0};
constexpr double kColdSpan[2] = {64.0, 192.0};

struct ServeInputs {
  std::vector<ServeJob> jobs;         ///< distinct jobs, first-issue order
  std::vector<std::uint32_t> stream;  ///< job index per request
  std::vector<bool> repeat;           ///< job already issued earlier
};

ServeInputs make_serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e12e);

  // Every pool design has a partition job, and some a floorplan, simulate
  // or analyze job on the same design. First requests follow pool order,
  // shuffled within blocks of 16 jobs so one design's kinds arrive apart:
  // job j's first request is due at time j, its repeats at seeded later
  // times, and the stream is every request in time order.
  std::vector<std::pair<std::size_t, Kind>> fresh;
  for (std::size_t d = 0; d < kPoolDesigns; ++d) {
    fresh.emplace_back(d, Kind::kPartition);
    const std::size_t slot = d % kKindStride;
    if (slot == 0) fresh.emplace_back(d, Kind::kFloorplan);
    if (slot == kKindStride / 3) fresh.emplace_back(d, Kind::kSimulate);
    if (slot == 2 * kKindStride / 3) fresh.emplace_back(d, Kind::kAnalyze);
  }
  for (std::size_t b = 0; b < fresh.size(); b += 16) {
    const std::size_t e = std::min(fresh.size(), b + 16);
    for (std::size_t i = e - 1; i > b; --i)
      std::swap(fresh[i], fresh[b + rng.below(i - b + 1)]);
  }
  const auto uniform = [&](const double span[2]) {
    return span[0] + (span[1] - span[0]) * rng.uniform01();
  };
  std::vector<std::pair<double, std::uint32_t>> due;  ///< (time, job)
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    const auto job = static_cast<std::uint32_t>(j);
    const double t = static_cast<double>(j);
    due.emplace_back(t, job);
    const RepeatCounts r = repeats_of(fresh[j].second, fresh[j].first);
    for (int k = 0; k < r.hot; ++k)
      due.emplace_back(t + uniform(kHotSpan), job);
    for (int k = 0; k < r.cold; ++k)
      due.emplace_back(t + uniform(kColdSpan), job);
  }
  std::sort(due.begin(), due.end());
  std::vector<char> issued(fresh.size(), 0);
  for (const auto& [t, job] : due) {
    in.stream.push_back(job);
    in.repeat.push_back(issued[job] != 0);
    issued[job] = 1;
  }

  const std::vector<SyntheticDesign> designs =
      generate_synthetic_suite(kPoolSeed, kPoolDesigns);
  std::vector<std::string> xml(kPoolDesigns);
  for (std::size_t d = 0; d < kPoolDesigns; ++d)
    xml[d] = design_to_xml(designs[d].design);

  for (std::size_t j = 0; j < fresh.size(); ++j) {
    ServeJob job;
    job.design = fresh[j].first;
    job.kind = fresh[j].second;
    job.id = "j" + std::to_string(j);
    server::PartitionRequest p;
    p.id = job.id;
    p.design_xml = xml[job.design];
    p.options = server::default_partitioner_options();
    json::Value v;
    switch (job.kind) {
      case Kind::kPartition:
        v = server::partition_request_json(p);
        break;
      case Kind::kFloorplan: {
        server::FloorplanRequest f;
        f.partition = p;
        v = server::floorplan_request_json(f);
        break;
      }
      case Kind::kSimulate: {
        server::SimulateRequest r;
        r.partition = p;
        r.params.steps = 20'000;
        r.params.seed = 1 + job.design % 7;
        v = server::simulate_request_json(r);
        break;
      }
      case Kind::kAnalyze: {
        server::AnalyzeRequest a;
        a.id = job.id;
        a.design_xml = p.design_xml;
        v = server::analyze_request_json(a);
        break;
      }
    }
    job.line = v.dump();
    in.jobs.push_back(std::move(job));
  }
  return in;
}

/// One started server with an empty store and connected clients.
class ServeRound {
 public:
  ServeRound(const std::string& store_dir) : store_dir_(store_dir) {
    std::filesystem::remove_all(store_dir_);
    std::filesystem::create_directories(store_dir_);
    server::ServerOptions opt;
    opt.port = 0;
    opt.workers = 2;
    opt.io_workers = 1;
    opt.cache_entries = kRamEntries;
    opt.store_dir = store_dir_;
    server_ = std::make_unique<server::Server>(opt);
    server_->start();
    for (unsigned c = 0; c < kClients; ++c)
      conns_.push_back(TcpStream::connect("127.0.0.1", server_->port()));
  }
  ~ServeRound() {
    conns_.clear();
    server_->stop();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }
  ServeRound(const ServeRound&) = delete;
  ServeRound& operator=(const ServeRound&) = delete;

  server::Server& server() { return *server_; }
  TcpStream& conn(unsigned c) { return conns_[c]; }

 private:
  std::string store_dir_;
  std::unique_ptr<server::Server> server_;
  std::vector<TcpStream> conns_;
};

struct Record {
  bool answered = false;
  double raw_rtt_ms = 0.0;
  double rtt_ms = 0.0;  ///< calibrated
  std::string line;
};

/// One request/response exchange on a raw connection; interim `queued`
/// notices (lines without an "ok" field) are skipped.
std::optional<std::string> send_line(TcpStream& conn, const std::string& line) {
  conn.write_all(line + "\n");
  while (true) {
    std::optional<std::string> reply = conn.read_line();
    if (!reply) return std::nullopt;
    if (reply->find("\"ok\":") != std::string::npos) return reply;
  }
}

struct RoundTiming {
  double wall_s = 0.0;
  std::vector<double> probes_ms;  ///< every client's reference loops
};

/// Plays the whole stream once: each client sends its next request when
/// the previous response arrived, taking stream positions from a shared
/// cursor, and runs the reference loop between requests. Fills each
/// record's raw and calibrated round trip.
RoundTiming play_round(ServeRound& round, const ServeInputs& in,
                       std::vector<Record>& records) {
  records.assign(in.stream.size(), Record{});
  std::atomic<std::size_t> cursor{0};
  // Each client's sequence is made on its own thread, so its reference
  // loops all run there.
  std::vector<std::optional<ProbedSequence>> timings(kClients);
  std::vector<std::vector<std::size_t>> sent(kClients);
  const std::int64_t start = monotonic_now_ns();
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpStream& conn = round.conn(c);
      ProbedSequence& timing = timings[c].emplace();
      while (true) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= records.size()) break;
        Record& r = records[i];
        sent[c].push_back(i);
        const std::int64_t t0 = monotonic_now_ns();
        try {
          std::optional<std::string> reply =
              send_line(conn, in.jobs[in.stream[i]].line);
          timing.record(seconds_since(t0) * 1e3);
          if (!reply) break;
          r.answered = true;
          r.line = std::move(*reply);
        } catch (const std::exception&) {
          timing.record(seconds_since(t0) * 1e3);
          break;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  RoundTiming out;
  out.wall_s = seconds_since(start);
  for (unsigned c = 0; c < kClients; ++c) {
    const std::vector<double> cal = timings[c]->calibrated();
    for (std::size_t k = 0; k < cal.size(); ++k) {
      records[sent[c][k]].raw_rtt_ms = timings[c]->raw()[k];
      records[sent[c][k]].rtt_ms = cal[k];
    }
    const std::vector<double>& p = timings[c]->probes_ms();
    out.probes_ms.insert(out.probes_ms.end(), p.begin(), p.end());
  }
  return out;
}

Observed observe(const Record& r, const std::string& id) {
  Observed o;
  if (!r.answered) return o;
  o.answered = true;
  const std::string prefix =
      "{\"id\":" + json::escape(id) + ",\"ok\":true,\"result\":";
  if (r.line.size() > prefix.size() &&
      r.line.compare(0, prefix.size(), prefix) == 0 && r.line.back() == '}') {
    o.ok = true;
    o.payload = r.line.substr(prefix.size(), r.line.size() - prefix.size() - 1);
    return o;
  }
  try {
    const json::Value doc = json::parse(r.line);
    o.ok = doc.at("ok").as_bool();
    // An ok response outside ok_response's exact framing keeps its whole
    // line as payload, so it can never match the replay's bytes.
    if (o.ok)
      o.payload = r.line;
    else
      o.error_code = doc.at("error").at("code").as_string();
  } catch (const std::exception&) {
    o.error_code = "unparseable response";
  }
  return o;
}

/// Server counters after a round: stats_snapshot() plus the store gauges
/// of the `metrics` request.
ServerNumbers server_numbers(ServeRound& round, Tally& tally) {
  ServerNumbers sn;
  const server::StatsSnapshot snap = round.server().stats_snapshot();
  sn.cache_hits = snap.cache_hits;
  sn.cache_misses = snap.cache_misses;
  sn.job_p50_us = snap.p50_latency_us;
  sn.job_p99_us = snap.p99_latency_us;
  try {
    const std::optional<std::string> reply =
        send_line(round.conn(0), "{\"type\":\"metrics\",\"id\":\"m\"}");
    if (!reply) throw std::runtime_error("no response");
    const json::Value& store = json::parse(*reply).at("result").at("store");
    sn.ram_evictions = store.at("ram_evictions").as_u64();
    sn.disk_hits = store.at("disk_hits").as_u64();
    sn.disk_writes = store.at("disk_writes").as_u64();
  } catch (const std::exception& e) {
    tally.fail(std::string("metrics request: ") + e.what());
  }
  return sn;
}

int run_serve(const Args& args) {
  Tally tally;
  Report report;
  const std::string store_dir = args.out_dir + "/serve_store_" +
                                std::to_string(args.seed);
  ProbedSequence setup_times;
  ServeInputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = monotonic_now_ns();
    in = make_serve_inputs(args.seed);
    const ServeRound round(store_dir);
    setup_times.record(seconds_since(t0));
  }

  // The traced run plays one round: it needs the server counters, not
  // steady latencies.
  const int min_rounds = args.trace ? 1 : kMinRounds;
  const std::size_t n = in.stream.size();
  // Only the first round's responses are kept; a later response identical
  // to the first round's at the same position shares its verdict, any
  // other is kept and judged on its own. RSS so does not grow with the
  // number of rounds.
  std::vector<Record> first_round;
  std::vector<std::size_t> same_later(n, 0);
  std::vector<std::pair<std::size_t, Record>> divergent;
  // Per request: fastest calibrated and fastest raw round trip so far.
  std::vector<double> latency_ms(n, std::numeric_limits<double>::max());
  std::vector<double> raw_ms(n, std::numeric_limits<double>::max());
  std::vector<double> round_rates, raw_rates, probes_ms;
  double rss = 0.0;
  ServerNumbers sn;
  // After kMinRounds, a round starts only when one as long as the last
  // still ends by the deadline, so the run takes about --seconds.
  const std::int64_t deadline =
      monotonic_now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t last_round_ns = 0;
  while (static_cast<int>(round_rates.size()) < min_rounds ||
         (!args.trace && monotonic_now_ns() + last_round_ns < deadline)) {
    const std::int64_t round_start = monotonic_now_ns();
    ServeRound round(store_dir);
    std::vector<Record> records;
    const RoundTiming timing = play_round(round, in, records);
    last_round_ns = monotonic_now_ns() - round_start;
    raw_rates.push_back(static_cast<double>(n) / timing.wall_s);
    round_rates.push_back(raw_rates.back() * slowdown(timing.probes_ms));
    probes_ms.insert(probes_ms.end(), timing.probes_ms.begin(),
                     timing.probes_ms.end());
    sn = server_numbers(round, tally);
    // Memory of serving the stream once, server included: later rounds on
    // fresh servers add only allocator churn from their new threads.
    if (round_rates.size() == 1) rss = peak_rss_mb();
    for (std::size_t i = 0; i < n; ++i) {
      latency_ms[i] = std::min(latency_ms[i], records[i].rtt_ms);
      raw_ms[i] = std::min(raw_ms[i], records[i].raw_rtt_ms);
    }
    if (first_round.empty()) {
      first_round = std::move(records);
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (records[i].answered && first_round[i].answered &&
          records[i].line == first_round[i].line)
        ++same_later[i];
      else
        divergent.emplace_back(i, std::move(records[i]));
    }
  }

  // The oracle: every distinct job replayed in process, untraced.
  const DeviceLibrary library = DeviceLibrary::extended();
  std::vector<std::optional<JobReplay>> expected(in.jobs.size());
  std::vector<std::string> replay_errors(in.jobs.size());
  const auto replay_into = [&](std::size_t j) {
    try {
      expected[j] = replay_job(in.jobs[j].line, library, nullptr, j);
    } catch (const std::exception& e) {
      replay_errors[j] = e.what();
    }
  };
  // The traced run times the oracle single-threaded as its untraced pass.
  double untraced_s = 0.0;
  if (args.trace) {
    const std::int64_t u0 = monotonic_now_ns();
    for (std::size_t j = 0; j < in.jobs.size(); ++j) replay_into(j);
    untraced_s = seconds_since(u0);
  } else {
    parallel_for(in.jobs.size(), kReplayThreads, replay_into);
  }

  std::uint64_t frames = 0;
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    if (!expected[j]) {
      tally.fail("job " + in.jobs[j].id + ": replay failed: " +
                 replay_errors[j]);
    } else if (in.jobs[j].kind == Kind::kPartition) {
      frames += expected[j]->proposed_total_frames;
    }
  }
  const auto check = [&](std::size_t i, const Record& r, std::size_t times) {
    const std::size_t j = in.stream[i];
    if (!expected[j]) return;
    Expected want;
    want.infeasible = expected[j]->infeasible;
    want.payload = expected[j]->payload;
    const std::optional<std::string> bad =
        judge(observe(r, in.jobs[j].id), want);
    for (std::size_t k = 0; k < times; ++k) {
      if (bad)
        tally.fail("request " + std::to_string(i) + " (job " + in.jobs[j].id +
                   "): " + *bad);
      else
        tally.pass();
    }
  };
  for (std::size_t i = 0; i < n; ++i)
    check(i, first_round[i], 1 + same_later[i]);
  for (const auto& [i, r] : divergent) check(i, r, 1);

  // Per-request latency: its fastest calibrated round trip across rounds.
  std::vector<double> hit_ms, miss_ms;
  for (std::size_t i = 0; i < n; ++i) {
    if (in.jobs[in.stream[i]].kind == Kind::kAnalyze) continue;
    if (in.repeat[i]) {
      ++sn.repeats;
      hit_ms.push_back(latency_ms[i]);
    } else {
      miss_ms.push_back(latency_ms[i]);
    }
  }
  if (!hit_ms.empty()) sn.rtt_hit_p50_ms = percentile(hit_ms, 0.5);
  if (!miss_ms.empty()) sn.rtt_miss_p50_ms = percentile(miss_ms, 0.5);
  sn.hit_samples = hit_ms.size();
  sn.miss_samples = miss_ms.size();
  for (const Kind k : {Kind::kPartition, Kind::kFloorplan, Kind::kSimulate,
                       Kind::kAnalyze})
    for (const bool rep : {false, true}) {
      std::vector<double> ms;
      for (std::size_t i = 0; i < n; ++i)
        if (in.jobs[in.stream[i]].kind == k && in.repeat[i] == rep)
          ms.push_back(latency_ms[i]);
      if (!ms.empty())
        std::printf("rtt %-9s %-6s n=%-4zu p50=%.3f p90=%.3f max=%.3f ms "
                    "(calibrated)\n",
                    kind_name(k), rep ? "repeat" : "first", ms.size(),
                    percentile(ms, 0.5), percentile(ms, 0.9),
                    percentile(ms, 1.0));
    }

  if (!args.trace) {
    add_setup(report, setup_times);
    report.add("ops_per_s", median(round_rates), "1/s",
               "(median of " + std::to_string(round_rates.size()) +
                   " rounds of " + std::to_string(n) + " responses; " +
                   raw_note(median(raw_rates), "1/s") + ")");
    add_latencies(report, latency_ms, raw_ms);
    report.add("frames_total", static_cast<double>(frames), "frames",
               "(" + std::to_string(kPoolDesigns) + " partition jobs)");
    report.add("peak_rss_mb", rss, "MB");
    print_slowdown(args, probes_ms);
    report.print(args, tally);
    return tally.failed() == 0 ? 0 : 1;
  }

  // Traced run: every distinct job replayed again with spans; the bytes
  // must equal the oracle's (and so the server's).
  SpanRecorder rec;
  LayerCounts counts;
  const std::int64_t t0 = monotonic_now_ns();
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    try {
      const JobReplay r = replay_job(in.jobs[j].line, library, &rec, j);
      counts.add(r.counts);
      if (!expected[j] || r.infeasible != expected[j]->infeasible ||
          r.response != expected[j]->response)
        tally.fail("job " + in.jobs[j].id + ": traced replay differs");
    } catch (const std::exception& e) {
      tally.fail("job " + in.jobs[j].id + ": " + e.what());
    }
  }
  const double traced_s = seconds_since(t0);
  add_layers(report, rec, counts, traced_s, untraced_s);
  add_server(report, sn);
  if (!rec.write_jsonl(spans_path(args)))
    tally.fail("cannot write " + spans_path(args));
  report.print(args, tally);
  return tally.failed() == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep|serve_mix --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--out-dir") args.out_dir = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "sweep") return run_sweep(args);
  if (args.workload == "serve_mix") return run_serve(args);
  return usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
