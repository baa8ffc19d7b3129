#pragma once

// Host-speed calibration of the benchmark's timings.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over seconds and minutes (other tenants' load on shared cores, caches and
// memory), and the drift moves every wall-clock time alike. So each timing
// thread runs a fixed reference loop (run_probe_ms) between its timed
// calls, and every call's wall time is scaled by how fast the host ran the
// loop around it:
//
//   calibrated = wall * kReferenceProbeMs / median(nearby loop times)
//
// Calibrated times read as on a host where the loop takes
// kReferenceProbeMs. The loop is the benchmark's own code, the same on
// every commit compared, so a change to the program moves calibrated times
// as it would move wall times on a steady host, as long as the program's
// calls leave the loop's table in the cache (see run_probe_ms).

#include <cstddef>
#include <vector>

namespace perfbench {

/// Wall time of the reference loop on the reference host, in ms.
constexpr double kReferenceProbeMs = 0.1;

/// Runs the reference loop once on the calling thread (a fixed number of
/// dependent integer steps with data-dependent branches, loads and stores
/// over a 256 KiB table) and returns its wall time in ms.
///
/// The table is left where the timed call before it put it: on the shared
/// hosts this benchmark runs on, what slows the program most is other
/// tenants' traffic through the caches a core shares, and re-fetching the
/// table is what makes the loop feel it (loops over a warmed L1-sized table
/// or over registers only tracked the program's slowdowns worse). So a
/// program whose calls come to touch a good part of the core's 2 MiB L2
/// also slows the loop, which damps its calibrated changes; the raw
/// figures in the report show that case.
double run_probe_ms();

/// Calibrated times of a sequence of timed calls on one thread.
/// probes_ms[k] ran just before call k and probes_ms[k + 1] just after it,
/// so it holds one more entry than calls_ms; call k is scaled by the
/// median of probes k + 1 - radius .. k + radius, clipped to the sequence.
/// Any unit of time works for calls_ms; the result keeps it.
std::vector<double> calibrate(const std::vector<double>& calls_ms,
                              const std::vector<double>& probes_ms,
                              std::size_t radius);

/// How much slower than the reference host a stretch of time ran: the
/// median loop time over kReferenceProbeMs. Requires probes.
double slowdown(std::vector<double> probes_ms);

/// Timed calls of one thread with the reference loop between them.
class ProbedSequence {
 public:
  static constexpr std::size_t kRadius = 4;

  /// Runs the loop once to fill its table, then the probe before call 0.
  ProbedSequence();

  /// Records one call's time, then runs the probe after it.
  void record(double call_time);

  std::size_t size() const { return calls_.size(); }
  const std::vector<double>& raw() const { return calls_; }
  const std::vector<double>& probes_ms() const { return probes_; }
  std::vector<double> calibrated() const {
    return calibrate(calls_, probes_, kRadius);
  }

 private:
  std::vector<double> calls_;
  std::vector<double> probes_;
};

}  // namespace perfbench
