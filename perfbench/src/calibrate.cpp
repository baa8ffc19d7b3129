#include "calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "check.hpp"
#include "util/clock.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kProbeTableWords = 65536;  // 256 KiB of uint32_t
constexpr int kProbeSteps = 12000;

std::atomic<std::uint32_t> probe_sink{0};

}  // namespace

double run_probe_ms() {
  thread_local std::vector<std::uint32_t> table(kProbeTableWords);
  thread_local std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const std::int64_t t0 = prpart::monotonic_now_ns();
  std::uint64_t x = state;
  std::uint32_t* t = table.data();
  for (int k = 0; k < kProbeSteps; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& e = t[x & (kProbeTableWords - 1)];
    if (e & 1u)
      e += static_cast<std::uint32_t>(x >> 32);
    else
      e ^= static_cast<std::uint32_t>(x);
  }
  const std::int64_t t1 = prpart::monotonic_now_ns();
  state = x;
  probe_sink.fetch_add(t[x & (kProbeTableWords - 1)],
                       std::memory_order_relaxed);
  return static_cast<double>(t1 - t0) / 1e6;
}

std::vector<double> calibrate(const std::vector<double>& calls_ms,
                              const std::vector<double>& probes_ms,
                              std::size_t radius) {
  if (probes_ms.size() != calls_ms.size() + 1 || radius == 0)
    throw std::invalid_argument("calibrate: need one probe more than calls");
  std::vector<double> out(calls_ms.size());
  for (std::size_t k = 0; k < calls_ms.size(); ++k) {
    const std::size_t lo = k + 1 >= radius ? k + 1 - radius : 0;
    const std::size_t hi = std::min(probes_ms.size(), k + radius + 1);
    const std::vector<double> near(probes_ms.begin() + lo,
                                   probes_ms.begin() + hi);
    out[k] = calls_ms[k] * kReferenceProbeMs / percentile(near, 0.5);
  }
  return out;
}

double slowdown(std::vector<double> probes_ms) {
  return percentile(std::move(probes_ms), 0.5) / kReferenceProbeMs;
}

ProbedSequence::ProbedSequence() {
  run_probe_ms();
  probes_.push_back(run_probe_ms());
}

void ProbedSequence::record(double call_time) {
  calls_.push_back(call_time);
  probes_.push_back(run_probe_ms());
}

}  // namespace perfbench
