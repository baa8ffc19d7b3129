#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0
                 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

void Tally::fail(const std::string& reason) {
  ++attempted_;
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(reason);
}

std::optional<std::string> judge(const Observed& got, const Expected& want) {
  if (!got.answered) return "no response (connection closed)";
  if (got.ok) {
    if (want.infeasible) return "ok response where the replay is infeasible";
    if (got.payload != want.payload)
      return "ok payload differs from the replay's bytes";
    return std::nullopt;
  }
  if (got.error_code == "infeasible") {
    if (want.infeasible) return std::nullopt;
    return "infeasible response where the replay succeeds";
  }
  return "error response '" + got.error_code + "'";
}

}  // namespace perfbench
