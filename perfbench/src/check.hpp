#pragma once

// Pure helpers shared by the benchmark and its self-tests: percentile
// selection, failure accounting and the served-response verdict.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the sample of rank ceil(p * n) in ascending
/// order (p in (0, 1]). Requires a non-empty sample.
double percentile(std::vector<double> samples, double p);

/// Attempted/failed accounting. Every failed check is one failure; the
/// first few reasons are kept for the report.
class Tally {
 public:
  void pass() { ++attempted_; }
  void fail(const std::string& reason);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// What a client saw for one request.
struct Observed {
  bool answered = false;  ///< false: closed connection / transport error
  bool ok = false;
  std::string payload;     ///< raw result bytes when ok
  std::string error_code;  ///< wire error code when !ok
};

/// What the in-process replay of the same job produced.
struct Expected {
  bool infeasible = false;
  std::string payload;  ///< exact result bytes when !infeasible
};

/// Failure reason, or nullopt when the response is correct: an ok payload
/// must equal the replay's bytes; a typed `infeasible` answer is correct
/// exactly when the replay's verdict is infeasible too. Timeouts,
/// overloads, internal errors and lost responses are always failures.
std::optional<std::string> judge(const Observed& got, const Expected& want);

}  // namespace perfbench
