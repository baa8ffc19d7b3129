#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace prpart::server {
struct JobSpec;  // server/job.hpp
}  // namespace prpart::server

namespace prpart::cli {

/// Entry point of the `prpart` command-line tool, separated from main() so
/// the tests can drive it with captured streams. `prpart help` prints the
/// commands and their flags.
///
/// Returns a process exit code (0 success, 1 user error, 2 infeasible;
/// `analyze` exits 4 when any error-severity diagnostic fires).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// The job `prpart <command> <design.xml> [flags]` describes, for the job
/// commands (partition, floorplan, simulate, bitstreams, flow, submit): the
/// one flag parser behind both what the one-shot commands run and what
/// `submit` sends. Throws ParseError on bad flags, like run() reports them.
server::JobSpec job_spec(const std::vector<std::string>& args);

}  // namespace prpart::cli
