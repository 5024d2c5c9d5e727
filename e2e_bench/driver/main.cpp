// e2e_driver: one run of the end-to-end control-plane benchmark.
//
//   e2e_driver --workload churn_qos|fault_storm|elastic_mixed --seed N
//              --seconds S --trace 0|1
//
// Prints what it measured, line by line, and ends with one JSON object:
// {"correct": true, "attempted": .., "failed": .., "metrics": {..}} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A failed correctness check prints the failures to stderr and no JSON,
// and the exit code is 1; bad arguments exit with 2.
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "replay.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "e2e_driver: " << why << "\n"
            << "usage: e2e_driver --workload churn_qos|fault_storm|elastic_mixed --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  alvc::e2e::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = alvc::e2e::parse_workload(value);
        if (!w) return usage("unknown workload " + value);
        options.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0 && options.seconds <= 600)) return usage("--seconds out of range");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    } catch (const std::exception&) {
      return usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");

  alvc::e2e::RunReport report = alvc::e2e::run_benchmark(options);
  for (const std::string& line : report.log) std::cout << line << "\n";
  if (!report.correct) {
    std::cout.flush();
    for (const std::string& failure : report.check_failures) {
      std::cerr << "CHECK FAILED: " << failure << "\n";
    }
    return 1;
  }
  std::cout << "{\"correct\": true, \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << report.metrics.to_json() << "}" << std::endl;
  return 0;
}
