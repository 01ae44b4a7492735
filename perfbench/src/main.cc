// perfbench: the scalewall end-to-end and per-layer benchmark program.
//
//   perfbench --workload dashboard_socket|wide_groupby|cached_ingest
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around every workload and layer call and reports
// the per-layer metrics. The last stdout line is "PERFBENCH_RESULT
// {json}"; run.py turns it into the benchmark's result line. The exit
// code is non-zero on any wrong row or failed operation.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (options.workload == "dashboard_socket") {
    return perfbench::RunDashboardSocket(options);
  }
  if (options.workload == "wide_groupby") {
    return perfbench::RunWideGroupBy(options);
  }
  if (options.workload == "cached_ingest") {
    return perfbench::RunCachedIngest(options);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return 2;
}
