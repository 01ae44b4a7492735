// What one benchmark run reports: attempted/failed counts and named
// metrics with unit and sample count, emitted as one JSON line that
// run.py checks against BENCHMARK.json. Per-layer metrics carry the base
// of each ratio and the end-to-end metric they are expected to move.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
  std::string note;  // base, expected effect, or "n/a" explanation
};

// Unit, base and expected effect of every per-layer metric, in the order
// BENCHMARK.json lists them.
struct LayerMetricInfo {
  const char* name;
  const char* unit;
  const char* base;   // "" when not a ratio
  const char* moves;  // end-to-end metric and workload it should move
};
const std::vector<LayerMetricInfo>& LayerMetrics();

// End-to-end metric names and units, in BENCHMARK.json order.
struct EndToEndInfo {
  const char* name;
  const char* unit;
};
const std::vector<EndToEndInfo>& EndToEndMetrics();

class Report {
 public:
  Report(std::string workload, bool traced)
      : workload_(std::move(workload)), traced_(traced) {}

  // End-to-end metric (untraced runs).
  void EndToEnd(const std::string& name, double value, int64_t samples,
                std::string note = "");
  // Per-layer metric (traced runs); unit, base and effect come from
  // LayerMetrics().
  void Layer(const std::string& name, double value, int64_t samples,
             std::string note = "");

  int64_t attempted = 0;
  int64_t failed = 0;      // erred, timed out, shed or wrong rows
  int64_t wrong_rows = 0;  // subset of failed: rows differing from the oracle

  // Prints the human-readable metric table to stdout, then the
  // machine-readable "PERFBENCH_RESULT {...}" line. Metrics the run did
  // not measure are filled as 0 with an "n/a" note so every name the
  // run kind owes is present. Returns false if a metric was reported
  // twice or is unknown.
  bool Emit();

 private:
  void Add(MetricValue metric);

  std::string workload_;
  bool traced_;
  std::vector<MetricValue> metrics_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
