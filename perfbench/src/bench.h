// Shared pieces of the three workloads: run options, the locally built
// reference copy of the dataset, the seeded query shapes, process-level
// measurements and the per-layer probes of the traced run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/deployment.h"
#include "cubrick/partition.h"
#include "cubrick/planner.h"
#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "node/dataset.h"
#include "report.h"
#include "stats.h"

namespace perfbench {

namespace sw = scalewall;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its span dump
};

// Repetitions of the cluster set-up per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

// The dataset's partitions, built once in this process in the layout
// both node::BuildPartition and core::Deployment::LoadRows produce
// (rows in generation order, bucketed by node::PartitionForRow).
struct LocalData {
  sw::node::DatasetOptions dataset;
  std::vector<sw::cubrick::Row> rows;
  std::vector<sw::cubrick::TablePartition> partitions;  // index = id
  sw::cubrick::ReplicatedTable dim = sw::node::BuildDimTable();
};
std::unique_ptr<LocalData> BuildLocalData(
    const sw::node::DatasetOptions& dataset);

// Merged result of `query` over every local partition, folded in
// ascending partition order (serial scans) — node::ExecuteLocal's steps
// over partitions that are built once instead of per call.
sw::Result<sw::cubrick::QueryResult> LocalMerged(
    LocalData& data, const sw::cubrick::Query& query);

// The correctness gate: node::FormatResultRows of `got` must equal the
// oracle node::ExecuteLocal byte for byte.
sw::Status CheckAgainstOracle(const sw::node::DatasetOptions& dataset,
                              const sw::cubrick::Query& query,
                              const std::vector<sw::cubrick::ResultRow>& got);

// One query instance of a workload's mix.
struct Shaped {
  std::string shape;
  sw::cubrick::Query query;
  sw::cubrick::JoinStrategy join = sw::cubrick::JoinStrategy::kAuto;
  int merge_fanin = 0;
  uint64_t digest = 0;  // RowsDigest of the expected rows (workload fills)
};

// The seed picks filter positions and values; filter widths are fixed per
// instance index, so every seed's mix costs about the same.
//
// dashboard_socket: `variants` instances of each of the six small-result
// shapes, shape-major.
std::vector<Shaped> DashboardQueries(uint64_t seed, int variants);
// wide_groupby: every day window of 3 to 10 days, times six ranges on a
// second grouped dimension, for each of the three wide shapes (3,816
// instances), in a seeded order.
std::vector<Shaped> WideQueries(uint64_t seed);
// cached_ingest: the 64 dashboard tiles; tile t has shape t % 3.
std::vector<Shaped> TileQueries(uint64_t seed);

// Samples the heap memory the process holds (glibc mallinfo2: bytes in
// use in every arena plus mmapped blocks) every 5 ms while alive and keeps
// the largest sample. Heap in use excludes allocator slack — free pages
// kept by per-thread arenas, which vary from run to run with how threads
// map to arenas — so it moves only when the program holds more memory.
// Workloads free their own reference data before starting one.
class MemorySampler {
 public:
  MemorySampler();
  ~MemorySampler();
  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;

  double PeakMb() const;
  int64_t samples() const { return samples_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> samples_{0};
  std::thread thread_;  // declared last: starts after the fields above
};

// Sums every series of `name` in a metrics text export whose label set
// contains `label` (e.g. result="hit"; "" = all series).
double SumMetric(const std::string& export_text, const std::string& name,
                 const std::string& label = "");

// Per-layer probes over the workload's data and shapes, each call
// wrapped in a span, then an EpollTransport echo at the median frame size
// the codec probe saw (net.rtt_p50_us / net.rtt_p99_us). `shapes` should
// hold one instance per distinct shape (the probes scan every partition
// per instance).
struct ProbeInputs {
  LocalData* data = nullptr;
  std::vector<const Shaped*> shapes;
  // Region context of a deployment holding the table (for the planner
  // probe); null skips the planner probe.
  const sw::cubrick::RegionContext* region = nullptr;
  double seconds = 2.0;       // wall budget shared by the layer probes
  double echo_seconds = 1.0;  // wall budget of the echo probe
};
void RunLayerProbes(const ProbeInputs& in, SpanLog& spans, Report& report);

// Admission controller cost with the given pools: admit.us_per_call.
void RunAdmitProbe(const std::vector<std::string>& pools, SpanLog& spans,
                   Report& report);

// Node-layer probe for workloads that run no sockets: starts the
// dashboard_socket cluster over `data`'s dataset, sends its query mix
// traced and profiled in an open loop for `seconds`, and reports the
// node.* split from the proxy's stitched profiles.
void RunNodeProbe(LocalData& data, uint64_t seed, double seconds,
                  SpanLog& spans, Report& report);

// Writes the spans as JSON lines to `path`, prints the per-name self
// time table and the spans of the first `dump_traces` traces to stdout.
void DumpSpans(const SpanLog& spans, const std::string& path,
               int dump_traces);

// --- in-process core::Deployment workloads (wide_groupby, cached_ingest)

// Creates the dataset table with the dataset's partition count (and the
// product_dim dimension table), loads `rows` and lets discovery settle.
// `load_cpu_ns` receives the thread CPU time of LoadRows alone.
std::unique_ptr<sw::core::Deployment> StartDeployment(
    const sw::core::DeploymentOptions& options, const LocalData& data,
    int64_t* load_cpu_ns);

// Cache, admission and transport counters of a deployment, from its
// metrics registry export and the proxy/sim-network snapshots.
struct DeploymentCounters {
  double partial_hits = 0, partial_misses = 0, partial_invalidations = 0,
         partial_evictions = 0;
  double merged_hits = 0, merged_misses = 0, merged_validation_failures = 0,
         merged_evictions = 0;
  double admitted = 0, rejected = 0, preemptions = 0;
  double net_frames = 0, net_bytes = 0, net_timeouts = 0, net_rejected = 0;
};
DeploymentCounters ReadCounters(sw::core::Deployment& dep);

// Reports the cache.*, admit.rejected_ratio/preemptions and net.* layer
// metrics from counter deltas over `queries` submissions and
// `ingest_batches` LoadRows calls.
void ReportDeploymentLayers(const DeploymentCounters& before,
                            const DeploymentCounters& after, int64_t queries,
                            int64_t ingest_batches, bool admission,
                            Report& report);

// Workload entry points. Return the process exit code.
int RunDashboardSocket(const Options& options);
int RunWideGroupBy(const Options& options);
int RunCachedIngest(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
