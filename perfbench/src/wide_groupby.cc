// wide_groupby: wide group-bys (up to 16,384 groups) over 1M rows in an
// in-process Deployment of 16 servers, every hop through the sim
// transport's wire codec, one query outstanding (closed loop). The mix
// walks 3,816 distinct filter combinations without repeating, so the
// result caches (default budgets) rarely hit and their inserts and
// evictions show.
//
// Scans are serial, so a query runs entirely on the calling thread and
// its thread CPU time is its service time: with 4 scan workers the
// per-partition fork/join made wall-clock latency swing by 25-50% (10-run
// IQR/median) with the CPU steal of a shared host. The parallel scan
// path is measured by the traced run (exec.parallel_speedup).

#include <cstdio>
#include <future>
#include <map>

#include "bench.h"
#include "common/random.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 1000000;
constexpr uint32_t kPartitions = 16;

sw::core::DeploymentOptions WideOptions(uint64_t seed,
                                        sw::core::TransportMode transport) {
  sw::core::DeploymentOptions options;
  options.seed = seed;
  options.topology.regions = 1;
  options.topology.racks_per_region = 4;
  options.topology.servers_per_rack = 4;  // 16 servers
  options.repartition_threshold_rows = 1u << 30;  // keep 16 partitions
  options.per_host_failure_probability = 0.0;     // no modeled failures
  options.enable_result_caching = true;  // default budgets
  options.transport = transport;
  return options;
}

// Groups of `full` (the unfiltered result) that pass the query's range
// filters, materialized with the query's ORDER BY / LIMIT. Every filter is
// on a grouped dimension and the first on the day (key position 0). A
// group's aggregation state depends only on the rows of that group, and
// such filters remove whole groups, so this equals executing the filtered
// query (the gate checks it against the oracle).
std::vector<sw::cubrick::ResultRow> RestrictToFilters(
    const sw::cubrick::QueryResult& full, const sw::cubrick::Query& query) {
  std::vector<std::pair<size_t, sw::cubrick::FilterRange>> checks;
  for (const sw::cubrick::FilterRange& f : query.filters) {
    for (size_t k = 0; k < query.group_by.size(); ++k) {
      if (query.group_by[k] == f.dimension) checks.emplace_back(k, f);
    }
  }
  const sw::cubrick::FilterRange& day = query.filters.front();
  sw::cubrick::QueryResult restricted(full.num_aggregations());
  for (auto it = full.groups().lower_bound({day.lo});
       it != full.groups().end() && it->first[0] <= day.hi; ++it) {
    bool keep = true;
    for (const auto& [k, f] : checks) {
      keep = keep && it->first[k] >= f.lo && it->first[k] <= f.hi;
    }
    if (!keep) continue;
    for (size_t a = 0; a < it->second.size(); ++a) {
      restricted.AccumulateState(it->first, a, it->second[a]);
    }
  }
  return sw::cubrick::MaterializeRows(restricted, query);
}

struct LoopResult {
  std::vector<double> latency_ms;  // wall clock
  std::vector<double> cpu_ms;      // thread CPU time
  std::vector<double> gap_ms;      // generator time between calls
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  int64_t wall_us = 0;
  int64_t cpu_ns = 0;  // thread CPU time of the whole loop
};

// Walks `mix` cyclically from `*cursor`, one query outstanding.
LoopResult RunClosedLoop(sw::core::Deployment& dep,
                         const std::vector<Shaped>& mix, double seconds,
                         size_t* cursor, bool traced, SpanLog& spans) {
  LoopResult r;
  const int64_t start = NowMicros();
  const int64_t cpu_start = ThreadCpuNanos();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
  int64_t last_done = start;
  while (NowMicros() < end) {
    const Shaped& shape = mix[(*cursor)++ % mix.size()];
    sw::cubrick::QueryRequest request(shape.query);
    request.merge_fanin = shape.merge_fanin;
    request.profile = traced;
    const uint64_t trace = spans.NewTrace();
    ScopedSpan root(spans, "deployment.query " + shape.shape, 0, trace);
    const int64_t t0 = NowMicros();
    r.gap_ms.push_back((t0 - last_done) / 1000.0);
    sw::cubrick::QueryOutcome outcome;
    const int64_t c0 = ThreadCpuNanos();
    {
      ScopedSpan span(spans, "deployment.Query", root.id(), trace);
      outcome = dep.Query(request);
    }
    r.cpu_ms.push_back((ThreadCpuNanos() - c0) / 1e6);
    const int64_t t1 = NowMicros();
    ++r.attempted;
    bool ok = outcome.status.ok();
    if (ok) {
      ScopedSpan span(spans, "verify", root.id(), trace);
      if (RowsDigest(outcome.rows) != shape.digest) {
        ok = false;
        ++r.wrong;
      }
    }
    if (!ok) ++r.failed;
    r.latency_ms.push_back((t1 - t0) / 1000.0);
    last_done = NowMicros();
  }
  r.wall_us = NowMicros() - start;
  r.cpu_ns = ThreadCpuNanos() - cpu_start;
  return r;
}

}  // namespace

int RunWideGroupBy(const Options& options) {
  Report report("wide_groupby", options.trace);
  SpanLog spans(options.trace);
  sw::node::DatasetOptions dataset;
  dataset.seed = options.seed;
  dataset.num_partitions = kPartitions;
  dataset.num_rows = kRows;
  auto data = BuildLocalData(dataset);

  std::vector<double> setup_s;
  std::vector<double> load_rate;
  std::unique_ptr<sw::core::Deployment> dep;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dep.reset();
    const int64_t c0 = ThreadCpuNanos();
    int64_t load_cpu_ns = 0;
    dep = StartDeployment(WideOptions(options.seed, sw::core::TransportMode::kSim),
                          *data, &load_cpu_ns);
    if (dep == nullptr) return 1;
    setup_s.push_back((ThreadCpuNanos() - c0) / 1e9);
    load_rate.push_back(static_cast<double>(kRows) / (load_cpu_ns / 1e9));
  }

  // Expected rows: one unfiltered reference result per shape, each
  // instance restricted to its filters (digests computed on 4 threads).
  std::vector<Shaped> mix = WideQueries(options.seed);
  std::vector<const Shaped*> distinct;
  std::map<std::string, sw::cubrick::QueryResult> full;
  for (const Shaped& shape : mix) {
    if (full.count(shape.shape) > 0) continue;
    distinct.push_back(&shape);
    sw::cubrick::Query unfiltered = shape.query;
    unfiltered.filters.clear();
    auto merged = LocalMerged(*data, unfiltered);
    if (!merged.ok()) return 1;
    full.emplace(shape.shape, std::move(*merged));
  }
  {
    std::vector<std::future<void>> workers;
    constexpr size_t kThreads = 4;
    for (size_t w = 0; w < kThreads; ++w) {
      workers.push_back(std::async(std::launch::async, [&, w] {
        for (size_t i = w; i < mix.size(); i += kThreads) {
          mix[i].digest =
              RowsDigest(RestrictToFilters(full.at(mix[i].shape), mix[i].query));
        }
      }));
    }
    for (auto& w : workers) w.get();
  }
  // Gate: the first instance of each shape, oracle vs reference vs the
  // deployment, byte for byte.
  std::vector<std::vector<sw::cubrick::ResultRow>> gate_rows;
  std::vector<std::future<sw::Status>> gates;
  for (const Shaped* shape : distinct) {
    gate_rows.push_back(RestrictToFilters(full.at(shape->shape), shape->query));
  }
  for (size_t g = 0; g < distinct.size(); ++g) {
    gates.push_back(std::async(std::launch::async, [&, g] {
      return CheckAgainstOracle(dataset, distinct[g]->query, gate_rows[g]);
    }));
  }
  int64_t gate_failures = 0;
  for (size_t g = 0; g < distinct.size(); ++g) {
    const Shaped& shape = *distinct[g];
    sw::Status status = gates[g].get();
    sw::cubrick::QueryRequest request(shape.query);
    request.merge_fanin = shape.merge_fanin;
    const sw::cubrick::QueryOutcome got = dep->Query(request);
    if (status.ok() && !got.status.ok()) status = got.status;
    if (status.ok() && sw::node::FormatResultRows(got.rows) !=
                           sw::node::FormatResultRows(gate_rows[g])) {
      status = sw::Status::Internal("deployment rows differ from the oracle");
    }
    std::printf("gate %-12s %s (%zu rows)\n", shape.shape.c_str(),
                status.ok() ? "byte-identical to node::ExecuteLocal"
                            : status.ToString().c_str(),
                gate_rows[g].size());
    if (!status.ok()) ++gate_failures;
  }
  report.attempted += static_cast<int64_t>(distinct.size());
  report.failed += gate_failures;
  report.wrong_rows += gate_failures;

  size_t cursor = 0;
  auto tally = [&report](const LoopResult& r) {
    report.attempted += r.attempted;
    report.failed += r.failed;
    report.wrong_rows += r.wrong;
  };
  if (!options.trace) {
    full.clear();
    data.reset();
    MemorySampler memory;
    const LoopResult loop =
        RunClosedLoop(*dep, mix, options.seconds, &cursor, false, spans);
    tally(loop);
    const int64_t n = static_cast<int64_t>(loop.cpu_ms.size());
    std::string tail_note;
    const double p99 = P99WithNote(loop.cpu_ms, &tail_note);
    report.EndToEnd("setup_s", Median(setup_s), kSetupRepeats,
                    "thread CPU, median of deployment build + 1M-row load");
    report.EndToEnd("query_p50_ms", Median(loop.cpu_ms), n,
                    "thread CPU per query, closed loop, 1 outstanding");
    report.EndToEnd("query_p99_ms", p99, n, "thread CPU per query, " + tail_note);
    report.EndToEnd("query_qps", (n - loop.failed) / (loop.cpu_ns / 1e9), n,
                    "queries per CPU-second of the serving thread");
    report.EndToEnd("ingest_rows_per_s", Median(load_rate), kSetupRepeats,
                    "bulk LoadRows at set-up, per CPU-second");
    report.EndToEnd("rss_mb", memory.PeakMb(), memory.samples(),
                    "peak heap in use while serving (mallinfo2)");
    std::string wall_note;
    const double wall_p99 = P99WithNote(loop.latency_ms, &wall_note);
    std::printf("wall clock: query p50 %.3f ms, p99 %.3f ms, %.2f queries/s "
                "(spread with host CPU steal; not the reported metrics)\n",
                Median(loop.latency_ms), wall_p99,
                (n - loop.failed) / (loop.wall_us / 1e6));
  } else {
    SpanLog untraced(false);
    const LoopResult plain =
        RunClosedLoop(*dep, mix, options.seconds * 0.25, &cursor, false,
                      untraced);
    const DeploymentCounters before = ReadCounters(*dep);
    const LoopResult traced =
        RunClosedLoop(*dep, mix, options.seconds * 0.25, &cursor, true, spans);
    const DeploymentCounters after = ReadCounters(*dep);
    tally(plain);
    tally(traced);
    ReportDeploymentLayers(before, after, traced.attempted, 0, false, report);
    report.Layer("trace.overhead_ratio",
                 Median(traced.cpu_ms) / Median(plain.cpu_ms),
                 traced.attempted,
                 "traced = benchmark spans + request.profile");
    const TailPick gap = PickTail(traced.gap_ms, {99, 90, 50});
    double gap_max = 0;
    for (double g : traced.gap_ms) gap_max = std::max(gap_max, g);
    report.Layer("load.lag_p99_ms", gap.value, traced.attempted,
                 "closed loop: generator time between calls");
    report.Layer("load.lag_max_ms", gap_max, traced.attempted,
                 "closed loop: generator time between calls");
    report.Layer("load.backlog_end", 0, 1, "closed loop, 1 outstanding");

    // Sim mediation: the same instances, cache bypassed, through a kDirect
    // and the kSim deployment.
    int64_t load_cpu_ns = 0;
    auto direct = StartDeployment(
        WideOptions(options.seed, sw::core::TransportMode::kDirect), *data,
        &load_cpu_ns);
    if (direct == nullptr) return 1;
    int64_t wall[2] = {0, 0};
    int64_t runs = 0;
    const int64_t budget = NowMicros() + static_cast<int64_t>(options.seconds * 0.15e6);
    do {
      for (const Shaped* shape : distinct) {
        sw::cubrick::QueryRequest request(shape->query);
        request.merge_fanin = shape->merge_fanin;
        request.cache_policy = sw::cache::CachePolicy::kBypass;
        sw::core::Deployment* deps[2] = {dep.get(), direct.get()};
        for (int d = 0; d < 2; ++d) {
          const uint64_t trace = spans.NewTrace();
          ScopedSpan span(spans, d == 0 ? "sim.query_ksim" : "sim.query_kdirect",
                          0, trace);
          const int64_t t0 = NowMicros();
          const auto outcome = deps[d]->Query(request);
          wall[d] += NowMicros() - t0;
          if (!outcome.status.ok() ||
              RowsDigest(outcome.rows) != shape->digest) {
            ++report.failed;
          }
        }
        ++runs;
      }
    } while (NowMicros() < budget);
    direct.reset();
    report.Layer("sim.mediation_ratio",
                 static_cast<double>(wall[0]) /
                     static_cast<double>(std::max<int64_t>(1, wall[1])),
                 runs, "cache bypassed");

    ProbeInputs in;
    in.data = data.get();
    in.shapes = distinct;
    in.region = &dep->region_context(0);
    in.seconds = options.seconds * 0.25;
    in.echo_seconds = options.seconds * 0.1;
    RunLayerProbes(in, spans, report);
    DumpSpans(spans, options.spans_path, 3);
  }
  return report.Emit() && report.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
