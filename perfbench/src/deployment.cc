#include <cstdio>

#include "bench.h"
#include "core/metrics.h"

namespace perfbench {

std::unique_ptr<sw::core::Deployment> StartDeployment(
    const sw::core::DeploymentOptions& options, const LocalData& data,
    int64_t* load_cpu_ns) {
  auto dep = std::make_unique<sw::core::Deployment>(options);
  sw::core::TableOptions table;
  table.partitions = data.dataset.num_partitions;
  sw::Status status = dep->CreateTable(sw::node::DatasetTable(),
                                       sw::node::DatasetSchema(), table);
  if (status.ok()) {
    status = dep->CreateDimensionTable(sw::node::DatasetDimTable(), 64,
                                       data.dim.attributes());
  }
  if (status.ok()) {
    std::vector<sw::cubrick::DimensionEntry> entries;
    for (uint32_t k = 0; k < 64; ++k) {
      const uint32_t category = data.dim.Attribute(k, 0);
      if (category != sw::cubrick::kNoAttribute) {
        entries.push_back({k, {category}});
      }
    }
    status = dep->LoadDimensionEntries(sw::node::DatasetDimTable(), entries);
  }
  const int64_t t0 = ThreadCpuNanos();
  if (status.ok()) status = dep->LoadRows(sw::node::DatasetTable(), data.rows);
  *load_cpu_ns = ThreadCpuNanos() - t0;
  if (!status.ok()) {
    std::fprintf(stderr, "deployment set-up: %s\n", status.ToString().c_str());
    return nullptr;
  }
  dep->RunFor(30 * sw::kSecond);  // discovery settles
  return dep;
}

DeploymentCounters ReadCounters(sw::core::Deployment& dep) {
  const std::string text = sw::core::ExportMetricsText(dep);
  DeploymentCounters c;
  const std::string server_cache = "scalewall_server_result_cache_total";
  c.partial_hits = SumMetric(text, server_cache, "result=\"hit\"");
  c.partial_misses = SumMetric(text, server_cache, "result=\"miss\"");
  c.partial_invalidations =
      SumMetric(text, server_cache, "result=\"invalidated\"");
  c.partial_evictions =
      SumMetric(text, "scalewall_server_result_cache_evictions_total");
  const std::string proxy_cache = "scalewall_proxy_cache_total";
  c.merged_hits = SumMetric(text, proxy_cache, "result=\"validated_hit\"");
  c.merged_misses = SumMetric(text, proxy_cache, "result=\"miss\"");
  c.merged_validation_failures =
      SumMetric(text, proxy_cache, "result=\"validation_failure\"");
  c.merged_evictions =
      static_cast<double>(dep.proxy().MergedCacheSnapshot().evictions);
  c.admitted =
      SumMetric(text, "scalewall_admit_requests_total", "result=\"admitted\"");
  c.rejected =
      SumMetric(text, "scalewall_admit_requests_total", "result=\"rejected\"");
  c.preemptions = SumMetric(text, "scalewall_pool_preemptions_total");
  if (sw::net::SimNetwork* net = dep.sim_network()) {
    const sw::net::TransportStats& s = net->stats();
    c.net_frames = static_cast<double>(s.frames_out.value());
    c.net_bytes = static_cast<double>(s.bytes_out.value());
    c.net_timeouts = static_cast<double>(s.timeouts.value());
    c.net_rejected = static_cast<double>(s.rejected.value());
  }
  return c;
}

void ReportDeploymentLayers(const DeploymentCounters& b,
                            const DeploymentCounters& a, int64_t queries,
                            int64_t ingest_batches, bool admission,
                            Report& report) {
  const double q = static_cast<double>(std::max<int64_t>(1, queries));
  const double partial_lookups =
      (a.partial_hits - b.partial_hits) + (a.partial_misses - b.partial_misses);
  report.Layer("cache.partial_hit_ratio",
               partial_lookups > 0
                   ? (a.partial_hits - b.partial_hits) / partial_lookups
                   : 0.0,
               static_cast<int64_t>(partial_lookups));
  const double merged_lookups =
      (a.merged_hits - b.merged_hits) + (a.merged_misses - b.merged_misses) +
      (a.merged_validation_failures - b.merged_validation_failures);
  report.Layer("cache.merged_hit_ratio",
               merged_lookups > 0
                   ? (a.merged_hits - b.merged_hits) / merged_lookups
                   : 0.0,
               static_cast<int64_t>(merged_lookups));
  if (ingest_batches > 0) {
    report.Layer("cache.invalidations_per_ingest",
                 (a.partial_invalidations - b.partial_invalidations) /
                     static_cast<double>(ingest_batches),
                 ingest_batches, "server partial-cache invalidations");
  }
  report.Layer("cache.validation_failures",
               a.merged_validation_failures - b.merged_validation_failures,
               static_cast<int64_t>(merged_lookups), "merged cache");
  report.Layer("cache.evictions",
               (a.partial_evictions - b.partial_evictions) +
                   (a.merged_evictions - b.merged_evictions),
               queries, "partial + merged");
  if (admission) {
    const double offered =
        (a.admitted - b.admitted) + (a.rejected - b.rejected);
    report.Layer("admit.rejected_ratio",
                 offered > 0 ? (a.rejected - b.rejected) / offered : 0.0,
                 static_cast<int64_t>(offered));
    report.Layer("admit.preemptions", a.preemptions - b.preemptions,
                 static_cast<int64_t>(offered));
  }
  report.Layer("net.bytes_per_query", (a.net_bytes - b.net_bytes) / q,
               queries, "sim transport, bytes out");
  report.Layer("net.frames_per_query", (a.net_frames - b.net_frames) / q,
               queries);
  report.Layer("net.timeouts", a.net_timeouts - b.net_timeouts, queries);
  report.Layer("net.rejected", a.net_rejected - b.net_rejected, queries);
}

}  // namespace perfbench
