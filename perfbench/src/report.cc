#include "report.h"

#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

const std::vector<LayerMetricInfo>& LayerMetrics() {
  static const std::vector<LayerMetricInfo> kMetrics = {
      {"planner.plan_us", "us", "",
       "query_p50_ms on dashboard_socket (small share)"},
      {"scan.rows_per_s", "1/s", "",
       "query_qps on wide_groupby; little effect on cached_ingest"},
      {"scan.us_per_query", "us", "",
       "query_qps on wide_groupby; little effect on cached_ingest"},
      {"scan.rle_skip_ratio", "ratio", "bricks scanned",
       "query_p50_ms on dashboard_socket"},
      {"exec.parallel_speedup", "ratio",
       "serial scan time over 4-worker scan time",
       "no end-to-end metric: the measured workloads scan serially"},
      {"exec.morsels_per_query", "count", "",
       "no end-to-end metric: the measured workloads scan serially"},
      {"merge.groups_per_s", "1/s", "",
       "query_p50_ms and rss_mb on wide_groupby"},
      {"merge.us_per_query", "us", "",
       "query_p50_ms and rss_mb on wide_groupby"},
      {"materialize.us_per_query", "us", "",
       "query_p50_ms and rss_mb on wide_groupby"},
      {"result.groups_per_query", "count", "",
       "query_p50_ms and rss_mb on wide_groupby"},
      {"tree_merge.us_per_query", "us", "",
       "query_p50_ms on the tree shapes of dashboard_socket and wide_groupby"},
      {"codec.encode_mb_per_s", "MB/s", "",
       "query_p50_ms on wide_groupby and dashboard_socket"},
      {"codec.decode_mb_per_s", "MB/s", "",
       "query_p50_ms on wide_groupby and dashboard_socket"},
      {"codec.bytes_per_query", "B", "",
       "query_p50_ms on wide_groupby and dashboard_socket"},
      {"codec.frames_per_query", "count", "",
       "query_p50_ms on wide_groupby and dashboard_socket"},
      {"sim.mediation_ratio", "ratio", "kDirect wall time of the same shapes",
       "query_qps on wide_groupby"},
      {"net.rtt_p50_us", "us", "",
       "query_p99_ms and failed_ratio on dashboard_socket"},
      {"net.rtt_p99_us", "us", "",
       "query_p99_ms and failed_ratio on dashboard_socket"},
      {"net.bytes_per_query", "B", "",
       "query_p99_ms and failed_ratio on dashboard_socket"},
      {"net.frames_per_query", "count", "",
       "query_p99_ms and failed_ratio on dashboard_socket"},
      {"net.timeouts", "count", "",
       "query_p99_ms and failed_ratio on dashboard_socket"},
      {"net.rejected", "count", "",
       "query_p99_ms and failed_ratio on dashboard_socket"},
      {"node.queue_us", "us", "",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"node.scan_us", "us", "",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"node.merge_us", "us", "",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"node.tree_merge_us", "us", "",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"node.net_us", "us", "",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"node.handler_wait_us", "us", "",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"node.unaccounted_us", "us", "",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"node.explained_share", "ratio", "traced client wall time",
       "query_p50_ms and query_qps on dashboard_socket"},
      {"cache.partial_hit_ratio", "ratio", "partial-cache lookups",
       "query_p50_ms on cached_ingest"},
      {"cache.merged_hit_ratio", "ratio", "merged-cache lookups",
       "query_p50_ms on cached_ingest"},
      {"cache.invalidations_per_ingest", "count", "ingest batches",
       "query_p50_ms on cached_ingest"},
      {"cache.validation_failures", "count", "",
       "query_p50_ms on cached_ingest"},
      {"cache.evictions", "count", "",
       "query_p50_ms on cached_ingest; insert cost on wide_groupby"},
      {"admit.us_per_call", "us", "",
       "query_p99_ms and failed_ratio on cached_ingest"},
      {"admit.rejected_ratio", "ratio", "offered queries",
       "query_p99_ms and failed_ratio on cached_ingest"},
      {"admit.preemptions", "count", "",
       "query_p99_ms and failed_ratio on cached_ingest"},
      {"ingest.us_per_batch", "us", "",
       "ingest_rows_per_s on cached_ingest"},
      {"ingest.partitions_touched_per_batch", "count", "",
       "ingest_rows_per_s on cached_ingest"},
      {"ingest.insert_rows_per_s", "1/s", "",
       "ingest_rows_per_s on cached_ingest"},
      {"load.lag_p99_ms", "ms", "", "generator honesty on every workload"},
      {"load.lag_max_ms", "ms", "", "generator honesty on every workload"},
      {"load.backlog_end", "count", "", "generator honesty on every workload"},
      {"trace.overhead_ratio", "ratio", "untraced query_p50_ms",
       "tracing cost on every workload"},
  };
  return kMetrics;
}

const std::vector<EndToEndInfo>& EndToEndMetrics() {
  static const std::vector<EndToEndInfo> kMetrics = {
      {"setup_s", "s"},          {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"},    {"query_qps", "1/s"},
      {"ingest_rows_per_s", "1/s"}, {"rss_mb", "MB"},
  };
  return kMetrics;
}

void Report::Add(MetricValue metric) {
  for (const MetricValue& existing : metrics_) {
    if (existing.name == metric.name) {
      errors_.push_back("metric reported twice: " + metric.name);
      return;
    }
  }
  if (!std::isfinite(metric.value)) {
    errors_.push_back("metric is not finite: " + metric.name);
    metric.value = 0;
  }
  metrics_.push_back(std::move(metric));
}

void Report::EndToEnd(const std::string& name, double value, int64_t samples,
                      std::string note) {
  for (const EndToEndInfo& info : EndToEndMetrics()) {
    if (name == info.name) {
      Add(MetricValue{name, value, info.unit, samples, std::move(note)});
      return;
    }
  }
  errors_.push_back("unknown end-to-end metric: " + name);
}

void Report::Layer(const std::string& name, double value, int64_t samples,
                   std::string note) {
  for (const LayerMetricInfo& info : LayerMetrics()) {
    if (name != info.name) continue;
    std::string full = note;
    if (info.base[0] != '\0') {
      full += (full.empty() ? "" : "; ") + std::string("base: ") + info.base;
    }
    full += (full.empty() ? "" : "; ") + std::string("moves ") + info.moves;
    Add(MetricValue{name, value, info.unit, samples, std::move(full)});
    return;
  }
  errors_.push_back("unknown per-layer metric: " + name);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

bool Report::Emit() {
  if (traced_) {
    for (const LayerMetricInfo& info : LayerMetrics()) {
      bool seen = false;
      for (const MetricValue& m : metrics_) seen = seen || m.name == info.name;
      if (!seen) {
        Layer(info.name, 0.0, 0,
              "n/a: this workload does not exercise the layer");
      }
    }
  } else {
    for (const EndToEndInfo& info : EndToEndMetrics()) {
      bool seen = false;
      for (const MetricValue& m : metrics_) seen = seen || m.name == info.name;
      if (!seen) errors_.push_back(std::string("missing metric ") + info.name);
    }
  }
  std::printf("== %s metrics of %s ==\n", traced_ ? "per-layer" : "end-to-end",
              workload_.c_str());
  for (const MetricValue& m : metrics_) {
    std::printf("%-36s %14.6g %-6s n=%-8lld %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples),
                m.note.c_str());
  }
  // Not a BENCHMARK.json metric (it must be 0, and a bound on a share of
  // 0 means nothing); the result line carries attempted and failed.
  std::printf("%-36s %14.6g %-6s n=%-8lld erred, timed out, shed or wrong "
              "rows (%lld wrong)\n",
              "failed_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              "ratio", static_cast<long long>(attempted),
              static_cast<long long>(wrong_rows));
  for (const std::string& error : errors_) {
    std::printf("report error: %s\n", error.c_str());
  }
  std::string json = "{\"workload\": " + JsonString(workload_) +
                     ", \"traced\": " + (traced_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"wrong_rows\": " + std::to_string(wrong_rows) +
                     ", \"metrics\": [";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricValue& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += std::string(i > 0 ? ", " : "") + "{\"name\": " +
            JsonString(m.name) + ", \"value\": " + buf +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) +
            ", \"note\": " + JsonString(m.note) + "}";
  }
  json += "]}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return errors_.empty();
}

}  // namespace perfbench
