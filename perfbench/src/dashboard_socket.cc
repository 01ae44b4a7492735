// dashboard_socket: an in-process epoll cluster (1 ProxyNode, 2
// ServerNodes) serving the six small-result dashboard shapes over real
// sockets — first an open-loop Poisson stream at a fixed rate, timed
// from each request's due time, then a closed loop with 4 requests in
// flight.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "core/deployment.h"
#include "cubrick/wire.h"
#include "net/epoll_transport.h"
#include "node/node.h"

namespace perfbench {

namespace cwire = sw::cubrick::wire;

namespace {

constexpr uint64_t kRows = 400000;
constexpr uint32_t kPartitions = 16;
// Seeded instances per shape; enough that the mix's average cost varies
// little from seed to seed.
constexpr int kVariants = 16;
// Open-loop arrival rate: about a sixth of the mix's saturation rate on
// a 4-core host (600-800/s), so queues stay short and p99 reflects
// service time rather than overload even when neighbours on a shared
// host take CPU away (at 200/s such runs collapsed into timeouts).
constexpr double kRatePerSecond = 100.0;
constexpr int kClosedLoopInFlight = 4;
// Request deadline: a request not answered by then is a typed timeout
// (kDeadlineExceeded) and counts as failed at this latency.
constexpr int64_t kDeadlineMicros = 1'000'000;

struct Cluster {
  std::unique_ptr<sw::node::ServerNode> s0;
  std::unique_ptr<sw::node::ServerNode> s1;
  std::unique_ptr<sw::node::ProxyNode> proxy;
  std::unique_ptr<sw::net::EpollTransport> client;

  ~Cluster() {
    if (client) client->Stop();
    if (proxy) proxy->Stop();
    if (s0) s0->Stop();
    if (s1) s1->Stop();
  }
};

std::string Local(int port) { return "127.0.0.1:" + std::to_string(port); }

// Starts the cluster; `load_us` receives the servers' start time (both
// load their partitions concurrently, as two processes would).
std::unique_ptr<Cluster> StartCluster(const sw::node::DatasetOptions& dataset,
                                      int64_t* load_us) {
  auto c = std::make_unique<Cluster>();
  sw::node::NodeOptions options;
  options.num_servers = 2;
  options.dataset = dataset;
  options.server_id = 0;
  c->s0 = std::make_unique<sw::node::ServerNode>(options);
  options.server_id = 1;
  c->s1 = std::make_unique<sw::node::ServerNode>(options);
  const int64_t t0 = NowMicros();
  auto s1_started = std::async(std::launch::async, [&] { return c->s1->Start(); });
  sw::Status s0_status = c->s0->Start();
  sw::Status s1_status = s1_started.get();
  *load_us = NowMicros() - t0;
  if (!s0_status.ok() || !s1_status.ok()) {
    std::fprintf(stderr, "server start: %s %s\n", s0_status.ToString().c_str(),
                 s1_status.ToString().c_str());
    return nullptr;
  }
  // Tree merges forward remote leaves between servers.
  const std::map<std::string, std::string> peers = {
      {"s0", Local(c->s0->port())}, {"s1", Local(c->s1->port())}};
  for (const auto& [name, address] : peers) {
    c->s0->transport().MapPeer(name, address);
    c->s1->transport().MapPeer(name, address);
  }
  sw::node::NodeOptions proxy_options;
  proxy_options.num_servers = 2;
  proxy_options.dataset = dataset;
  c->proxy = std::make_unique<sw::node::ProxyNode>(proxy_options, peers);
  if (!c->proxy->Start().ok()) return nullptr;
  c->client = std::make_unique<sw::net::EpollTransport>();
  if (!c->client->Start()) return nullptr;
  c->client->MapPeer("proxy", Local(c->proxy->port()));
  return c;
}

sw::cubrick::QueryRequest MakeRequest(const Shaped& shape, bool profile) {
  sw::cubrick::QueryRequest request(shape.query);
  request.join_strategy = shape.join;
  request.merge_fanin = shape.merge_fanin;
  request.deadline = kDeadlineMicros;
  request.profile = profile;
  return request;
}

// Timing parts of the proxy's profile "time" line.
struct ProfileTimes {
  bool ok = false;
  int64_t total = 0, queue = 0, scan = 0, merge = 0, tree_merge = 0, net = 0;
};

ProfileTimes ParseProfileTimes(const std::string& text) {
  ProfileTimes t;
  const size_t at = text.find("time total_us=");
  if (at == std::string::npos) return t;
  const size_t eol = text.find('\n', at);
  const std::string line = text.substr(at, eol == std::string::npos
                                               ? std::string::npos
                                               : eol - at);
  auto field = [&](const char* key) -> int64_t {
    const size_t k = line.find(key);
    if (k == std::string::npos) return 0;
    return std::strtoll(line.c_str() + k + std::strlen(key), nullptr, 10);
  };
  t.total = field(" total_us=");
  t.queue = field(" queue_us=");
  t.scan = field(" scan_us=");
  t.merge = field(" merge_us=");
  t.tree_merge = field(" tree_merge_us=");
  t.net = field(" net_us=");
  t.ok = true;
  return t;
}

// Per-request outcome of the open loop, written by the completion
// callback on the client's event-loop thread.
struct Outcome {
  int64_t due = 0;
  int64_t encode_start = 0;
  int64_t sent = 0;
  int64_t done = 0;
  bool ok = false;
  bool wrong = false;
  bool timed_out = false;
  ProfileTimes profile;
};

struct OpenLoopResult {
  std::vector<Outcome> outcomes;
  std::vector<double> lag_ms;
  int64_t backlog_end = 0;
};

// Open loop at kRatePerSecond for `seconds`: Poisson arrivals and shape
// picks drawn from `rng`; each request is sent when due, whatever is in
// flight.
OpenLoopResult RunOpenLoop(Cluster& cluster, const std::vector<Shaped>& mix,
                           double seconds, sw::Rng& rng, bool profile,
                           SpanLog& spans) {
  struct Arrival {
    int64_t at;
    size_t pick;
  };
  std::vector<Arrival> arrivals;
  double at = 0;
  const double horizon = seconds * 1e6;
  while (true) {
    at += -std::log(1.0 - rng.NextDouble()) / kRatePerSecond * 1e6;
    if (at >= horizon) break;
    arrivals.push_back({static_cast<int64_t>(at), rng.NextBounded(mix.size())});
  }
  OpenLoopResult result;
  result.outcomes.resize(arrivals.size());
  std::atomic<int64_t> inflight{0};
  const int64_t start = NowMicros() + 2000;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Shaped& shape = mix[arrivals[i].pick];
    Outcome& out = result.outcomes[i];
    out.due = start + arrivals[i].at;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::microseconds(out.due)));
    const uint64_t trace = spans.NewTrace();
    out.encode_start = NowMicros();
    std::string payload = cwire::EncodeClientQuery(MakeRequest(shape, profile));
    out.sent = NowMicros();
    result.lag_ms.push_back((out.encode_start - out.due) / 1000.0);
    inflight.fetch_add(1);
    sw::net::CallOptions call;
    call.timeout = kDeadlineMicros;
    cluster.client->CallAsync(
        "proxy",
        sw::net::Message{sw::net::FrameType::kClientQuery, std::move(payload)},
        call,
        [&out, &shape, &inflight, &spans, trace](
            sw::Result<sw::net::Message> response) {
          const int64_t arrived = NowMicros();
          if (response.ok() &&
              response->type == sw::net::FrameType::kClientRows) {
            auto rows = cwire::DecodeClientRows(response->payload);
            if (rows.ok()) {
              out.ok = true;
              out.wrong = RowsDigest(rows->rows) != shape.digest;
              out.profile = ParseProfileTimes(rows->profile_text);
            }
          } else if (!response.ok() && response.status().code() ==
                                           sw::StatusCode::kDeadlineExceeded) {
            out.timed_out = true;
          }
          out.done = NowMicros();
          if (spans.enabled()) {
            const uint64_t root = spans.Add("client.query " + shape.shape, 0,
                                            trace, out.due, out.done);
            spans.Add("client.encode", root, trace, out.encode_start, out.sent);
            spans.Add("client.wait", root, trace, out.sent, arrived);
            spans.Add("client.decode_verify", root, trace, arrived, out.done);
          }
          inflight.fetch_sub(1);
        });
  }
  result.backlog_end = inflight.load();
  const int64_t give_up = NowMicros() + 2 * kDeadlineMicros;
  while (inflight.load() > 0 && NowMicros() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (inflight.load() > 0) {
    std::fprintf(stderr, "open loop: %lld requests never completed\n",
                 static_cast<long long>(inflight.load()));
    std::exit(1);  // callbacks still reference this frame
  }
  return result;
}

struct LoopTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  int64_t timeouts = 0;
};

LoopTally Tally(const OpenLoopResult& loop) {
  LoopTally t;
  for (const Outcome& o : loop.outcomes) {
    ++t.attempted;
    if (!o.ok || o.wrong) ++t.failed;
    if (o.wrong) ++t.wrong;
    if (o.timed_out) ++t.timeouts;
  }
  return t;
}

// Latencies from due time; a failed request counts at the deadline.
std::vector<double> LatenciesMs(const OpenLoopResult& loop) {
  std::vector<double> out;
  for (const Outcome& o : loop.outcomes) {
    out.push_back(o.ok && !o.wrong ? (o.done - o.due) / 1000.0
                                   : kDeadlineMicros / 1000.0);
  }
  return out;
}

// Closed loop: kClosedLoopInFlight threads, each waiting for its reply
// before sending the next request. Returns completed queries per second.
double RunClosedLoop(Cluster& cluster, const std::vector<Shaped>& mix,
                     double seconds, uint64_t seed, LoopTally* tally) {
  std::atomic<int64_t> completed{0}, attempted{0}, failed{0}, wrong{0};
  const int64_t start = NowMicros();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
  std::vector<std::thread> threads;
  for (int w = 0; w < kClosedLoopInFlight; ++w) {
    threads.emplace_back([&, w] {
      sw::Rng rng(sw::Rng(seed).Fork(0xC105ED + w).Next());
      while (NowMicros() < end) {
        const Shaped& shape = mix[rng.NextBounded(mix.size())];
        attempted.fetch_add(1);
        auto rows = sw::node::SubmitClientQuery(*cluster.client, "proxy",
                                                MakeRequest(shape, false));
        if (!rows.ok()) {
          failed.fetch_add(1);
        } else if (RowsDigest(rows->rows) != shape.digest) {
          failed.fetch_add(1);
          wrong.fetch_add(1);
        } else {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t wall = NowMicros() - start;
  tally->attempted = attempted.load();
  tally->failed = failed.load();
  tally->wrong = wrong.load();
  return completed.load() / (wall / 1e6);
}

struct NetTotals {
  int64_t frames = 0, bytes = 0, timeouts = 0, rejected = 0;
};

NetTotals SumNet(Cluster& c) {
  NetTotals t;
  for (sw::net::EpollTransport* tr :
       {&c.s0->transport(), &c.s1->transport(), &c.proxy->transport(),
        c.client.get()}) {
    const sw::net::TransportStats& s = tr->stats();
    t.frames += s.frames_out.value();
    t.bytes += s.bytes_out.value();
    t.timeouts += s.timeouts.value();
    t.rejected += s.rejected.value();
  }
  return t;
}

// The node layer split, from the proxy's stitched profiles of the traced
// requests (wall clock on sockets).
void ReportNodeLayers(const OpenLoopResult& traced, Report& report) {
  double queue = 0, scan = 0, merge = 0, tree = 0, net = 0, wait = 0,
         total = 0, client = 0;
  int64_t profiled = 0;
  for (const Outcome& o : traced.outcomes) {
    if (!o.ok || !o.profile.ok) continue;
    ++profiled;
    const double c = static_cast<double>(o.done - o.sent);
    client += c;
    total += o.profile.total;
    wait += c - o.profile.total;
    queue += o.profile.queue;
    scan += o.profile.scan;
    merge += o.profile.merge;
    tree += o.profile.tree_merge;
    net += o.profile.net;
  }
  const double p = static_cast<double>(std::max<int64_t>(1, profiled));
  const char* sums = "sum over parallel spans";
  report.Layer("node.queue_us", queue / p, profiled);
  report.Layer("node.scan_us", scan / p, profiled, sums);
  report.Layer("node.merge_us", merge / p, profiled);
  report.Layer("node.tree_merge_us", tree / p, profiled, sums);
  report.Layer("node.net_us", net / p, profiled, sums);
  report.Layer("node.handler_wait_us", wait / p, profiled,
               "client wait minus proxy root span");
  const double parts = queue + scan + merge + tree + net;
  report.Layer("node.unaccounted_us", (total - parts) / p, profiled,
               "proxy root span minus the parts (negative: parts overlap)");
  report.Layer("node.explained_share",
               client > 0 ? (wait + parts) / client : 0.0, profiled,
               "target >= 0.95, not gated");
}

void TallyInto(const LoopTally& t, Report& report) {
  report.attempted += t.attempted;
  report.failed += t.failed;
  report.wrong_rows += t.wrong;
}

// The dashboard mix with expected digests from `data`; `distinct` gets the
// first instance of each shape and `gate_rows` its reference rows.
bool BuildMix(LocalData& data, uint64_t seed, std::vector<Shaped>* mix,
              std::vector<const Shaped*>* distinct,
              std::vector<std::vector<sw::cubrick::ResultRow>>* gate_rows) {
  *mix = DashboardQueries(seed, kVariants);
  for (size_t i = 0; i < mix->size(); ++i) {
    Shaped& shape = (*mix)[i];
    auto merged = LocalMerged(data, shape.query);
    if (!merged.ok()) {
      std::fprintf(stderr, "reference: %s\n",
                   merged.status().ToString().c_str());
      return false;
    }
    auto rows = sw::cubrick::MaterializeRows(*merged, shape.query);
    shape.digest = RowsDigest(rows);
    if (i % kVariants == 0) {
      distinct->push_back(&shape);
      gate_rows->push_back(std::move(rows));
    }
  }
  return true;
}

}  // namespace

void RunNodeProbe(LocalData& data, uint64_t seed, double seconds,
                  SpanLog& spans, Report& report) {
  std::vector<Shaped> mix;
  std::vector<const Shaped*> distinct;
  std::vector<std::vector<sw::cubrick::ResultRow>> gate_rows;
  int64_t load_us = 0;
  std::unique_ptr<Cluster> cluster = StartCluster(data.dataset, &load_us);
  if (cluster == nullptr ||
      !BuildMix(data, seed, &mix, &distinct, &gate_rows)) {
    report.failed += 1;
    return;
  }
  sw::Rng rng(sw::Rng(seed).Fork(0x0DE5).Next());
  const OpenLoopResult traced =
      RunOpenLoop(*cluster, mix, seconds, rng, true, spans);
  TallyInto(Tally(traced), report);
  ReportNodeLayers(traced, report);
}

int RunDashboardSocket(const Options& options) {
  Report report("dashboard_socket", options.trace);
  SpanLog spans(options.trace);
  sw::node::DatasetOptions dataset;
  dataset.seed = options.seed;
  dataset.num_partitions = kPartitions;
  dataset.num_rows = kRows;

  // Set-up, repeated; the last cluster serves the run.
  std::vector<double> setup_s;
  std::vector<double> load_rate;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.reset();
    const int64_t t0 = NowMicros();
    int64_t load_us = 0;
    cluster = StartCluster(dataset, &load_us);
    if (cluster == nullptr) return 1;
    setup_s.push_back((NowMicros() - t0) / 1e6);
    load_rate.push_back(static_cast<double>(kRows) / (load_us / 1e6));
  }

  // Expected rows of every instance from the local reference copy; the
  // first instance of each shape is also checked against the oracle
  // node::ExecuteLocal and against the cluster, before timing.
  auto data = BuildLocalData(dataset);
  std::vector<Shaped> mix;
  std::vector<const Shaped*> distinct;
  std::vector<std::vector<sw::cubrick::ResultRow>> gate_rows;
  if (!BuildMix(*data, options.seed, &mix, &distinct, &gate_rows)) return 1;
  std::vector<std::future<sw::Status>> gates;
  for (size_t g = 0; g < distinct.size(); ++g) {
    gates.push_back(std::async(std::launch::async, [&, g] {
      return CheckAgainstOracle(dataset, distinct[g]->query, gate_rows[g]);
    }));
  }
  int64_t gate_failures = 0;
  for (size_t g = 0; g < gates.size(); ++g) {
    const Shaped& shape = *distinct[g];
    sw::Status status = gates[g].get();
    auto got = sw::node::SubmitClientQuery(*cluster->client, "proxy",
                                           MakeRequest(shape, false));
    if (status.ok() && !got.ok()) status = got.status();
    if (status.ok() && sw::node::FormatResultRows(got->rows) !=
                           sw::node::FormatResultRows(gate_rows[g])) {
      status = sw::Status::Internal("cluster rows differ from the oracle");
    }
    std::printf("gate %-18s %s\n", shape.shape.c_str(),
                status.ok() ? "byte-identical to node::ExecuteLocal"
                            : status.ToString().c_str());
    if (!status.ok()) ++gate_failures;
  }
  report.attempted += static_cast<int64_t>(distinct.size());
  report.failed += gate_failures;
  report.wrong_rows += gate_failures;

  sw::Rng rng(sw::Rng(options.seed).Fork(0x09E2).Next());
  if (!options.trace) {
    data.reset();
    MemorySampler memory;
    const OpenLoopResult open =
        RunOpenLoop(*cluster, mix, options.seconds * 0.7, rng, false, spans);
    LoopTally closed;
    const double qps = RunClosedLoop(*cluster, mix, options.seconds * 0.3,
                                     options.seed, &closed);
    TallyInto(Tally(open), report);
    TallyInto(closed, report);
    const std::vector<double> latency = LatenciesMs(open);
    std::string tail_note;
    const double p99 = P99WithNote(latency, &tail_note);
    report.EndToEnd("setup_s", Median(setup_s), kSetupRepeats,
                    "median of cluster start + partition load");
    report.EndToEnd("query_p50_ms", Median(latency),
                    static_cast<int64_t>(latency.size()),
                    "open loop at 100/s, timed from due time");
    report.EndToEnd("query_p99_ms", p99, static_cast<int64_t>(latency.size()),
                    tail_note + ", failures at the deadline");
    report.EndToEnd("query_qps", qps, closed.attempted,
                    "closed loop, 4 in flight");
    report.EndToEnd("ingest_rows_per_s", Median(load_rate), kSetupRepeats,
                    "bulk partition load at server start");
    report.EndToEnd("rss_mb", memory.PeakMb(), memory.samples(),
                    "peak heap in use while serving (mallinfo2)");
    std::string lag_note;
    const double lag_p99 = P99WithNote(open.lag_ms, &lag_note);
    double lag_max = 0;
    for (double l : open.lag_ms) lag_max = std::max(lag_max, l);
    std::printf("open loop: %zu requests, %lld timed out, generator lag p99 "
                "%.3f ms (%s), max %.3f ms, in flight when the schedule "
                "ended: %lld\n",
                open.outcomes.size(),
                static_cast<long long>(Tally(open).timeouts), lag_p99,
                lag_note.c_str(), lag_max,
                static_cast<long long>(open.backlog_end));
  } else {
    // Untraced then traced open loop of equal length; the ratio of their
    // medians is the tracing overhead.
    SpanLog untraced(false);
    const OpenLoopResult plain = RunOpenLoop(
        *cluster, mix, options.seconds * 0.25, rng, false, untraced);
    const NetTotals before = SumNet(*cluster);
    const OpenLoopResult traced =
        RunOpenLoop(*cluster, mix, options.seconds * 0.25, rng, true, spans);
    const NetTotals after = SumNet(*cluster);
    TallyInto(Tally(plain), report);
    TallyInto(Tally(traced), report);
    const double n = static_cast<double>(std::max<size_t>(1, traced.outcomes.size()));
    report.Layer("net.bytes_per_query", (after.bytes - before.bytes) / n,
                 static_cast<int64_t>(n), "all four transports, bytes out");
    report.Layer("net.frames_per_query", (after.frames - before.frames) / n,
                 static_cast<int64_t>(n));
    report.Layer("net.timeouts", static_cast<double>(after.timeouts),
                 static_cast<int64_t>(n), "whole run");
    report.Layer("net.rejected", static_cast<double>(after.rejected),
                 static_cast<int64_t>(n), "whole run");
    ReportNodeLayers(traced, report);
    const double p50_plain = Median(LatenciesMs(plain));
    const double p50_traced = Median(LatenciesMs(traced));
    report.Layer("trace.overhead_ratio", p50_traced / p50_plain,
                 static_cast<int64_t>(traced.outcomes.size()),
                 "traced = benchmark spans + request.profile");
    const TailPick lag = PickTail(traced.lag_ms, {99, 90, 50});
    double lag_max = 0;
    for (double l : traced.lag_ms) lag_max = std::max(lag_max, l);
    report.Layer("load.lag_p99_ms", lag.value,
                 static_cast<int64_t>(traced.lag_ms.size()));
    report.Layer("load.lag_max_ms", lag_max,
                 static_cast<int64_t>(traced.lag_ms.size()));
    report.Layer("load.backlog_end", static_cast<double>(traced.backlog_end), 1,
                 "requests in flight when the schedule ended");

    // Layer probes on this workload's partitions and shapes; the planner
    // needs a region context, from an in-process deployment (one region
    // of 16 servers, one per partition) holding the same rows.
    sw::core::DeploymentOptions dep_options;
    dep_options.topology.regions = 1;
    dep_options.topology.racks_per_region = 4;
    dep_options.topology.servers_per_rack = 4;
    dep_options.repartition_threshold_rows = 1u << 30;
    int64_t load_cpu_ns = 0;
    auto dep = StartDeployment(dep_options, *data, &load_cpu_ns);
    if (dep == nullptr) return 1;
    ProbeInputs in;
    in.data = data.get();
    in.shapes = distinct;
    in.region = &dep->region_context(0);
    in.seconds = options.seconds * 0.3;
    in.echo_seconds = options.seconds * 0.1;
    RunLayerProbes(in, spans, report);
    DumpSpans(spans, options.spans_path, 3);
  }
  return report.Emit() && report.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
