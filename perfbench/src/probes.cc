// Per-layer probes of the traced run: each layer's own public functions
// called on the workload's partitions, shapes, partials and rows, one
// span per call.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "admit/admit.h"
#include "bench.h"
#include "cubrick/wire.h"
#include "exec/morsel.h"
#include "exec/thread_pool.h"
#include "net/epoll_transport.h"

namespace perfbench {

namespace cwire = sw::cubrick::wire;
using sw::cubrick::QueryResult;

namespace {

// Folds `partials[lo, hi)` the way a k-ary merge tree does: ranges wider
// than `fanin` split into contiguous chunks of cubrick::TreeChunkSize,
// each folded recursively, and chunk results fold in ascending order.
QueryResult TreeFold(const std::vector<QueryResult>& partials, size_t lo,
                     size_t hi, int fanin, size_t num_aggs) {
  QueryResult merged(num_aggs);
  const size_t n = hi - lo;
  if (n <= static_cast<size_t>(fanin)) {
    for (size_t i = lo; i < hi; ++i) merged.Merge(partials[i]);
    return merged;
  }
  const size_t chunk = static_cast<size_t>(
      sw::cubrick::TreeChunkSize(static_cast<int>(n), fanin));
  for (size_t c = lo; c < hi; c += chunk) {
    merged.Merge(TreeFold(partials, c, std::min(hi, c + chunk), fanin,
                          num_aggs));
  }
  return merged;
}

struct Totals {
  int64_t queries = 0;
  int64_t serial_us = 0;
  int64_t parallel_us = 0;
  int64_t rows_scanned = 0;
  int64_t bricks_scanned = 0;
  int64_t bricks_rle_skipped = 0;
  int64_t morsels = 0;
  int64_t merge_us = 0;
  int64_t groups_merged = 0;
  int64_t materialize_us = 0;
  int64_t tree_queries = 0;
  int64_t tree_us = 0;
  int64_t plan_calls = 0;
  int64_t plan_us = 0;
  int64_t encode_us = 0;
  int64_t decode_us = 0;
  int64_t codec_bytes = 0;
  int64_t codec_frames = 0;
};

// EpollTransport echo at `payload_bytes`: net.rtt_p50_us / net.rtt_p99_us.
void RunEchoProbe(size_t payload_bytes, double seconds, SpanLog& spans,
                  Report& report) {
  sw::net::EpollTransport server;
  server.SetHandler([](const sw::net::Message& m,
                       const sw::net::CallSideband&)
                        -> sw::Result<sw::net::Message> {
    return sw::net::Message{sw::net::FrameType::kPong, m.payload};
  });
  if (!server.Start() || !server.Listen("127.0.0.1:0").ok()) {
    std::fprintf(stderr, "echo probe: server failed to start\n");
    report.failed += 1;
    return;
  }
  sw::net::EpollTransport client;
  client.Start();
  client.MapPeer("echo", "127.0.0.1:" + std::to_string(server.listen_port()));
  const std::string payload(std::max<size_t>(1, payload_bytes), 'x');
  std::vector<double> rtt;
  const uint64_t trace = spans.NewTrace();
  ScopedSpan root(spans, "probe net.echo", 0, trace);
  const int64_t deadline = NowMicros() + static_cast<int64_t>(seconds * 1e6);
  while (rtt.size() < 1000 || NowMicros() < deadline) {
    ScopedSpan span(spans, "net.echo_call", root.id(), trace);
    const int64_t t0 = NowMicros();
    auto response = client.Call(
        "echo",
        sw::net::Message{sw::net::FrameType::kSubqueryRequest, payload});
    if (!response.ok()) {
      report.failed += 1;
      break;
    }
    rtt.push_back(static_cast<double>(NowMicros() - t0));
    if (rtt.size() >= 200000) break;
  }
  client.Stop();
  server.Stop();
  const std::string note = "payload " + std::to_string(payload.size()) + " B";
  report.Layer("net.rtt_p50_us", Median(rtt),
               static_cast<int64_t>(rtt.size()), note);
  const TailPick tail = PickTail(rtt, {99});
  report.Layer("net.rtt_p99_us", tail.value, static_cast<int64_t>(rtt.size()),
               note + "; " + std::to_string(tail.beyond) + " beyond");
}

}  // namespace

void RunLayerProbes(const ProbeInputs& in, SpanLog& spans, Report& report) {
  Totals t;
  sw::exec::ThreadPool pool(4);
  std::vector<double> frame_bytes;
  std::vector<int64_t> groups_first_round;
  const int64_t deadline = NowMicros() + static_cast<int64_t>(in.seconds * 1e6);
  bool ok = true;
  for (int round = 0; ok && (round == 0 || NowMicros() < deadline); ++round) {
    for (const Shaped* shape : in.shapes) {
      const sw::cubrick::Query& query = shape->query;
      const size_t num_aggs = query.aggregations.size();
      const uint64_t trace = spans.NewTrace();
      ScopedSpan root(spans, "probe " + shape->shape, 0, trace);
      sw::cubrick::JoinContext join;
      for (size_t i = 0; i < query.joins.size(); ++i) {
        join.tables.push_back(&in.data->dim);
      }
      const sw::cubrick::JoinContext* jctx =
          query.joins.empty() ? nullptr : &join;

      if (in.region != nullptr) {
        ScopedSpan span(spans, "planner.plan", root.id(), trace);
        const int64_t t0 = NowMicros();
        sw::cubrick::ExecutionPlan plan = sw::cubrick::BuildExecutionPlan(
            *in.region, query, /*coordinator=*/0, shape->join,
            shape->merge_fanin);
        t.plan_us += NowMicros() - t0;
        ++t.plan_calls;
        ok = ok && plan.query.table == query.table;
      }

      std::vector<QueryResult> partials;
      partials.reserve(in.data->partitions.size());
      {
        ScopedSpan scan(spans, "scan.serial", root.id(), trace);
        for (sw::cubrick::TablePartition& part : in.data->partitions) {
          ScopedSpan span(spans, "scan.partition", scan.id(), trace);
          partials.emplace_back(num_aggs);
          const int64_t t0 = NowMicros();
          ok = ok && part.Execute(query, partials.back(), jctx).ok();
          t.serial_us += NowMicros() - t0;
          t.rows_scanned += partials.back().rows_scanned;
          t.bricks_scanned += partials.back().bricks_scanned;
          t.bricks_rle_skipped += partials.back().bricks_rle_skipped;
        }
      }
      {
        ScopedSpan scan(spans, "exec.parallel", root.id(), trace);
        sw::exec::MorselMetrics morsels;
        sw::exec::ExecOptions exec;
        exec.num_workers = 4;
        exec.pool = &pool;
        exec.morsel_metrics = &morsels;
        for (sw::cubrick::TablePartition& part : in.data->partitions) {
          ScopedSpan span(spans, "exec.partition", scan.id(), trace);
          QueryResult partial(num_aggs);
          const int64_t t0 = NowMicros();
          ok = ok && part.Execute(query, partial, jctx, &exec).ok();
          t.parallel_us += NowMicros() - t0;
        }
        t.morsels += morsels.executed;
      }
      QueryResult merged(num_aggs);
      {
        ScopedSpan span(spans, "merge.fold", root.id(), trace);
        const int64_t t0 = NowMicros();
        for (const QueryResult& partial : partials) {
          merged.Merge(partial);
          t.groups_merged += static_cast<int64_t>(partial.num_groups());
        }
        t.merge_us += NowMicros() - t0;
      }
      if (round == 0) {
        groups_first_round.push_back(static_cast<int64_t>(merged.num_groups()));
      }
      std::vector<sw::cubrick::ResultRow> rows;
      {
        ScopedSpan span(spans, "materialize", root.id(), trace);
        const int64_t t0 = NowMicros();
        rows = sw::cubrick::MaterializeRows(merged, query);
        t.materialize_us += NowMicros() - t0;
      }
      if (shape->merge_fanin >= 2) {
        ScopedSpan span(spans, "tree_merge.fold", root.id(), trace);
        const int64_t t0 = NowMicros();
        QueryResult tree = TreeFold(partials, 0, partials.size(),
                                    shape->merge_fanin, num_aggs);
        t.tree_us += NowMicros() - t0;
        ++t.tree_queries;
        ok = ok && tree.num_groups() == merged.num_groups();
      }
      {
        ScopedSpan codec(spans, "codec", root.id(), trace);
        {
          sw::cubrick::QueryRequest request(query);
          const int64_t t0 = NowMicros();
          const std::string frame = cwire::EncodeClientQuery(request);
          const int64_t t1 = NowMicros();
          ok = ok && cwire::DecodeClientQuery(frame).ok();
          t.encode_us += t1 - t0;
          t.decode_us += NowMicros() - t1;
          t.codec_bytes += static_cast<int64_t>(frame.size());
          ++t.codec_frames;
          frame_bytes.push_back(static_cast<double>(frame.size()));
        }
        for (size_t p = 0; p < partials.size(); ++p) {
          ScopedSpan span(spans, "codec.subquery", codec.id(), trace);
          cwire::SubqueryEnvelope envelope;
          envelope.query = query;
          envelope.partition = static_cast<uint32_t>(p);
          sw::cubrick::PartialResult partial;
          partial.result = partials[p];
          partial.epoch = in.data->partitions[p].epoch();
          const int64_t t0 = NowMicros();
          const std::string req = cwire::EncodeSubqueryRequest(envelope);
          const std::string resp = cwire::EncodeSubqueryResponse(partial);
          const int64_t t1 = NowMicros();
          ok = ok && cwire::DecodeSubqueryRequest(req).ok() &&
               cwire::DecodeSubqueryResponse(resp).ok();
          t.encode_us += t1 - t0;
          t.decode_us += NowMicros() - t1;
          t.codec_bytes += static_cast<int64_t>(req.size() + resp.size());
          t.codec_frames += 2;
          frame_bytes.push_back(static_cast<double>(req.size()));
          frame_bytes.push_back(static_cast<double>(resp.size()));
        }
        {
          ScopedSpan span(spans, "codec.client_rows", codec.id(), trace);
          cwire::ClientRowsEnvelope envelope;
          envelope.rows = rows;
          const int64_t t0 = NowMicros();
          const std::string frame = cwire::EncodeClientRows(envelope);
          const int64_t t1 = NowMicros();
          ok = ok && cwire::DecodeClientRows(frame).ok();
          t.encode_us += t1 - t0;
          t.decode_us += NowMicros() - t1;
          t.codec_bytes += static_cast<int64_t>(frame.size());
          ++t.codec_frames;
          frame_bytes.push_back(static_cast<double>(frame.size()));
        }
      }
      ++t.queries;
    }
  }
  const double q = static_cast<double>(std::max<int64_t>(1, t.queries));
  if (t.plan_calls > 0) {
    report.Layer("planner.plan_us",
                 static_cast<double>(t.plan_us) / t.plan_calls, t.plan_calls);
  }
  report.Layer("scan.rows_per_s",
               t.rows_scanned / (std::max<int64_t>(1, t.serial_us) / 1e6),
               t.queries, "serial TablePartition::Execute");
  report.Layer("scan.us_per_query", t.serial_us / q, t.queries,
               "serial, all partitions");
  report.Layer("scan.rle_skip_ratio",
               t.bricks_scanned > 0
                   ? static_cast<double>(t.bricks_rle_skipped) /
                         static_cast<double>(t.bricks_scanned)
                   : 0.0,
               t.bricks_scanned);
  report.Layer("exec.parallel_speedup",
               static_cast<double>(t.serial_us) /
                   static_cast<double>(std::max<int64_t>(1, t.parallel_us)),
               t.queries, "ExecOptions num_workers=4");
  report.Layer("exec.morsels_per_query", t.morsels / q, t.queries);
  report.Layer("merge.groups_per_s",
               t.groups_merged / (std::max<int64_t>(1, t.merge_us) / 1e6),
               t.queries, "QueryResult::Merge, ascending partitions");
  report.Layer("merge.us_per_query", t.merge_us / q, t.queries);
  report.Layer("materialize.us_per_query", t.materialize_us / q, t.queries);
  int64_t groups = 0;
  for (int64_t g : groups_first_round) groups += g;
  report.Layer("result.groups_per_query",
               static_cast<double>(groups) /
                   static_cast<double>(std::max<size_t>(
                       1, groups_first_round.size())),
               static_cast<int64_t>(groups_first_round.size()),
               "mean over one instance of each shape");
  if (t.tree_queries > 0) {
    report.Layer("tree_merge.us_per_query",
                 static_cast<double>(t.tree_us) / t.tree_queries,
                 t.tree_queries, "k-ary fold by cubrick::TreeChunkSize");
  }
  const double codec_mb = static_cast<double>(t.codec_bytes) / 1e6;
  report.Layer("codec.encode_mb_per_s",
               codec_mb / (std::max<int64_t>(1, t.encode_us) / 1e6),
               t.codec_frames);
  report.Layer("codec.decode_mb_per_s",
               codec_mb / (std::max<int64_t>(1, t.decode_us) / 1e6),
               t.codec_frames);
  report.Layer("codec.bytes_per_query", t.codec_bytes / q, t.queries,
               "client query + flat subquery round trips + client rows");
  report.Layer("codec.frames_per_query", t.codec_frames / q, t.queries);

  // Ingest: route rows to fresh partitions and insert them.
  {
    const uint64_t trace = spans.NewTrace();
    ScopedSpan root(spans, "probe ingest.insert", 0, trace);
    std::vector<sw::cubrick::TablePartition> fresh;
    fresh.reserve(in.data->partitions.size());
    for (uint32_t p = 0; p < in.data->partitions.size(); ++p) {
      fresh.emplace_back(sw::node::DatasetTable(), p, sw::node::DatasetSchema());
    }
    const size_t n = std::min<size_t>(in.data->rows.size(), 200000);
    const int64_t t0 = NowMicros();
    for (size_t i = 0; i < n; ++i) {
      const sw::cubrick::Row& row = in.data->rows[i];
      const uint32_t p = sw::node::PartitionForRow(
          sw::node::DatasetTable(), row,
          static_cast<uint32_t>(fresh.size()));
      ok = fresh[p].Insert(row).ok() && ok;
    }
    const int64_t elapsed = std::max<int64_t>(1, NowMicros() - t0);
    report.Layer("ingest.insert_rows_per_s",
                 static_cast<double>(n) / (elapsed / 1e6),
                 static_cast<int64_t>(n),
                 "node::PartitionForRow + TablePartition::Insert");
  }
  if (!ok) {
    std::fprintf(stderr, "layer probe: a layer call failed\n");
    report.failed += 1;
  }
  RunEchoProbe(static_cast<size_t>(Median(frame_bytes)), in.echo_seconds,
               spans, report);
}

void RunAdmitProbe(const std::vector<std::string>& pools, SpanLog& spans,
                   Report& report) {
  sw::admit::AdmitOptions options;
  for (const std::string& pool : pools) options.pools[pool] = {};
  sw::admit::AdmissionController controller(options);
  constexpr int kCalls = 20000;
  const uint64_t trace = spans.NewTrace();
  ScopedSpan root(spans, "probe admit", 0, trace);
  int64_t admitted = 0;
  const int64_t t0 = NowMicros();
  for (int i = 0; i < kCalls; ++i) {
    sw::admit::RequestInfo info;
    info.now = static_cast<sw::SimTime>(i) * sw::kMillisecond;
    info.pool_path = pools[static_cast<size_t>(i) % pools.size()];
    const sw::admit::Decision decision = controller.Admit(info);
    if (decision.admitted) {
      controller.OnComplete(decision.ticket, sw::kMillisecond / 2);
      ++admitted;
    }
  }
  const int64_t elapsed = NowMicros() - t0;
  report.Layer("admit.us_per_call", static_cast<double>(elapsed) / kCalls,
               kCalls,
               "Admit + OnComplete, " + std::to_string(admitted) + " admitted");
}

}  // namespace perfbench
