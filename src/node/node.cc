#include "node/node.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

#include "cubrick/net_service.h"
#include "cubrick/planner.h"
#include "cubrick/vec_scan.h"
#include "net/event_loop.h"

namespace scalewall::node {

namespace {

namespace cwire = cubrick::wire;

// Renders one FairShareTree snapshot as indented text: one line per
// pool, root first, children in name order (the snapshot's own
// deterministic pre-order).
std::string RenderPoolTree(const admit::FairShareTree& tree) {
  const std::vector<admit::FairShareTree::PoolSnapshot> pools =
      tree.Snapshot();
  std::string out = "pools: " + std::to_string(pools.size()) +
                    " preemptions_total=" + std::to_string(tree.preemptions()) +
                    "\n";
  char line[256];
  for (const admit::FairShareTree::PoolSnapshot& pool : pools) {
    std::snprintf(
        line, sizeof(line),
        "%*s%s w=%.2f min=%.2f max=%.2f fair_share=%.3f demand=%.1f "
        "running=%d admitted=%lld rejected=%lld completed=%lld "
        "preempted=%lld service_us=%lld scan_us=%lld\n",
        pool.depth * 2, "", pool.path.empty() ? "(root)" : pool.path.c_str(),
        pool.weight, pool.min_share, pool.max_share, pool.fair_share,
        pool.demand, pool.running, static_cast<long long>(pool.admitted),
        static_cast<long long>(pool.rejected),
        static_cast<long long>(pool.completed),
        static_cast<long long>(pool.preempted),
        static_cast<long long>(pool.service_micros),
        static_cast<long long>(pool.scan_micros));
    out += line;
  }
  return out;
}

// Admin routes shared by both roles. `sink`/`slow_log`/`pools` are null
// on servers (their traces are per-request and shipped to the proxy,
// and scan work is charged to the proxy's pool tree).
void InstallAdminRoutes(net::HttpAdminServer* admin,
                        obs::MetricsRegistry* metrics, const char* role,
                        const obs::TraceSink* sink,
                        obs::SlowQueryLog* slow_log,
                        const admit::FairShareTree* pools) {
  admin->AddRoute("/healthz", [role] {
    net::HttpResponse response;
    response.body = std::string("ok role=") + role + "\n";
    return response;
  });
  admin->AddRoute("/metrics", [metrics] {
    net::HttpResponse response;
    if (metrics == nullptr) {
      response.status = 503;
      response.body = "no metrics registry attached\n";
      return response;
    }
    response.content_type = "text/plain; version=0.0.4";
    response.body = metrics->ExportPrometheus();
    return response;
  });
  admin->AddRoute("/traces", [sink] {
    net::HttpResponse response;
    if (sink == nullptr) {
      response.body =
          "no retained traces: this role ships its spans to the proxy\n";
      return response;
    }
    const std::vector<uint64_t> ids = sink->TraceIds();
    std::string out = "retained traces: " + std::to_string(ids.size()) + "\n";
    for (uint64_t id : ids) {
      out += "--- trace " + std::to_string(id) +
             " spans=" + std::to_string(sink->NumSpans(id)) + " ---\n";
      out += sink->ExportTextTree(id);
    }
    response.body = std::move(out);
    return response;
  });
  admin->AddRoute("/pools", [pools] {
    net::HttpResponse response;
    if (pools == nullptr) {
      response.body =
          "no pool accounting: this role's work is charged to the "
          "proxy's pool tree\n";
      return response;
    }
    response.body = RenderPoolTree(*pools);
    return response;
  });
  if (slow_log != nullptr) {
    admin->AddRoute("/slowlog", [slow_log] {
      net::HttpResponse response;
      const std::vector<obs::QueryProfile> profiles = slow_log->Snapshot();
      std::string out =
          "slow queries (newest first): " + std::to_string(profiles.size()) +
          " captured_total=" + std::to_string(slow_log->captured_total()) +
          " evicted_total=" + std::to_string(slow_log->evicted_total()) + "\n";
      for (const obs::QueryProfile& profile : profiles) {
        out += "---\n" + profile.Text();
      }
      response.body = std::move(out);
      return response;
    });
  }
}

}  // namespace

namespace {

// Resolves the join inputs for `query` on a server: broadcast snapshots
// shipped in the envelope win; otherwise every join must reference the
// local "product_dim" replica. Returns null (no join context) for
// joinless queries. `snapshot_ctx`/`local_ctx` provide the storage and
// must outlive the returned pointer.
Result<const cubrick::JoinContext*> ResolveJoins(
    const cubrick::Query& query,
    const std::vector<cubrick::ReplicatedTable>& dims,
    const cubrick::ReplicatedTable& local_dim,
    cubrick::JoinContext* snapshot_ctx, cubrick::JoinContext* local_ctx) {
  if (query.joins.empty()) return static_cast<const cubrick::JoinContext*>(nullptr);
  if (!dims.empty()) {
    if (dims.size() != query.joins.size()) {
      return Status::InvalidArgument(
          "broadcast dim snapshots do not match the query's joins");
    }
    for (const cubrick::ReplicatedTable& t : dims) {
      snapshot_ctx->tables.push_back(&t);
    }
    return static_cast<const cubrick::JoinContext*>(snapshot_ctx);
  }
  for (const cubrick::Join& j : query.joins) {
    if (j.dimension_table != DatasetDimTable()) {
      return Status::NotFound("unknown dimension table " + j.dimension_table);
    }
    local_ctx->tables.push_back(&local_dim);
  }
  return static_cast<const cubrick::JoinContext*>(local_ctx);
}

}  // namespace

ServerCore::ServerCore(NodeOptions options, obs::MetricsRegistry* metrics,
                       net::Transport* transport)
    : options_(std::move(options)),
      transport_(transport),
      decode_errors_(metrics),
      dim_(BuildDimTable()) {
  if (metrics != nullptr) cubrick::ExportScanKernelInfo(*metrics);
}

Status ServerCore::LoadPartitions() {
  for (uint32_t p = 0; p < options_.dataset.num_partitions; ++p) {
    if (ServerForPartition(p, options_.num_servers) != options_.server_id) {
      continue;
    }
    auto part = BuildPartition(options_.dataset, p);
    SCALEWALL_RETURN_IF_ERROR(part.status());
    partitions_.emplace(p, std::move(part).value());
  }
  return Status::Ok();
}

Result<net::Message> ServerCore::Handle(const net::Message& request) {
  switch (request.type) {
    case net::FrameType::kSubqueryRequest: {
      auto envelope = cwire::DecodeSubqueryRequest(request.payload);
      if (!envelope.ok()) return envelope.status();
      if (envelope->query.table != DatasetTable()) {
        return Status::NotFound("unknown table " + envelope->query.table);
      }
      auto it = partitions_.find(envelope->partition);
      if (it == partitions_.end()) {
        return Status::NotFound(
            "partition " + std::to_string(envelope->partition) +
            " not hosted on server " + std::to_string(options_.server_id));
      }
      SCALEWALL_RETURN_IF_ERROR(
          envelope->query.Validate(it->second.schema()));
      cubrick::JoinContext snapshot_ctx, local_ctx;
      auto jctx = ResolveJoins(envelope->query, envelope->dims, dim_,
                               &snapshot_ctx, &local_ctx);
      SCALEWALL_RETURN_IF_ERROR(jctx.status());

      // Telemetry is advisory: a malformed trace-context block is
      // counted and dropped, and the subquery still runs untraced.
      net::TraceContextBlock tctx;
      const Status tstatus =
          net::DecodeTraceContext(envelope->telemetry, &tctx);
      if (!tstatus.ok()) decode_errors_.Bump(tstatus);

      // Per-request sink: this process's spans for this subquery only,
      // shipped back whole as a span batch and never retained here.
      obs::TraceSink request_sink;
      obs::TraceContext span;
      if (tctx.want_spans) {
        span = request_sink.StartTrace(
            "partition " + envelope->query.table + "/p" +
                std::to_string(envelope->partition),
            net::EventLoop::NowMicros());
        span.Annotate("server", "s" + std::to_string(options_.server_id));
      }

      cubrick::PartialResult partial;
      partial.result = cubrick::QueryResult(envelope->query.aggregations.size());
      SCALEWALL_RETURN_IF_ERROR(
          it->second.Execute(envelope->query, partial.result, *jctx));
      partial.epoch = it->second.epoch();

      std::string telemetry;
      if (tctx.want_spans) {
        span.Annotate("rows_scanned",
                      std::to_string(partial.result.rows_scanned));
        span.Annotate("bricks", std::to_string(partial.result.bricks_scanned));
        span.Annotate("rle_skipped",
                      std::to_string(partial.result.bricks_rle_skipped));
        span.End(net::EventLoop::NowMicros());
        telemetry = net::EncodeSpanBatch(request_sink.Spans(span.trace));
      }
      return net::Message{net::FrameType::kSubqueryResponse,
                          cwire::EncodeSubqueryResponse(partial, telemetry)};
    }
    case net::FrameType::kTreeMergeRequest: {
      auto envelope = cwire::DecodeTreeMergeRequest(request.payload);
      if (!envelope.ok()) return envelope.status();
      const cwire::TreeMergeEnvelope& env = *envelope;
      if (env.query.table != DatasetTable()) {
        return Status::NotFound("unknown table " + env.query.table);
      }
      SCALEWALL_RETURN_IF_ERROR(env.query.Validate(DatasetSchema()));
      cubrick::JoinContext snapshot_ctx, local_ctx;
      auto jctx =
          ResolveJoins(env.query, env.dims, dim_, &snapshot_ctx, &local_ctx);
      SCALEWALL_RETURN_IF_ERROR(jctx.status());

      const size_t n = env.partitions.size();
      cwire::TreeMergeResult merged;
      merged.result = cubrick::QueryResult(env.query.aggregations.size());
      merged.epochs.assign(n, 0);
      merged.forward_hops.assign(n, 0);

      // Recursive contiguous chunking by TreeChunkSize — the one
      // function every layer chunks with, so the tree shape (and the
      // fixed ascending fold order) is identical across processes.
      // Local leaves scan directly; remote leaves forward as
      // subqueries; multi-partition sub-chunks whose first partition
      // lives elsewhere forward as nested tree merges.
      std::function<Status(size_t, size_t)> run =
          [&](size_t lo, size_t hi) -> Status {
        const size_t chunk = static_cast<size_t>(cubrick::TreeChunkSize(
            static_cast<int>(hi - lo), env.fanin));
        for (size_t clo = lo; clo < hi; clo += chunk) {
          const size_t chi = std::min(hi, clo + chunk);
          if (chi - clo == 1) {
            const uint32_t p = env.partitions[clo];
            if (env.servers[clo] == options_.server_id) {
              auto it = partitions_.find(p);
              if (it == partitions_.end()) {
                return Status::NotFound(
                    "partition " + std::to_string(p) +
                    " not hosted on server " +
                    std::to_string(options_.server_id));
              }
              cubrick::QueryResult partial(env.query.aggregations.size());
              SCALEWALL_RETURN_IF_ERROR(
                  it->second.Execute(env.query, partial, *jctx));
              SCALEWALL_RETURN_IF_ERROR(merged.result.Merge(partial));
              merged.epochs[clo] = it->second.epoch();
            } else {
              if (transport_ == nullptr) {
                return Status::FailedPrecondition(
                    "tree merge (leaf) forwarding requires a transport");
              }
              cwire::SubqueryEnvelope sub;
              sub.query = env.query;
              sub.partition = p;
              sub.cache_policy = env.cache_policy;
              sub.scan_path = env.scan_path;
              sub.fingerprint = env.fingerprint;
              sub.remaining_budget = env.remaining_budget;
              sub.dims = env.dims;
              auto response = transport_->Call(
                  cubrick::NodePeerName(env.servers[clo]),
                  net::Message{net::FrameType::kSubqueryRequest,
                               cwire::EncodeSubqueryRequest(sub)},
                  {});
              if (!response.ok()) return response.status();
              if (response->type != net::FrameType::kSubqueryResponse) {
                return Status::Internal(
                    "unexpected frame type in subquery response: " +
                    std::string(net::FrameTypeName(response->type)));
              }
              auto partial = cwire::DecodeSubqueryResponse(response->payload);
              if (!partial.ok()) return partial.status();
              SCALEWALL_RETURN_IF_ERROR(merged.result.Merge(partial->result));
              merged.epochs[clo] = partial->epoch;
              merged.forward_hops[clo] = partial->forward_hops + 1;
            }
          } else if (env.servers[clo] == options_.server_id) {
            SCALEWALL_RETURN_IF_ERROR(run(clo, chi));
          } else {
            if (transport_ == nullptr) {
              return Status::FailedPrecondition(
                  "tree merge (subtree) forwarding requires a transport");
            }
            cwire::TreeMergeEnvelope sub = env;
            sub.partitions.assign(env.partitions.begin() + clo,
                                  env.partitions.begin() + chi);
            sub.servers.assign(env.servers.begin() + clo,
                               env.servers.begin() + chi);
            sub.telemetry.clear();
            auto response = transport_->Call(
                cubrick::NodePeerName(env.servers[clo]),
                net::Message{net::FrameType::kTreeMergeRequest,
                             cwire::EncodeTreeMergeRequest(sub)},
                {});
            if (!response.ok()) return response.status();
            if (response->type != net::FrameType::kTreeMergeResponse) {
              return Status::Internal(
                  "unexpected frame type in tree merge response: " +
                  std::string(net::FrameTypeName(response->type)));
            }
            auto subres = cwire::DecodeTreeMergeResponse(response->payload);
            if (!subres.ok()) return subres.status();
            if (subres->epochs.size() != chi - clo ||
                subres->forward_hops.size() != chi - clo) {
              return Status::Internal(
                  "tree merge response misaligned with request");
            }
            SCALEWALL_RETURN_IF_ERROR(merged.result.Merge(subres->result));
            for (size_t i = clo; i < chi; ++i) {
              merged.epochs[i] = subres->epochs[i - clo];
              merged.forward_hops[i] = subres->forward_hops[i - clo];
            }
          }
        }
        return Status::Ok();
      };
      SCALEWALL_RETURN_IF_ERROR(run(0, n));
      return net::Message{net::FrameType::kTreeMergeResponse,
                          cwire::EncodeTreeMergeResponse(merged)};
    }
    case net::FrameType::kShuffleMapRequest: {
      auto envelope = cwire::DecodeShuffleMapRequest(request.payload);
      if (!envelope.ok()) return envelope.status();
      cubrick::JoinContext jctx;
      for (const cubrick::Join& j : envelope->query.joins) {
        if (j.dimension_table != DatasetDimTable()) {
          return Status::NotFound("unknown dimension table " +
                                  j.dimension_table);
        }
        jctx.tables.push_back(&dim_);
      }
      auto mapped =
          cubrick::ApplyShuffleMapping(envelope->query, jctx, envelope->bucket);
      if (!mapped.ok()) return mapped.status();
      return net::Message{net::FrameType::kShuffleMapResponse,
                          cwire::EncodeShuffleMapResponse(*mapped)};
    }
    case net::FrameType::kEpochRequest: {
      auto probe = cwire::DecodeEpochRequest(request.payload);
      if (!probe.ok()) return probe.status();
      if (probe->table != DatasetTable()) {
        return Status::NotFound("unknown table " + probe->table);
      }
      std::vector<uint64_t> epochs(options_.dataset.num_partitions, 0);
      for (const auto& [p, part] : partitions_) epochs[p] = part.epoch();
      // Dim epochs append after the partition epochs — the layout the
      // merged-result cache validates join entries against.
      for (const std::string& d : probe->dims) {
        if (d != DatasetDimTable()) {
          return Status::NotFound("unknown dimension table " + d);
        }
        epochs.push_back(dim_.epoch());
      }
      return net::Message{net::FrameType::kEpochResponse,
                          cwire::EncodeEpochResponse(epochs)};
    }
    default:
      return Status::Unimplemented(
          "server node does not serve frame type " +
          std::string(net::FrameTypeName(request.type)));
  }
}

ProxyCore::ProxyCore(NodeOptions options, net::Transport* transport,
                     obs::MetricsRegistry* metrics)
    : options_(std::move(options)),
      transport_(transport),
      slow_log_(options_.slow_log),
      decode_errors_(metrics) {
  if (metrics != nullptr) {
    queries_ = metrics->GetCounter("scalewall_node_queries_total");
    query_latency_ms_ =
        metrics->GetHistogram("scalewall_node_query_latency_ms");
  }
}

Result<net::Message> ProxyCore::Handle(const net::Message& request) {
  if (request.type != net::FrameType::kClientQuery) {
    return Status::Unimplemented("proxy node does not serve frame type " +
                                 std::string(net::FrameTypeName(request.type)));
  }
  auto decoded = cwire::DecodeClientQuery(request.payload);
  if (!decoded.ok()) return decoded.status();
  const cubrick::QueryRequest& query_request = *decoded;
  const cubrick::Query& query = query_request.query;
  SCALEWALL_RETURN_IF_ERROR(query.Validate(DatasetSchema()));

  const int64_t start_micros = net::EventLoop::NowMicros();
  // Charge this query to its claim's pool: a running count for the
  // call's duration, wall latency on completion. Pure accounting — the
  // node proxy runs no admission, so nothing here can shed or reorder.
  const admit::FairShareTree::PoolId pool = pool_tree_.Resolve(
      query_request.claim.pool_path, query_request.claim.weight_hint);
  pool_tree_.OnAdmit(pool, 0);
  struct PoolRelease {
    admit::FairShareTree* tree;
    admit::FairShareTree::PoolId pool;
    ~PoolRelease() { tree->OnRelease(pool, 0); }
  } pool_release{&pool_tree_, pool};
  // The deadline converts to remaining budget *here*, at the hop's
  // serialization time: the client's absolute deadline never crosses a
  // clock domain (see cubrick/wire.h).
  const SimDuration budget = query_request.deadline > 0
                                 ? query_request.deadline
                                 : query.deadline;

  // Resolve the request's plan. The node proxy keeps no cost model, so
  // kAuto degrades to the seed strategy; joinless queries are always
  // kReplicated (there is nothing to broadcast or shuffle).
  for (const cubrick::Join& j : query.joins) {
    if (j.dimension_table != DatasetDimTable()) {
      return Status::NotFound("unknown dimension table " + j.dimension_table);
    }
  }
  cubrick::JoinStrategy strategy = query_request.join_strategy;
  if (query.joins.empty() || strategy == cubrick::JoinStrategy::kAuto) {
    strategy = cubrick::JoinStrategy::kReplicated;
  }
  const uint32_t num_partitions = options_.dataset.num_partitions;
  const int fanin = query_request.merge_fanin;
  const bool tree = fanin >= 2 && num_partitions > 1;

  // Root span of the stitched trace. Every annotation below is a pure
  // function of request + data — the canonical tree must come out
  // byte-identical whether this core runs over sim or real sockets.
  const bool traced = query_request.tracing || query_request.profile;
  obs::TraceContext root;
  if (traced) {
    root = sink_.StartTrace("query " + query.table, start_micros);
    if (!query_request.claim.pool_path.empty()) {
      root.Annotate("pool",
                    admit::NormalizePoolPath(query_request.claim.pool_path));
    }
    if (budget > 0) root.Annotate("deadline", std::to_string(budget));
    if (strategy != cubrick::JoinStrategy::kReplicated || tree) {
      // Non-seed plans only, so seed-path canonical traces (the ones
      // node_telemetry_test diffs against the sim) are unchanged.
      obs::TraceContext plan = root.Child("plan", start_micros);
      plan.Annotate("strategy",
                    std::string(cubrick::JoinStrategyName(strategy)));
      plan.Annotate("merge", tree ? "tree" : "flat");
      if (tree) {
        plan.Annotate("fanin", std::to_string(fanin));
        plan.Annotate("depth",
                      std::to_string(cubrick::TreeDepth(
                          static_cast<int>(num_partitions), fanin)));
      }
      plan.End(start_micros);
    }
  }

  // Broadcast ships one dim snapshot per join with every subquery;
  // shuffle scans stage 1 with joins stripped and raw keys appended.
  std::vector<cubrick::ReplicatedTable> dims;
  if (strategy == cubrick::JoinStrategy::kBroadcast) {
    for (size_t i = 0; i < query.joins.size(); ++i) {
      dims.push_back(BuildDimTable());
    }
  }
  const bool shuffle = strategy == cubrick::JoinStrategy::kShuffle;
  const cubrick::Query exec_query =
      shuffle ? cubrick::MakeShuffleScanQuery(query) : query;

  cubrick::QueryResult scanned(exec_query.aggregations.size());
  std::set<uint32_t> servers;
  SCALEWALL_RETURN_IF_ERROR(
      tree ? FanOutTree(query_request, exec_query, dims, fanin, budget,
                        &scanned, &servers)
           : FanOutFlat(query_request, exec_query, dims, budget,
                        traced ? &root : nullptr, start_micros, &scanned,
                        &servers));

  cubrick::QueryResult merged(query.aggregations.size());
  if (shuffle) {
    SCALEWALL_RETURN_IF_ERROR(ShuffleMap(query, scanned, &merged, &servers));
    // Scan counters come from stage 1 — the mapping carries none.
    merged.rows_scanned = scanned.rows_scanned;
    merged.bricks_scanned = scanned.bricks_scanned;
    merged.bricks_pruned = scanned.bricks_pruned;
    merged.bricks_rle_skipped = scanned.bricks_rle_skipped;
  } else {
    merged = std::move(scanned);
  }

  obs::TraceContext merge_span;
  if (traced) {
    merge_span = root.Child("merge", net::EventLoop::NowMicros());
  }
  cwire::ClientRowsEnvelope rows;
  rows.rows = cubrick::MaterializeRows(merged, query);
  rows.region = 0;
  rows.attempts = 1;
  rows.fanout = static_cast<int>(servers.size());
  rows.latency = net::EventLoop::NowMicros() - start_micros;
  pool_tree_.ChargeScanMicros(pool, rows.latency);
  if (traced) {
    merge_span.Annotate("rows", std::to_string(rows.rows.size()));
    merge_span.End(net::EventLoop::NowMicros());
    root.Annotate("status", "OK");
    root.Annotate("attempts", "1");
    root.Annotate("fanout", std::to_string(rows.fanout));
    root.End(net::EventLoop::NowMicros());

    obs::QueryProfile profile = BuildQueryProfile(sink_.Spans(root.trace));
    profile.trace_id = root.trace;
    slow_log_.MaybeCapture(profile);
    if (query_request.profile) {
      rows.profile_text = profile.Text();
      rows.trace_text = sink_.ExportTextTree(root.trace);
    }
  }
  ++queries_;
  query_latency_ms_.Add(static_cast<double>(rows.latency) / 1000.0);
  return net::Message{net::FrameType::kClientRows,
                      cwire::EncodeClientRows(rows)};
}

Status ProxyCore::FanOutFlat(const cubrick::QueryRequest& request,
                             const cubrick::Query& exec_query,
                             const std::vector<cubrick::ReplicatedTable>& dims,
                             SimDuration budget, obs::TraceContext* root,
                             int64_t start_micros,
                             cubrick::QueryResult* merged,
                             std::set<uint32_t>* servers) {
  // Fan out one subquery per partition, all in flight at once; the
  // handler worker blocks while the loop thread services the calls.
  const uint32_t num_partitions = options_.dataset.num_partitions;
  struct Fanout {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
    std::vector<std::optional<Result<net::Message>>> responses;
  };
  auto fanout = std::make_shared<Fanout>();
  fanout->remaining = num_partitions;
  fanout->responses.resize(num_partitions);
  std::vector<obs::TraceContext> sub_spans(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    cwire::SubqueryEnvelope envelope;
    envelope.query = exec_query;
    envelope.partition = p;
    envelope.cache_policy = request.cache_policy;
    envelope.scan_path = request.scan_path;
    envelope.remaining_budget = budget;
    envelope.dims = dims;
    const uint32_t server = ServerForPartition(p, options_.num_servers);
    servers->insert(server);
    if (root != nullptr) {
      sub_spans[p] =
          root->Child("subquery p" + std::to_string(p), start_micros);
      sub_spans[p].Annotate("server", cubrick::NodePeerName(server));
      net::TraceContextBlock tctx;
      tctx.want_spans = true;
      tctx.trace_id = root->trace;
      tctx.span_id = sub_spans[p].span;
      tctx.origin = "proxy";
      envelope.telemetry = net::EncodeTraceContext(tctx);
    }
    net::CallOptions call;
    call.timeout = budget;  // 0 = the transport's default timeout
    transport_->CallAsync(
        cubrick::NodePeerName(server),
        net::Message{net::FrameType::kSubqueryRequest,
                     cwire::EncodeSubqueryRequest(envelope)},
        call, [fanout, p](Result<net::Message> response) {
          std::lock_guard<std::mutex> lock(fanout->mu);
          fanout->responses[p] = std::move(response);
          if (--fanout->remaining == 0) fanout->cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(fanout->mu);
    fanout->cv.wait(lock, [&] { return fanout->remaining == 0; });
  }

  // Merge in ascending partition order — the coordinator's order, which
  // is what makes the merged states reproducible. Span batches are
  // grafted in the same pass (same deterministic order).
  for (uint32_t p = 0; p < num_partitions; ++p) {
    Result<net::Message>& response = *fanout->responses[p];
    if (!response.ok()) return response.status();
    if (response->type != net::FrameType::kSubqueryResponse) {
      return Status::Internal(
          "unexpected frame type in subquery response: " +
          std::string(net::FrameTypeName(response->type)));
    }
    std::string telemetry;
    auto partial = cwire::DecodeSubqueryResponse(response->payload, &telemetry);
    if (!partial.ok()) return partial.status();
    SCALEWALL_RETURN_IF_ERROR(merged->Merge(partial->result));
    if (root != nullptr) {
      std::vector<obs::SpanRecord> batch;
      const Status tstatus = net::DecodeSpanBatch(telemetry, &batch);
      if (!tstatus.ok()) {
        // Advisory: count, drop, keep the query (and the peer) alive.
        decode_errors_.Bump(tstatus);
      } else if (!batch.empty()) {
        sink_.Graft(sub_spans[p], batch);
      }
      sub_spans[p].End(net::EventLoop::NowMicros());
    }
  }
  return Status::Ok();
}

Status ProxyCore::FanOutTree(const cubrick::QueryRequest& request,
                             const cubrick::Query& exec_query,
                             const std::vector<cubrick::ReplicatedTable>& dims,
                             int fanin, SimDuration budget,
                             cubrick::QueryResult* merged,
                             std::set<uint32_t>* servers) {
  // Contiguous chunks by TreeChunkSize — identical to the shape every
  // aggregator recomputes, so the fold order is fixed cluster-wide.
  const uint32_t num_partitions = options_.dataset.num_partitions;
  const uint32_t chunk = static_cast<uint32_t>(cubrick::TreeChunkSize(
      static_cast<int>(num_partitions), fanin));
  struct Chunk {
    uint32_t lo;
    uint32_t hi;
    uint32_t server;
  };
  std::vector<Chunk> chunks;
  for (uint32_t lo = 0; lo < num_partitions; lo += chunk) {
    const uint32_t hi = std::min(num_partitions, lo + chunk);
    chunks.push_back({lo, hi, ServerForPartition(lo, options_.num_servers)});
  }

  struct Fanout {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
    std::vector<std::optional<Result<net::Message>>> responses;
  };
  auto fanout = std::make_shared<Fanout>();
  fanout->remaining = chunks.size();
  fanout->responses.resize(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) {
    const Chunk& ch = chunks[c];
    servers->insert(ch.server);
    net::Message message;
    if (ch.hi - ch.lo == 1) {
      // A single-partition chunk needs no aggregator hop.
      cwire::SubqueryEnvelope envelope;
      envelope.query = exec_query;
      envelope.partition = ch.lo;
      envelope.cache_policy = request.cache_policy;
      envelope.scan_path = request.scan_path;
      envelope.remaining_budget = budget;
      envelope.dims = dims;
      message = net::Message{net::FrameType::kSubqueryRequest,
                             cwire::EncodeSubqueryRequest(envelope)};
    } else {
      cwire::TreeMergeEnvelope envelope;
      envelope.query = exec_query;
      for (uint32_t p = ch.lo; p < ch.hi; ++p) {
        envelope.partitions.push_back(p);
        envelope.servers.push_back(
            ServerForPartition(p, options_.num_servers));
      }
      envelope.fanin = fanin;
      envelope.cache_policy = request.cache_policy;
      envelope.scan_path = request.scan_path;
      envelope.remaining_budget = budget;
      envelope.dims = dims;
      message = net::Message{net::FrameType::kTreeMergeRequest,
                             cwire::EncodeTreeMergeRequest(envelope)};
    }
    net::CallOptions call;
    call.timeout = budget;  // 0 = the transport's default timeout
    transport_->CallAsync(cubrick::NodePeerName(ch.server), message, call,
                          [fanout, c](Result<net::Message> response) {
                            std::lock_guard<std::mutex> lock(fanout->mu);
                            fanout->responses[c] = std::move(response);
                            if (--fanout->remaining == 0) {
                              fanout->cv.notify_all();
                            }
                          });
  }
  {
    std::unique_lock<std::mutex> lock(fanout->mu);
    fanout->cv.wait(lock, [&] { return fanout->remaining == 0; });
  }

  // Fold chunk results in ascending chunk order — each subtree folded
  // its own range ascending, so the overall contiguous order matches
  // the flat merge's.
  for (size_t c = 0; c < chunks.size(); ++c) {
    Result<net::Message>& response = *fanout->responses[c];
    if (!response.ok()) return response.status();
    if (chunks[c].hi - chunks[c].lo == 1) {
      if (response->type != net::FrameType::kSubqueryResponse) {
        return Status::Internal(
            "unexpected frame type in subquery response: " +
            std::string(net::FrameTypeName(response->type)));
      }
      auto partial = cwire::DecodeSubqueryResponse(response->payload);
      if (!partial.ok()) return partial.status();
      SCALEWALL_RETURN_IF_ERROR(merged->Merge(partial->result));
    } else {
      if (response->type != net::FrameType::kTreeMergeResponse) {
        return Status::Internal(
            "unexpected frame type in tree merge response: " +
            std::string(net::FrameTypeName(response->type)));
      }
      auto subres = cwire::DecodeTreeMergeResponse(response->payload);
      if (!subres.ok()) return subres.status();
      SCALEWALL_RETURN_IF_ERROR(merged->Merge(subres->result));
    }
  }
  return Status::Ok();
}

Status ProxyCore::ShuffleMap(const cubrick::Query& query,
                             const cubrick::QueryResult& scanned,
                             cubrick::QueryResult* mapped,
                             std::set<uint32_t>* servers) {
  // Stage 2: bucket the stage-1 groups by the FNV-1a hash of their raw
  // join keys. Bucket count clamps to the cluster size (more buckets
  // than servers buys nothing on the node path); bucket b maps on
  // server b % num_servers.
  const uint32_t num_servers = std::max(1u, options_.num_servers);
  const uint32_t num_buckets = std::min(8u, num_servers);
  const std::map<uint32_t, cubrick::QueryResult> buckets =
      cubrick::SplitShuffleBuckets(scanned, query.joins.size(), num_buckets);

  // Stage 3: map each bucket through a server's dim replicas and fold
  // the joined groups in ascending bucket order (deterministic: bucket
  // ids partition the key space).
  for (const auto& [b, bucket] : buckets) {
    const uint32_t server = b % num_servers;
    servers->insert(server);
    cwire::ShuffleMapEnvelope envelope;
    envelope.query = query;
    envelope.bucket = bucket;
    auto response = transport_->Call(
        cubrick::NodePeerName(server),
        net::Message{net::FrameType::kShuffleMapRequest,
                     cwire::EncodeShuffleMapRequest(envelope)},
        {});
    if (!response.ok()) return response.status();
    if (response->type != net::FrameType::kShuffleMapResponse) {
      return Status::Internal(
          "unexpected frame type in shuffle map response: " +
          std::string(net::FrameTypeName(response->type)));
    }
    auto joined = cwire::DecodeShuffleMapResponse(response->payload);
    if (!joined.ok()) return joined.status();
    SCALEWALL_RETURN_IF_ERROR(mapped->Merge(*joined));
  }
  return Status::Ok();
}

ServerNode::ServerNode(NodeOptions options, obs::MetricsRegistry* metrics)
    : metrics_(metrics),
      core_(options, metrics, &transport_),
      transport_(metrics, [&] {
        net::EpollTransportOptions t = options.transport;
        // Scans run on workers so a long brick scan never stalls the
        // socket loop — and tree aggregation blocks a worker on calls
        // to peer servers while their leaf subqueries need a free one
        // here, so keep a small pool rather than a single thread.
        t.handler_threads = std::max(4, t.handler_threads);
        return t;
      }()) {
  transport_.SetHandler(
      [this](const net::Message& request, const net::CallSideband&) {
        return core_.Handle(request);
      });
  // The listen address and peer map live in options; copy for Start.
  listen_ = options.listen;
  peer_addresses_ = options.peer_addresses;
}

ServerNode::~ServerNode() { Stop(); }

Status ServerNode::Start() {
  SCALEWALL_RETURN_IF_ERROR(core_.LoadPartitions());
  // Peer servers, for forwarding the remote leaves of a merge subtree.
  for (const auto& [name, address] : peer_addresses_) {
    transport_.MapPeer(name, address);
  }
  if (!transport_.Start()) return Status::Internal("event loop failed");
  return transport_.Listen(listen_);
}

void ServerNode::Stop() {
  if (admin_ != nullptr) admin_->Stop();
  transport_.Stop();
}

Status ServerNode::StartAdmin(const std::string& address) {
  admin_ = std::make_unique<net::HttpAdminServer>(transport_.loop());
  InstallAdminRoutes(admin_.get(), metrics_, "server", nullptr, nullptr,
                     nullptr);
  return admin_->Listen(address);
}

int ServerNode::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

ProxyNode::ProxyNode(NodeOptions options,
                     std::map<std::string, std::string> peer_addresses,
                     obs::MetricsRegistry* metrics)
    : metrics_(metrics),
      peer_addresses_(std::move(peer_addresses)),
      transport_(metrics, [&] {
        net::EpollTransportOptions t = options.transport;
        // The client-query handler blocks on its own fan-out calls; it
        // must run off the loop thread that services those calls.
        t.handler_threads = std::max(1, t.handler_threads);
        return t;
      }()),
      core_(options, &transport_, metrics) {
  transport_.SetHandler(
      [this](const net::Message& request, const net::CallSideband&) {
        return core_.Handle(request);
      });
  listen_ = options.listen;
}

ProxyNode::~ProxyNode() { Stop(); }

Status ProxyNode::Start() {
  for (const auto& [name, address] : peer_addresses_) {
    transport_.MapPeer(name, address);
  }
  if (!transport_.Start()) return Status::Internal("event loop failed");
  return transport_.Listen(listen_);
}

void ProxyNode::Stop() {
  if (admin_ != nullptr) admin_->Stop();
  transport_.Stop();
}

Status ProxyNode::StartAdmin(const std::string& address) {
  admin_ = std::make_unique<net::HttpAdminServer>(transport_.loop());
  InstallAdminRoutes(admin_.get(), metrics_, "proxy", &core_.trace_sink(),
                     &core_.slow_log(), &core_.pool_tree());
  return admin_->Listen(address);
}

int ProxyNode::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

Result<cubrick::wire::ClientRowsEnvelope> SubmitClientQuery(
    net::Transport& transport, const std::string& proxy,
    const cubrick::QueryRequest& request) {
  net::CallOptions options;
  options.timeout = request.deadline;  // 0 = transport default
  auto response = transport.Call(
      proxy,
      net::Message{net::FrameType::kClientQuery,
                   cwire::EncodeClientQuery(request)},
      options);
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kClientRows) {
    return Status::Internal("unexpected frame type in client response: " +
                            std::string(net::FrameTypeName(response->type)));
  }
  return cwire::DecodeClientRows(response->payload);
}

}  // namespace scalewall::node
