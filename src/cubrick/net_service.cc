#include "cubrick/net_service.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "cubrick/planner.h"
#include "net/event_loop.h"
#include "net/telemetry.h"

namespace scalewall::cubrick {

std::string NodePeerName(cluster::ServerId server) {
  return "s" + std::to_string(server);
}

std::string RegionPeerName(cluster::RegionId region) {
  return "r" + std::to_string(region);
}

namespace {

// Wire trace context (real-socket callers). Advisory: a malformed block
// is dropped and the request still runs. When the in-process side-band
// already carries the caller's trace — the sim backend, where both ends
// share one sink — spans record there directly and no batch is shipped:
// shipping one too would double-record the work.
struct RequestTrace {
  obs::TraceSink sink;
  obs::TraceContext trace;
  SimTime trace_time = -1;
  bool batching = false;

  RequestTrace(std::string_view telemetry, std::string_view root,
               const net::CallSideband& sideband) {
    net::TraceContextBlock tctx;
    (void)net::DecodeTraceContext(telemetry, &tctx);
    trace = sideband.trace;
    trace_time = sideband.trace_time;
    batching = tctx.want_spans && !trace.active();
    if (batching) {
      trace = sink.StartTrace(std::string(root), net::EventLoop::NowMicros());
      trace_time = net::EventLoop::NowMicros();
    }
  }

  std::string Finish() {
    if (!batching) return {};
    trace.End(net::EventLoop::NowMicros());
    return net::EncodeSpanBatch(sink.Spans(trace.trace));
  }
};

Result<net::Message> HandleSubquery(CubrickServer* server,
                                    cluster::ServerId server_id,
                                    const net::Message& request,
                                    const net::CallSideband& sideband) {
  auto envelope = wire::DecodeSubqueryRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  const std::string* fingerprint =
      envelope->fingerprint.empty() ? nullptr : &envelope->fingerprint;

  RequestTrace rtrace(envelope->telemetry, "host " + NodePeerName(server_id),
                      sideband);

  // Broadcast-join plans ship dim snapshots in the envelope; the scan
  // joins against those instead of the server's resident replicas.
  JoinContext snapshot_ctx;
  const JoinContext* dims_override = nullptr;
  if (!envelope->dims.empty()) {
    for (const ReplicatedTable& dim : envelope->dims) {
      snapshot_ctx.tables.push_back(&dim);
    }
    dims_override = &snapshot_ctx;
  }

  auto partial = server->ExecutePartial(
      envelope->query, envelope->partition, /*hop_budget=*/-1, sideband.cancel,
      rtrace.trace, rtrace.trace_time, envelope->cache_policy, fingerprint,
      envelope->scan_path, dims_override,
      envelope->pool_path.empty() ? nullptr : &envelope->pool_path);
  if (!partial.ok()) return partial.status();
  return net::Message{
      net::FrameType::kSubqueryResponse,
      wire::EncodeSubqueryResponse(*partial, rtrace.Finish())};
}

Result<net::Message> HandleTreeMerge(CubrickServer* server,
                                     cluster::ServerId server_id,
                                     RegionContext* ctx,
                                     const net::Message& request,
                                     const net::CallSideband& sideband) {
  auto envelope = wire::DecodeTreeMergeRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  const size_t num_leaves = envelope->partitions.size();
  const std::string* fingerprint =
      envelope->fingerprint.empty() ? nullptr : &envelope->fingerprint;

  RequestTrace rtrace(envelope->telemetry,
                      "aggregator " + NodePeerName(server_id), sideband);

  JoinContext snapshot_ctx;
  const JoinContext* dims_override = nullptr;
  if (!envelope->dims.empty()) {
    for (const ReplicatedTable& dim : envelope->dims) {
      snapshot_ctx.tables.push_back(&dim);
    }
    dims_override = &snapshot_ctx;
  }

  wire::TreeMergeResult merged;
  merged.result = QueryResult(envelope->query.aggregations.size());
  merged.epochs.assign(num_leaves, 0);
  merged.forward_hops.assign(num_leaves, 0);

  // Execute one leaf: locally when this aggregator hosts the partition,
  // as a forwarded subquery otherwise.
  auto leaf = [&](size_t i) -> Status {
    if (envelope->servers[i] == server_id) {
      auto partial = server->ExecutePartial(
          envelope->query, envelope->partitions[i], /*hop_budget=*/-1,
          sideband.cancel, rtrace.trace, rtrace.trace_time,
          envelope->cache_policy, fingerprint, envelope->scan_path,
          dims_override,
          envelope->pool_path.empty() ? nullptr : &envelope->pool_path);
      if (!partial.ok()) return partial.status();
      merged.epochs[i] = partial->epoch;
      merged.forward_hops[i] = partial->forward_hops;
      return merged.result.Merge(partial->result);
    }
    if (ctx == nullptr || ctx->transport == nullptr) {
      return Status::FailedPrecondition(
          "tree merge leaf forwarding requires a transport");
    }
    auto partial = CallSubquery(
        *ctx->transport, envelope->servers[i], envelope->query,
        envelope->partitions[i], envelope->remaining_budget,
        envelope->cache_policy, envelope->scan_path, fingerprint,
        sideband.cancel, rtrace.trace, rtrace.trace_time,
        envelope->dims.empty() ? nullptr : &envelope->dims,
        envelope->pool_path.empty() ? nullptr : &envelope->pool_path);
    if (!partial.ok()) return partial.status();
    merged.epochs[i] = partial->epoch;
    merged.forward_hops[i] = partial->forward_hops;
    return merged.result.Merge(partial->result);
  };

  // Recursive subtree walk over [lo, hi): chunks with the shared
  // TreeChunkSize so the shape — and hence the ascending fold order —
  // matches the coordinator's modeled tree exactly. A sub-chunk whose
  // aggregator is this server recurses locally; any other sub-chunk is
  // forwarded as a nested tree-merge call.
  std::function<Status(size_t, size_t)> run = [&](size_t lo,
                                                  size_t hi) -> Status {
    if (hi - lo == 1) return leaf(lo);
    const size_t chunk = static_cast<size_t>(
        TreeChunkSize(static_cast<int>(hi - lo), envelope->fanin));
    for (size_t clo = lo; clo < hi; clo += chunk) {
      const size_t chi = std::min(clo + chunk, hi);
      if (chi - clo == 1) {
        Status st = leaf(clo);
        if (!st.ok()) return st;
      } else if (envelope->servers[clo] == server_id) {
        Status st = run(clo, chi);
        if (!st.ok()) return st;
      } else {
        if (ctx == nullptr || ctx->transport == nullptr) {
          return Status::FailedPrecondition(
              "tree merge forwarding requires a transport");
        }
        wire::TreeMergeEnvelope sub;
        sub.query = envelope->query;
        sub.partitions.assign(envelope->partitions.begin() + clo,
                              envelope->partitions.begin() + chi);
        sub.servers.assign(envelope->servers.begin() + clo,
                           envelope->servers.begin() + chi);
        sub.fanin = envelope->fanin;
        sub.cache_policy = envelope->cache_policy;
        sub.scan_path = envelope->scan_path;
        sub.fingerprint = envelope->fingerprint;
        sub.remaining_budget = envelope->remaining_budget;
        sub.pool_path = envelope->pool_path;
        sub.dims = envelope->dims;
        auto subtree =
            CallTreeMerge(*ctx->transport, envelope->servers[clo], sub,
                          sideband.cancel, rtrace.trace, rtrace.trace_time);
        if (!subtree.ok()) return subtree.status();
        if (subtree->epochs.size() != chi - clo ||
            subtree->forward_hops.size() != chi - clo) {
          return Status::Internal(
              "tree merge response misaligned with request");
        }
        for (size_t i = clo; i < chi; ++i) {
          merged.epochs[i] = subtree->epochs[i - clo];
          merged.forward_hops[i] = subtree->forward_hops[i - clo];
        }
        SCALEWALL_RETURN_IF_ERROR(merged.result.Merge(subtree->result));
      }
    }
    return Status::Ok();
  };
  Status st = run(0, num_leaves);
  if (!st.ok()) return st;
  return net::Message{
      net::FrameType::kTreeMergeResponse,
      wire::EncodeTreeMergeResponse(merged, rtrace.Finish())};
}

Result<net::Message> HandleShuffleMap(CubrickServer* server,
                                      const net::Message& request) {
  auto envelope = wire::DecodeShuffleMapRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  auto mapped = server->MapShuffleGroups(envelope->query, envelope->bucket);
  if (!mapped.ok()) return mapped.status();
  return net::Message{net::FrameType::kShuffleMapResponse,
                      wire::EncodeShuffleMapResponse(*mapped)};
}

Result<net::Message> HandleCoordinate(cluster::ServerId server_id,
                                      RegionContext* ctx,
                                      const net::Message& request,
                                      const net::CallSideband& sideband) {
  auto envelope = wire::DecodeCoordinateRequest(request.payload);
  if (!envelope.ok()) return envelope.status();
  auto* coordinate = static_cast<CoordinateSideband*>(sideband.cookie);
  if (coordinate == nullptr || coordinate->rng == nullptr) {
    // Over real sockets there is no shared RNG stream; node deployments
    // fan subqueries out from the proxy role instead of delegating a
    // whole coordinated attempt.
    return Status::FailedPrecondition(
        "coordinate calls require the in-process RNG side-band");
  }
  ExecutionPlan plan =
      BuildExecutionPlan(*ctx, envelope->query, server_id,
                         envelope->join_strategy, envelope->merge_fanin);
  ExecContext ectx;
  ectx.region = ctx;
  ectx.rng = coordinate->rng;
  ectx.deadline_budget = envelope->remaining_budget;
  ectx.trace = sideband.trace;
  ectx.dispatch_time = envelope->dispatch_time;
  ectx.cache_policy = envelope->cache_policy;
  ectx.fingerprint =
      envelope->fingerprint.empty() ? nullptr : &envelope->fingerprint;
  ectx.scan_path = envelope->scan_path;
  ectx.pool_path = envelope->pool_path;
  ectx.cancel = sideband.cancel;
  DistributedOutcome outcome = ExecuteDistributed(plan, ectx);
  return net::Message{net::FrameType::kCoordinateResponse,
                      wire::EncodeCoordinateResponse(outcome)};
}

Result<net::Message> HandleEpochs(RegionContext* ctx,
                                  const net::Message& request) {
  auto probe = wire::DecodeEpochRequest(request.payload);
  if (!probe.ok()) return probe.status();
  auto epochs = CollectPartitionEpochs(*ctx, probe->table, probe->dims);
  if (!epochs.ok()) return epochs.status();
  return net::Message{net::FrameType::kEpochResponse,
                      wire::EncodeEpochResponse(*epochs)};
}

}  // namespace

net::Handler MakeServerNodeHandler(CubrickServer* server,
                                   cluster::ServerId server_id,
                                   RegionContext* ctx) {
  return [server, server_id, ctx](
             const net::Message& request,
             const net::CallSideband& sideband) -> Result<net::Message> {
    switch (request.type) {
      case net::FrameType::kSubqueryRequest:
        return HandleSubquery(server, server_id, request, sideband);
      case net::FrameType::kTreeMergeRequest:
        return HandleTreeMerge(server, server_id, ctx, request, sideband);
      case net::FrameType::kShuffleMapRequest:
        return HandleShuffleMap(server, request);
      case net::FrameType::kCoordinateRequest:
        return HandleCoordinate(server_id, ctx, request, sideband);
      case net::FrameType::kEpochRequest:
        return HandleEpochs(ctx, request);
      default:
        return Status::Unimplemented(
            "server node does not serve frame type " +
            std::string(net::FrameTypeName(request.type)));
    }
  };
}

net::Handler MakeRegionNodeHandler(RegionContext* ctx) {
  return [ctx](const net::Message& request,
               const net::CallSideband& sideband) -> Result<net::Message> {
    (void)sideband;
    if (request.type != net::FrameType::kEpochRequest) {
      return Status::Unimplemented(
          "region node does not serve frame type " +
          std::string(net::FrameTypeName(request.type)));
    }
    return HandleEpochs(ctx, request);
  };
}

Result<PartialResult> CallSubquery(
    net::Transport& transport, cluster::ServerId server, const Query& query,
    uint32_t partition, SimDuration remaining_budget,
    cache::CachePolicy cache_policy, exec::ScanPath scan_path,
    const std::string* fingerprint, const exec::CancelToken* cancel,
    obs::TraceContext trace, SimTime trace_time,
    const std::vector<ReplicatedTable>* dims, const std::string* pool) {
  wire::SubqueryEnvelope envelope;
  envelope.query = query;
  envelope.partition = partition;
  envelope.cache_policy = cache_policy;
  envelope.scan_path = scan_path;
  if (fingerprint != nullptr) envelope.fingerprint = *fingerprint;
  envelope.remaining_budget = remaining_budget;
  if (pool != nullptr) envelope.pool_path = *pool;
  if (dims != nullptr) envelope.dims = *dims;

  net::CallOptions options;
  options.sideband.cancel = cancel;
  options.sideband.trace = trace;
  options.sideband.trace_time = trace_time;
  auto response = transport.Call(
      NodePeerName(server),
      net::Message{net::FrameType::kSubqueryRequest,
                   wire::EncodeSubqueryRequest(envelope)},
      options);
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kSubqueryResponse) {
    return Status::Internal("unexpected frame type in subquery response: " +
                            std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeSubqueryResponse(response->payload);
}

Result<wire::TreeMergeResult> CallTreeMerge(
    net::Transport& transport, cluster::ServerId aggregator,
    const wire::TreeMergeEnvelope& envelope, const exec::CancelToken* cancel,
    obs::TraceContext trace, SimTime trace_time) {
  net::CallOptions options;
  options.sideband.cancel = cancel;
  options.sideband.trace = trace;
  options.sideband.trace_time = trace_time;
  auto response = transport.Call(
      NodePeerName(aggregator),
      net::Message{net::FrameType::kTreeMergeRequest,
                   wire::EncodeTreeMergeRequest(envelope)},
      options);
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kTreeMergeResponse) {
    return Status::Internal(
        "unexpected frame type in tree merge response: " +
        std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeTreeMergeResponse(response->payload);
}

Result<QueryResult> CallShuffleMap(net::Transport& transport,
                                   cluster::ServerId server,
                                   const Query& query,
                                   const QueryResult& bucket,
                                   obs::TraceContext trace,
                                   SimTime trace_time) {
  wire::ShuffleMapEnvelope envelope;
  envelope.query = query;
  envelope.bucket = bucket;

  net::CallOptions options;
  options.sideband.trace = trace;
  options.sideband.trace_time = trace_time;
  auto response = transport.Call(
      NodePeerName(server),
      net::Message{net::FrameType::kShuffleMapRequest,
                   wire::EncodeShuffleMapRequest(envelope)},
      options);
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kShuffleMapResponse) {
    return Status::Internal(
        "unexpected frame type in shuffle map response: " +
        std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeShuffleMapResponse(response->payload);
}

DistributedOutcome CallCoordinate(
    net::Transport& transport, cluster::ServerId coordinator,
    const Query& query, SimDuration remaining_budget,
    cache::CachePolicy cache_policy, exec::ScanPath scan_path,
    const std::string* fingerprint, SimTime dispatch_time, Rng& rng,
    obs::TraceContext trace, JoinStrategy join_strategy, int merge_fanin,
    const std::string* pool, const exec::CancelToken* cancel) {
  wire::CoordinateEnvelope envelope;
  envelope.query = query;
  envelope.cache_policy = cache_policy;
  envelope.scan_path = scan_path;
  if (fingerprint != nullptr) envelope.fingerprint = *fingerprint;
  envelope.remaining_budget = remaining_budget;
  envelope.dispatch_time = dispatch_time;
  envelope.join_strategy = join_strategy;
  envelope.merge_fanin = merge_fanin;
  if (pool != nullptr) envelope.pool_path = *pool;

  CoordinateSideband coordinate{&rng};
  net::CallOptions options;
  options.sideband.cancel = cancel;
  options.sideband.trace = trace;
  options.sideband.trace_time = dispatch_time;
  options.sideband.cookie = &coordinate;
  auto response = transport.Call(
      NodePeerName(coordinator),
      net::Message{net::FrameType::kCoordinateRequest,
                   wire::EncodeCoordinateRequest(envelope)},
      options);
  DistributedOutcome outcome;
  if (!response.ok()) {
    outcome.status = response.status();
    return outcome;
  }
  if (response->type != net::FrameType::kCoordinateResponse) {
    outcome.status =
        Status::Internal("unexpected frame type in coordinate response: " +
                         std::string(net::FrameTypeName(response->type)));
    return outcome;
  }
  auto decoded = wire::DecodeCoordinateResponse(response->payload);
  if (!decoded.ok()) {
    outcome.status = decoded.status();
    return outcome;
  }
  return std::move(decoded).value();
}

Result<std::vector<uint64_t>> CallEpochs(net::Transport& transport,
                                         cluster::RegionId region,
                                         const std::string& table,
                                         const std::vector<std::string>& dims) {
  wire::EpochProbe probe;
  probe.table = table;
  probe.dims = dims;
  auto response = transport.Call(
      RegionPeerName(region),
      net::Message{net::FrameType::kEpochRequest,
                   wire::EncodeEpochRequest(probe)});
  if (!response.ok()) return response.status();
  if (response->type != net::FrameType::kEpochResponse) {
    return Status::Internal("unexpected frame type in epoch response: " +
                            std::string(net::FrameTypeName(response->type)));
  }
  return wire::DecodeEpochResponse(response->payload);
}

}  // namespace scalewall::cubrick
