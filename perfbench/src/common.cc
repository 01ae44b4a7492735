#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/random.h"

namespace perfbench {

using sw::cubrick::AggOp;
using sw::cubrick::JoinStrategy;
using sw::cubrick::Query;

std::unique_ptr<LocalData> BuildLocalData(
    const sw::node::DatasetOptions& dataset) {
  auto data = std::make_unique<LocalData>();
  data->dataset = dataset;
  data->rows = sw::node::GenerateRows(dataset);
  data->partitions.reserve(dataset.num_partitions);
  for (uint32_t p = 0; p < dataset.num_partitions; ++p) {
    data->partitions.emplace_back(sw::node::DatasetTable(), p,
                                  sw::node::DatasetSchema());
  }
  for (const sw::cubrick::Row& row : data->rows) {
    const uint32_t p = sw::node::PartitionForRow(sw::node::DatasetTable(), row,
                                                 dataset.num_partitions);
    sw::Status status = data->partitions[p].Insert(row);
    if (!status.ok()) {
      std::fprintf(stderr, "insert: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  return data;
}

sw::Result<sw::cubrick::QueryResult> LocalMerged(LocalData& data,
                                                 const Query& query) {
  sw::cubrick::JoinContext join;
  for (size_t i = 0; i < query.joins.size(); ++i) {
    join.tables.push_back(&data.dim);
  }
  const sw::cubrick::JoinContext* jctx =
      query.joins.empty() ? nullptr : &join;
  sw::cubrick::QueryResult merged(query.aggregations.size());
  for (sw::cubrick::TablePartition& part : data.partitions) {
    sw::cubrick::QueryResult partial(query.aggregations.size());
    SCALEWALL_RETURN_IF_ERROR(part.Execute(query, partial, jctx));
    merged.Merge(partial);
  }
  return merged;
}

sw::Status CheckAgainstOracle(const sw::node::DatasetOptions& dataset,
                              const Query& query,
                              const std::vector<sw::cubrick::ResultRow>& got) {
  auto oracle = sw::node::ExecuteLocal(dataset, query);
  if (!oracle.ok()) return oracle.status();
  if (sw::node::FormatResultRows(*oracle) != sw::node::FormatResultRows(got)) {
    return sw::Status::Internal("rows differ from node::ExecuteLocal");
  }
  return sw::Status::Ok();
}

namespace {

// Dataset dimensions and metrics (node::DatasetSchema).
constexpr int kDay = 0;      // cardinality 32
constexpr int kRegion = 1;   // cardinality 8
constexpr int kProduct = 2;  // cardinality 64
constexpr int kSpend = 0;
constexpr int kClicks = 1;

Shaped NewShape(std::string name) {
  Shaped s;
  s.shape = std::move(name);
  s.query.table = sw::node::DatasetTable();
  return s;
}

// A seeded position for a `width`-wide range filter on `dim`.
sw::cubrick::FilterRange Window(sw::Rng& rng, int dim, uint32_t card,
                                uint32_t width) {
  const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(card - width + 1));
  return {dim, lo, lo + width - 1};
}

sw::cubrick::FilterIn InList(sw::Rng& rng, int dim, uint32_t card, int n) {
  sw::cubrick::FilterIn in{dim, {}};
  for (int i = 0; i < n; ++i) {
    in.values.push_back(static_cast<uint32_t>(rng.NextBounded(card)));
  }
  return in;
}

sw::cubrick::Join ProductDim() {
  return {kProduct, sw::node::DatasetDimTable(), /*attribute=*/0};
}

// Tree merges and shuffle joins fold partials in another association
// than the flat merge, so floating-point sums could differ in the last
// bit; their shapes aggregate exactly (integral sums, counts, max).
std::vector<sw::cubrick::Aggregation> ExactAggs() {
  return {{kClicks, AggOp::kSum}, {0, AggOp::kCount}, {kSpend, AggOp::kMax}};
}

}  // namespace

std::vector<Shaped> DashboardQueries(uint64_t seed, int variants) {
  sw::Rng rng(sw::Rng(seed).Fork(0xDA5B).Next());
  std::vector<Shaped> out;
  for (uint32_t v = 0; v < static_cast<uint32_t>(variants); ++v) {
    Shaped s = NewShape("filtered_groupby");
    s.query.filters = {Window(rng, kDay, 32, 4 + v % 13),
                       Window(rng, kProduct, 64, 8 + (3 * v) % 25)};
    s.query.group_by = {kRegion};
    s.query.aggregations = {{kSpend, AggOp::kSum}, {0, AggOp::kCount}};
    out.push_back(std::move(s));
  }
  for (uint32_t v = 0; v < static_cast<uint32_t>(variants); ++v) {
    Shaped s = NewShape("topk");
    s.query.filters = {Window(rng, kRegion, 8, 2 + v % 5)};
    s.query.group_by = {kProduct};
    s.query.aggregations = {{kSpend, AggOp::kSum}};
    s.query.order_by = 0;
    s.query.limit = 10;
    out.push_back(std::move(s));
  }
  for (int v = 0; v < variants; ++v) {
    Shaped s = NewShape("in_list");
    s.query.in_filters = {InList(rng, kProduct, 64, 6)};
    s.query.group_by = {kDay};
    s.query.aggregations = {{kClicks, AggOp::kSum}, {kSpend, AggOp::kMax}};
    out.push_back(std::move(s));
  }
  for (uint32_t v = 0; v < static_cast<uint32_t>(variants); ++v) {
    Shaped s = NewShape("tree_merge");
    s.query.filters = {Window(rng, kProduct, 64, 8 + v % 17)};
    s.query.group_by = {kDay, kRegion};
    s.query.aggregations = ExactAggs();
    s.merge_fanin = 4;
    out.push_back(std::move(s));
  }
  for (uint32_t v = 0; v < static_cast<uint32_t>(variants); ++v) {
    Shaped s = NewShape("replicated_join");
    s.query.filters = {Window(rng, kDay, 32, 4 + v % 13)};
    s.query.joins = {ProductDim()};
    s.query.group_by_joins = {0};
    s.query.aggregations = {{kSpend, AggOp::kSum}, {0, AggOp::kCount}};
    s.join = JoinStrategy::kReplicated;
    out.push_back(std::move(s));
  }
  for (uint32_t v = 0; v < static_cast<uint32_t>(variants); ++v) {
    Shaped s = NewShape("shuffle_join");
    s.query.filters = {Window(rng, kRegion, 8, 2 + v % 5)};
    s.query.joins = {ProductDim()};
    s.query.group_by_joins = {0};
    s.query.aggregations = ExactAggs();
    s.join = JoinStrategy::kShuffle;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Shaped> WideQueries(uint64_t seed) {
  // Second range filter on another grouped dimension, so the pool (3,816
  // instances) outlasts a run and no instance repeats: repeats would let
  // the caches hit more the more queries a run completes.
  const std::vector<std::pair<uint32_t, uint32_t>> kRegionRanges = {
      {0, 7}, {0, 6}, {1, 7}, {0, 5}, {1, 6}, {2, 7}};
  const std::vector<std::pair<uint32_t, uint32_t>> kProductRanges = {
      {0, 63}, {0, 55}, {8, 63}, {0, 47}, {8, 55}, {16, 63}};
  std::vector<Shaped> out;
  const char* names[] = {"wide_full", "wide_topk", "wide_tree"};
  for (int shape = 0; shape < 3; ++shape) {
    const bool tree = shape == 2;
    for (uint32_t width = 3; width <= 10; ++width) {
      for (uint32_t lo = 0; lo + width <= 32; ++lo) {
        for (const auto& [lo2, hi2] : tree ? kProductRanges : kRegionRanges) {
          Shaped s = NewShape(names[shape]);
          s.query.filters = {{kDay, lo, lo + width - 1},
                             {tree ? kProduct : kRegion, lo2, hi2}};
          if (!tree) {
            s.query.group_by = {kDay, kRegion, kProduct};  // <= 16,384 groups
            s.query.aggregations = {{kSpend, AggOp::kSum},
                                    {kClicks, AggOp::kSum}};
            if (shape == 1) {
              s.query.order_by = 0;
              s.query.limit = 10;
            }
          } else {
            s.query.group_by = {kDay, kProduct};  // <= 2,048 groups
            s.query.aggregations = ExactAggs();
            s.merge_fanin = 4;
          }
          out.push_back(std::move(s));
        }
      }
    }
  }
  sw::Rng rng(sw::Rng(seed).Fork(0x71DE).Next());
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.NextBounded(i)]);
  }
  return out;
}

std::vector<Shaped> TileQueries(uint64_t seed) {
  sw::Rng rng(sw::Rng(seed).Fork(0x711E).Next());
  std::vector<Shaped> out;
  for (uint32_t tile = 0; tile < 64; ++tile) {
    const uint32_t v = tile / 3;
    Shaped s = NewShape("");
    switch (tile % 3) {
      case 0:
        s.shape = "tile_groupby";
        s.query.filters = {Window(rng, kDay, 32, 4 + v % 13)};
        s.query.group_by = {kRegion};
        s.query.aggregations = {{kSpend, AggOp::kSum}, {0, AggOp::kCount}};
        break;
      case 1:
        s.shape = "tile_topk";
        s.query.filters = {Window(rng, kRegion, 8, 1 + v % 4)};
        s.query.group_by = {kProduct};
        s.query.aggregations = {{kClicks, AggOp::kSum}};
        s.query.order_by = 0;
        s.query.limit = 5;
        break;
      default:
        s.shape = "tile_in_list";
        s.query.in_filters = {InList(rng, kProduct, 64, 4)};
        s.query.group_by = {kDay};
        s.query.aggregations = {{kSpend, AggOp::kMax}, {0, AggOp::kCount}};
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

MemorySampler::MemorySampler() : thread_([this] {
  while (!stop_.load()) {
    const struct mallinfo2 info = mallinfo2();
    const int64_t bytes = static_cast<int64_t>(info.uordblks + info.hblkhd);
    samples_.fetch_add(1);
    int64_t peak = peak_bytes_.load();
    while (bytes > peak && !peak_bytes_.compare_exchange_weak(peak, bytes)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}) {}

MemorySampler::~MemorySampler() {
  stop_.store(true);
  thread_.join();
}

double MemorySampler::PeakMb() const {
  return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
}

double SumMetric(const std::string& export_text, const std::string& name,
                 const std::string& label) {
  double sum = 0;
  std::istringstream in(export_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0 || line.size() <= name.size()) continue;
    const char next = line[name.size()];
    if (next != '{' && next != ' ') continue;
    if (!label.empty() && line.find(label) == std::string::npos) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    sum += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return sum;
}

void DumpSpans(const SpanLog& spans, const std::string& path,
               int dump_traces) {
  const std::vector<Span> all = spans.Snapshot();
  if (!path.empty()) {
    std::ofstream out(path);
    for (const Span& s : all) {
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"trace\": " << s.trace << ", \"name\": \"" << s.name
          << "\", \"start_us\": " << s.start_us << ", \"end_us\": "
          << s.end_us << "}\n";
    }
  }
  std::printf("== span self time (%zu spans; dump: %s) ==\n", all.size(),
              path.empty() ? "-" : path.c_str());
  std::printf("%-28s %8s %12s %12s %10s\n", "span", "count", "total_us",
              "self_us", "self/call");
  for (const auto& [name, t] : SelfTimes(all)) {
    std::printf("%-28s %8lld %12lld %12lld %10.1f\n", name.c_str(),
                static_cast<long long>(t.count),
                static_cast<long long>(t.total_us),
                static_cast<long long>(t.self_us),
                t.count > 0 ? static_cast<double>(t.self_us) / t.count : 0.0);
  }
  std::printf("== spans of the first %d traces ==\n", dump_traces);
  int64_t epoch = all.empty() ? 0 : all.front().start_us;
  for (const Span& s : all) epoch = std::min(epoch, s.start_us);
  for (const Span& s : all) {
    if (s.trace == 0 || s.trace > static_cast<uint64_t>(dump_traces)) continue;
    std::printf("span id=%llu parent=%llu trace=%llu name=%s start_us=%lld "
                "end_us=%lld\n",
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.trace), s.name.c_str(),
                static_cast<long long>(s.start_us - epoch),
                static_cast<long long>(s.end_us - epoch));
  }
}

}  // namespace perfbench
