#include "cubrick/query.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace scalewall::cubrick {

std::string_view AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "SUM";
    case AggOp::kCount:
      return "COUNT";
    case AggOp::kMin:
      return "MIN";
    case AggOp::kMax:
      return "MAX";
    case AggOp::kAvg:
      return "AVG";
  }
  return "?";
}

Status Query::Validate(const TableSchema& schema) const {
  int num_dims = static_cast<int>(schema.dimensions.size());
  int num_metrics = static_cast<int>(schema.metrics.size());
  for (const FilterRange& f : filters) {
    if (f.dimension < 0 || f.dimension >= num_dims) {
      return Status::InvalidArgument("filter on unknown dimension index " +
                                     std::to_string(f.dimension));
    }
    if (f.lo > f.hi) {
      return Status::InvalidArgument("filter with lo > hi");
    }
  }
  for (const FilterIn& f : in_filters) {
    if (f.dimension < 0 || f.dimension >= num_dims) {
      return Status::InvalidArgument("IN filter on unknown dimension index " +
                                     std::to_string(f.dimension));
    }
    if (f.values.empty()) {
      return Status::InvalidArgument("IN filter with empty value list");
    }
  }
  for (int d : group_by) {
    if (d < 0 || d >= num_dims) {
      return Status::InvalidArgument("group-by on unknown dimension index " +
                                     std::to_string(d));
    }
  }
  if (aggregations.empty()) {
    return Status::InvalidArgument("query needs at least one aggregation");
  }
  for (const Aggregation& a : aggregations) {
    if (a.op != AggOp::kCount &&
        (a.metric < 0 || a.metric >= num_metrics)) {
      return Status::InvalidArgument("aggregation on unknown metric index " +
                                     std::to_string(a.metric));
    }
  }
  if (order_by >= static_cast<int>(aggregations.size())) {
    return Status::InvalidArgument("ORDER BY aggregation index out of range");
  }
  for (const Join& j : joins) {
    if (j.fact_dimension < 0 || j.fact_dimension >= num_dims) {
      return Status::InvalidArgument("join on unknown fact dimension " +
                                     std::to_string(j.fact_dimension));
    }
    if (j.dimension_table.empty()) {
      return Status::InvalidArgument("join without a dimension table");
    }
  }
  for (int j : group_by_joins) {
    if (j < 0 || j >= static_cast<int>(joins.size())) {
      return Status::InvalidArgument("group-by on unknown join index " +
                                     std::to_string(j));
    }
  }
  for (const JoinFilter& f : join_filters) {
    if (f.join < 0 || f.join >= static_cast<int>(joins.size())) {
      return Status::InvalidArgument("filter on unknown join index " +
                                     std::to_string(f.join));
    }
    if (f.lo > f.hi) {
      return Status::InvalidArgument("join filter with lo > hi");
    }
  }
  return Status::Ok();
}

std::vector<ResultRow> MaterializeRows(const QueryResult& result,
                                       const Query& query) {
  const GroupTable& groups = result.groups();
  const size_t n = groups.size();
  const size_t keep = query.limit > 0 ? std::min<size_t>(n, query.limit) : n;
  auto finalize = [&](size_t row, size_t agg) {
    const GroupTable::States states = groups.states(row);
    return agg < states.size()
               ? states[agg].Finalize(query.aggregations[agg].op)
               : 0.0;
  };
  // Rows of the table in presentation order; empty means key order.
  std::vector<size_t> order;
  if (query.order_by >= 0 && n > 0) {
    const size_t agg = static_cast<size_t>(query.order_by);
    std::vector<double> by(n);
    for (size_t row = 0; row < n; ++row) by[row] = finalize(row, agg);
    order.resize(n);
    std::iota(order.begin(), order.end(), size_t{0});
    const bool desc = query.descending;
    auto before = [&by, desc](size_t a, size_t b) {
      // NaN finalized values (e.g. a NaN metric summed) would make the
      // raw comparisons non-strict-weak, which is UB in a sort. Order
      // NaN after every number; ties (including NaN vs NaN) go by row,
      // which is group key order.
      const double av = by[a];
      const double bv = by[b];
      const bool an = std::isnan(av);
      const bool bn = std::isnan(bv);
      if (an != bn) return bn;  // the non-NaN row sorts first
      if (!an && av != bv) return desc ? av > bv : av < bv;
      return a < b;
    };
    const auto kept_end = order.begin() + static_cast<std::ptrdiff_t>(keep);
    if (keep < n) {
      std::partial_sort(order.begin(), kept_end, order.end(), before);
    } else {
      std::sort(order.begin(), order.end(), before);
    }
  }
  const size_t num_aggs = query.aggregations.size();
  std::vector<ResultRow> rows(keep);
  for (size_t i = 0; i < keep; ++i) {
    const size_t row = order.empty() ? i : order[i];
    const GroupKeyView key = groups.key(row);
    rows[i].key.assign(key.begin(), key.end());
    rows[i].values.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) rows[i].values[a] = finalize(row, a);
  }
  return rows;
}

std::string CanonicalQueryFingerprint(const Query& query) {
  std::string fp;
  fp.reserve(64 + query.table.size());
  // Length-prefix the (only free-form) table name so no table name can
  // collide with a different query's encoding — e.g. table "t|f:1,2,3"
  // versus a filtered query on table "t".
  fp += std::to_string(query.table.size());
  fp += ':';
  fp += query.table;
  for (const FilterRange& f : query.filters) {
    fp += "|f:" + std::to_string(f.dimension) + "," + std::to_string(f.lo) +
          "," + std::to_string(f.hi);
  }
  for (const FilterIn& f : query.in_filters) {
    fp += "|in:" + std::to_string(f.dimension) + "=";
    for (uint32_t v : f.values) fp += std::to_string(v) + "+";
  }
  fp += "|g:";
  for (int d : query.group_by) fp += std::to_string(d) + ",";
  for (const Join& j : query.joins) {
    // Dimension-table names are free-form too: length-prefixed like the
    // fact table.
    fp += "|j:" + std::to_string(j.fact_dimension) + "," +
          std::to_string(j.dimension_table.size()) + ":" +
          j.dimension_table + "," + std::to_string(j.attribute);
  }
  fp += "|gj:";
  for (int j : query.group_by_joins) fp += std::to_string(j) + ",";
  for (const JoinFilter& f : query.join_filters) {
    fp += "|jf:" + std::to_string(f.join) + "," + std::to_string(f.lo) + "," +
          std::to_string(f.hi);
  }
  fp += "|a:";
  for (const Aggregation& a : query.aggregations) {
    // COUNT ignores its metric index, so COUNT(m0) and COUNT(m1) compute
    // the same thing — normalize to 0 so they share a cache entry.
    const int metric = a.op == AggOp::kCount ? 0 : a.metric;
    fp += std::to_string(metric) + std::string(AggOpName(a.op)) + ",";
  }
  fp += "|ob:" + std::to_string(query.order_by) +
        (query.descending ? "d" : "a") + std::to_string(query.limit);
  return fp;
}

size_t ApproxResultBytes(const QueryResult& result) {
  // Plus the allocator's header on each of the table's two blocks.
  return sizeof(QueryResult) + result.groups().HeapBytes() + 32;
}

GroupTable::Iterator GroupTable::find(GroupKeyView probe) const {
  const size_t row = LowerBound(0, probe);
  if (row < num_rows_ && key(row) == probe) return Iterator(this, row);
  return end();
}

size_t GroupTable::LowerBound(size_t from, GroupKeyView probe) const {
  // Gallop: rows before `lo` are known to be less than the probe; `hi`
  // is the first row found not less (or the end).
  size_t lo = from;
  size_t hi = from;
  size_t step = 1;
  while (hi < num_rows_ && key(hi) < probe) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  hi = std::min(hi, num_rows_);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key(mid) < probe) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

AggState* GroupTable::FindOrInsert(GroupKeyView probe) {
  if (num_rows_ == 0) arity_ = probe.size();
  assert(probe.size() == arity_ && "group keys of one table share an arity");
  size_t row = num_rows_;
  if (num_rows_ > 0 && !(key(num_rows_ - 1) < probe)) {
    row = LowerBound(0, probe);
    if (key(row) == probe) return states_.data() + row * num_aggs_;
  }
  keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(row * arity_),
               probe.begin(), probe.end());
  states_.insert(states_.begin() + static_cast<std::ptrdiff_t>(row * num_aggs_),
                 num_aggs_, AggState{});
  ++num_rows_;
  return states_.data() + row * num_aggs_;
}

GroupTable::Storage GroupTable::ResizeForFill(size_t n, size_t arity) {
  assert(num_rows_ == 0 && "a bulk fill starts from an empty table");
  arity_ = arity;
  num_rows_ = n;
  keys_.resize(n * arity);
  states_.resize(n * num_aggs_);
  return Storage{keys_.data(), states_.data()};
}

void GroupTable::MergeSorted(size_t n, size_t arity, const uint32_t* keys,
                             const AggState* states) {
  if (n == 0) return;
  if (num_rows_ == 0) arity_ = arity;
  assert(arity == arity_ && "group keys of one table share an arity");
  const size_t na = num_aggs_;
  auto in_key = [&](size_t i) { return GroupKeyView(keys + i * arity, arity); };
  auto fold = [na](AggState* into, const AggState* from) {
    for (size_t a = 0; a < na; ++a) into[a].Merge(from[a]);
  };
  // Every incoming key after the last one present: append.
  if (num_rows_ == 0 || key(num_rows_ - 1) < in_key(0)) {
    keys_.insert(keys_.end(), keys, keys + n * arity);
    states_.resize((num_rows_ + n) * na);
    for (size_t i = 0; i < n; ++i) {
      fold(states_.data() + (num_rows_ + i) * na, states + i * na);
    }
    num_rows_ += n;
    return;
  }
  // Fold the groups already present in place; collect the new ones.
  std::vector<size_t> fresh;
  size_t row = 0;
  for (size_t i = 0; i < n; ++i) {
    // Same key sets (partials of one query) match row after row.
    const uint32_t* k = keys + i * arity;
    if (row >= num_rows_ ||
        !std::equal(k, k + arity, keys_.data() + row * arity)) {
      row = LowerBound(row, in_key(i));
    }
    if (row < num_rows_ &&
        std::equal(k, k + arity, keys_.data() + row * arity)) {
      fold(states_.data() + row * na, states + i * na);
      ++row;
    } else {
      fresh.push_back(i);
    }
  }
  if (fresh.empty()) return;
  // Interleave the new groups with the present ones, in key order.
  const size_t total = num_rows_ + fresh.size();
  std::vector<uint32_t> merged_keys;
  std::vector<AggState> merged_states(total * na);
  merged_keys.reserve(total * arity);
  size_t r = 0;
  size_t out = 0;
  for (size_t f = 0; f <= fresh.size(); ++f) {
    const size_t stop =
        f < fresh.size() ? LowerBound(r, in_key(fresh[f])) : num_rows_;
    merged_keys.insert(merged_keys.end(), keys_.begin() + r * arity,
                       keys_.begin() + stop * arity);
    std::copy(states_.begin() + r * na, states_.begin() + stop * na,
              merged_states.begin() + out * na);
    out += stop - r;
    r = stop;
    if (f == fresh.size()) break;
    const GroupKeyView k = in_key(fresh[f]);
    merged_keys.insert(merged_keys.end(), k.begin(), k.end());
    fold(merged_states.data() + out * na, states + fresh[f] * na);
    ++out;
  }
  keys_ = std::move(merged_keys);
  states_ = std::move(merged_states);
  num_rows_ = total;
}

void GroupTable::MergeSorted(size_t arity, std::vector<uint32_t>&& keys,
                             std::vector<AggState>&& states) {
  if (num_rows_ != 0 || states.empty() || num_aggs_ == 0) {
    const size_t n = num_aggs_ == 0 ? 0 : states.size() / num_aggs_;
    MergeSorted(n, arity, keys.data(), states.data());
    return;
  }
  assert(states.size() % num_aggs_ == 0);
  arity_ = arity;
  num_rows_ = states.size() / num_aggs_;
  keys_ = std::move(keys);
  states_ = std::move(states);
}

void GroupTable::Merge(const GroupTable& other) {
  if (&other == this) {
    const GroupTable copy = other;
    Merge(copy);
    return;
  }
  if (num_aggs_ == 0 && num_rows_ == 0) num_aggs_ = other.num_aggs_;
  assert(other.empty() || other.num_aggs_ == num_aggs_);
  MergeSorted(other.num_rows_, other.arity_, other.keys_.data(),
              other.states_.data());
}

Status QueryResult::Merge(const QueryResult& other) {
  const bool arity_differs =
      !groups_.empty() && groups_.arity() != other.groups_.arity();
  const bool aggs_differ = num_aggregations() != 0 &&
                           num_aggregations() != other.num_aggregations();
  if (!other.groups_.empty() && (arity_differs || aggs_differ)) {
    return Status::InvalidArgument(
        "malformed partial result: " + std::to_string(other.num_groups()) +
        " groups of arity " + std::to_string(other.groups_.arity()) +
        " with " + std::to_string(other.num_aggregations()) +
        " aggregations, expected arity " + std::to_string(groups_.arity()) +
        " with " + std::to_string(num_aggregations()));
  }
  groups_.Merge(other.groups_);
  rows_scanned += other.rows_scanned;
  bricks_scanned += other.bricks_scanned;
  bricks_pruned += other.bricks_pruned;
  bricks_rle_skipped += other.bricks_rle_skipped;
  return Status::Ok();
}

Result<double> QueryResult::Value(GroupKeyView key, size_t agg,
                                  AggOp op) const {
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    return Status::NotFound("group key not present in result");
  }
  if (agg >= it->second.size()) {
    return Status::InvalidArgument("aggregation index out of range");
  }
  return it->second[agg].Finalize(op);
}

}  // namespace scalewall::cubrick
