// Query AST and aggregation results.
//
// Cubrick powers "dashboards and interactive data exploration tools"
// (Section IV): the workload is filtered aggregations and group-bys over a
// single cube. Queries execute as one partial aggregation per table
// partition (pushed to the server storing it) plus a merge on the query
// coordinator (Section IV-C).

#ifndef SCALEWALL_CUBRICK_QUERY_H_
#define SCALEWALL_CUBRICK_QUERY_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "cubrick/schema.h"

namespace scalewall::cubrick {

// Inclusive range filter on one dimension.
struct FilterRange {
  int dimension = 0;
  uint32_t lo = 0;
  uint32_t hi = std::numeric_limits<uint32_t>::max();
};

// Set-membership filter on one dimension (WHERE d IN (a, b, c)).
// Value lists are expected to be small (dashboard pick-lists); matching
// is a linear scan.
struct FilterIn {
  int dimension = 0;
  std::vector<uint32_t> values;
};

enum class AggOp { kSum, kCount, kMin, kMax, kAvg };

std::string_view AggOpName(AggOp op);

// One aggregation over a metric column.
struct Aggregation {
  int metric = 0;  // index into schema.metrics; ignored for kCount
  AggOp op = AggOp::kSum;
};

// A join against a replicated dimension table (Section II-B): the fact
// column `fact_dimension` is a key into `dimension_table`, whose
// attribute column `attribute` becomes usable for grouping and filtering.
// Rows whose key has no entry in the dimension table are dropped (inner
// join).
struct Join {
  int fact_dimension = 0;
  std::string dimension_table;
  int attribute = 0;
};

// Range filter on a joined attribute.
struct JoinFilter {
  int join = 0;  // index into Query::joins
  uint32_t lo = 0;
  uint32_t hi = std::numeric_limits<uint32_t>::max();
};

// A Cubrick query: SELECT group_by, aggs FROM table [JOIN dims] WHERE
// filters GROUP BY group_by [, joined attributes].
struct Query {
  std::string table;
  std::vector<FilterRange> filters;
  std::vector<FilterIn> in_filters;
  std::vector<int> group_by;  // dimension indices
  // Joins and their use: joined attributes referenced by group_by_joins
  // are appended to the group key after the plain dimensions; join
  // filters restrict rows by attribute value.
  std::vector<Join> joins;
  std::vector<int> group_by_joins;  // indices into joins
  std::vector<JoinFilter> join_filters;
  std::vector<Aggregation> aggregations;
  // Presentation: ORDER BY the order_by-th aggregation (or -1 for group
  // key order) and keep the first `limit` rows (0 = all). Applied on the
  // fully merged result — never pushed below the coordinator, so top-N is
  // exact.
  int order_by = -1;
  bool descending = true;
  uint32_t limit = 0;
  // End-to-end latency budget for this query (0 = use the proxy's
  // default, which may itself be unlimited). The proxy stamps the budget
  // on admission and decrements it per hop / attempt; coordinators stop
  // retrying and hedging once the remaining budget is exhausted and the
  // query fails with kDeadlineExceeded instead of blowing the SLA.
  SimDuration deadline = 0;

  // Checks column indices against `schema`.
  Status Validate(const TableSchema& schema) const;
};

// Mergeable aggregation state (sum+count+min+max covers all AggOps).
struct AggState {
  double sum = 0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    sum += v;
    ++count;
    // Selects, not branches (minsd/maxsd): a NaN `v` compares false and
    // leaves min/max as they were.
    min = v < min ? v : min;
    max = v > max ? v : max;
  }
  void Merge(const AggState& other) {
    sum += other.sum;
    count += other.count;
    min = other.min < min ? other.min : min;
    max = other.max > max ? other.max : max;
  }
  double Finalize(AggOp op) const {
    switch (op) {
      case AggOp::kSum:
        return sum;
      case AggOp::kCount:
        return static_cast<double>(count);
      case AggOp::kMin:
        // A zero-count state never saw a value; its min/max are still
        // the ±infinity identities, which must not leak into results
        // (finalize to 0.0, the same convention kAvg uses).
        return count > 0 ? min : 0.0;
      case AggOp::kMax:
        return count > 0 ? max : 0.0;
      case AggOp::kAvg:
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    return 0.0;
  }
};

// Read-only view of one group key: size() values, borrowed from the
// table, vector or braced list it was built from. The braced-list form
// ({}, {3}, {3, 17}) lives to the end of the full expression, which
// covers any call taking a view.
class GroupKeyView {
 public:
  GroupKeyView() = default;
  GroupKeyView(const uint32_t* data, size_t size) : data_(data), size_(size) {}
  GroupKeyView(const std::vector<uint32_t>& key)
      : data_(key.data()), size_(key.size()) {}
  // Deliberate: the view borrows the list's array, which outlives the
  // call the braced key is an argument of.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  GroupKeyView(std::initializer_list<uint32_t> key)
      : data_(key.begin()), size_(key.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  const uint32_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }

  // Lexicographic, so a shorter key sorts before every key it prefixes.
  friend std::strong_ordering operator<=>(GroupKeyView a, GroupKeyView b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }
  friend bool operator==(GroupKeyView a, GroupKeyView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

// The groups of a result as one flat table: fixed-width keys of the
// table's arity in one array, num_aggs() AggStates per group in another,
// rows kept in ascending key order. No per-group allocation; iteration
// is key-ordered, and each group reads as {key, states}:
//
//   for (const auto& [key, states] : result.groups()) ...
//
// The arity is taken from the first group inserted; every later key
// must match it.
class GroupTable {
 public:
  using States = std::span<const AggState>;
  struct Group {
    GroupKeyView first;
    States second;
  };

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Group;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Group;

    Iterator() = default;
    Iterator(const GroupTable* table, size_t row) : table_(table), row_(row) {}

    Group operator*() const { return table_->group(row_); }
    // it->first / it->second on a group built on the fly.
    struct Arrow {
      Group group;
      const Group* operator->() const { return &group; }
    };
    Arrow operator->() const { return Arrow{table_->group(row_)}; }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++row_;
      return old;
    }
    bool operator==(const Iterator& other) const { return row_ == other.row_; }
    size_t row() const { return row_; }

   private:
    const GroupTable* table_ = nullptr;
    size_t row_ = 0;
  };

  explicit GroupTable(size_t num_aggs = 0) : num_aggs_(num_aggs) {}

  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  size_t arity() const { return arity_; }
  size_t num_aggs() const { return num_aggs_; }

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, num_rows_); }
  // First group whose key is not less than `key`; a shorter key is a
  // prefix, so lower_bound({d}) is the first group with key[0] >= d.
  Iterator lower_bound(GroupKeyView key) const {
    return Iterator(this, LowerBound(0, key));
  }
  Iterator find(GroupKeyView key) const;

  GroupKeyView key(size_t row) const {
    return GroupKeyView(keys_.data() + row * arity_, arity_);
  }
  States states(size_t row) const {
    return States(states_.data() + row * num_aggs_, num_aggs_);
  }
  Group group(size_t row) const { return Group{key(row), states(row)}; }

  // The states of `key`, inserting a default-initialized group in key
  // order when absent. Appending past the last key is O(1); an earlier
  // new key shifts the rows after it.
  AggState* FindOrInsert(GroupKeyView key);

  // Folds `n` groups, given in strictly ascending key order, into the
  // table: group i has key `keys + i * arity` and states
  // `states + i * num_aggs()`. A present group Merge()s each state; a
  // new one Merge()s into fresh default states, which reproduces the
  // input bit-for-bit. Linear in the two sizes.
  void MergeSorted(size_t n, size_t arity, const uint32_t* keys,
                   const AggState* states);
  // The same for groups held in vectors; into an empty table they are
  // moved, not copied. For states built from defaults by Add() and
  // Merge() only (every scan's), which a merge into fresh default states
  // reproduces exactly anyway.
  void MergeSorted(size_t arity, std::vector<uint32_t>&& keys,
                   std::vector<AggState>&& states);
  void Merge(const GroupTable& other);

  // The key and state arrays, row-major: key(row) starts at
  // key_data() + row * arity(), states(row) at state_data() +
  // row * num_aggs(). The wire codec copies them as blocks.
  const uint32_t* key_data() const { return keys_.data(); }
  const AggState* state_data() const { return states_.data(); }

  // Sizes an empty table to `n` groups of `arity` and returns its key
  // and state arrays for a bulk fill (the wire decoder). The caller
  // writes every key and state, in strictly ascending key order.
  struct Storage {
    uint32_t* keys;
    AggState* states;
  };
  Storage ResizeForFill(size_t n, size_t arity);

  // Bytes the table holds on the heap (allocated capacity).
  size_t HeapBytes() const {
    return keys_.capacity() * sizeof(uint32_t) +
           states_.capacity() * sizeof(AggState);
  }

 private:
  // First row in [from, size()) whose key is not less than `key`
  // (exponential then binary search, so ascending probes stay cheap).
  size_t LowerBound(size_t from, GroupKeyView key) const;

  size_t arity_ = 0;
  size_t num_aggs_;
  size_t num_rows_ = 0;
  std::vector<uint32_t> keys_;    // num_rows_ * arity_
  std::vector<AggState> states_;  // num_rows_ * num_aggs_
};

// Partial (or fully merged) result of a query: one AggState per
// aggregation, per group key. Group key = values of the group_by
// dimensions, in query order; a single empty key when there is no
// GROUP BY.
class QueryResult {
 public:
  using GroupKey = std::vector<uint32_t>;

  explicit QueryResult(size_t num_aggregations = 0)
      : groups_(num_aggregations) {}

  // Accumulates one input value for aggregation `agg` under `key`.
  void Accumulate(GroupKeyView key, size_t agg, double value) {
    groups_.FindOrInsert(key)[agg].Add(value);
  }

  // Folds a fully accumulated state into aggregation `agg` under `key`.
  // Merging into the freshly created default state reproduces `state`
  // bit-for-bit (sums seeded at +0.0 never produce -0.0, min/max copy
  // verbatim), which is what lets the vectorized scan accumulate into
  // flat slot arrays and still emit byte-identical results.
  void AccumulateState(GroupKeyView key, size_t agg, const AggState& state) {
    groups_.FindOrInsert(key)[agg].Merge(state);
  }

  // Folds whole groups given in ascending key order (GroupTable::
  // MergeSorted): the flush path of every scan.
  void MergeSortedGroups(size_t n, size_t arity, const uint32_t* keys,
                         const AggState* states) {
    groups_.MergeSorted(n, arity, keys, states);
  }
  void MergeSortedGroups(size_t arity, std::vector<uint32_t>&& keys,
                         std::vector<AggState>&& states) {
    groups_.MergeSorted(arity, std::move(keys), std::move(states));
  }
  // GroupTable::ResizeForFill on this result's (empty) table.
  GroupTable::Storage ResizeGroupsForFill(size_t n, size_t arity) {
    return groups_.ResizeForFill(n, arity);
  }

  // Merges another partial result of the same query shape. A result
  // with groups of another key arity or aggregation count (a peer's
  // malformed partial) is refused with kInvalidArgument, merging
  // nothing.
  Status Merge(const QueryResult& other);

  size_t num_groups() const { return groups_.size(); }
  size_t num_aggregations() const { return groups_.num_aggs(); }
  const GroupTable& groups() const { return groups_; }

  // Finalized value for (key, agg). Returns NOT_FOUND for missing keys.
  Result<double> Value(GroupKeyView key, size_t agg, AggOp op) const;

  // Rows scanned while producing this result (diagnostics).
  int64_t rows_scanned = 0;
  int64_t bricks_scanned = 0;
  int64_t bricks_pruned = 0;
  // Bricks counted in bricks_scanned whose compressed runs proved no
  // row matches, so they were never decompressed (RLE prefilter).
  int64_t bricks_rle_skipped = 0;

 private:
  GroupTable groups_;
};

// One presentation row: the group key plus every aggregation finalized.
struct ResultRow {
  QueryResult::GroupKey key;
  std::vector<double> values;
};

// Materializes a merged result into presentation rows, applying the
// query's ORDER BY / LIMIT: ties are broken by group key and NaN values
// sort after every number, so the order is total. Only the rows LIMIT
// keeps are built.
std::vector<ResultRow> MaterializeRows(const QueryResult& result,
                                       const Query& query);

// Canonical fingerprint of a query's *semantic* shape: every field that
// affects the result (table, filters, joins, group-by, aggregations,
// presentation) encoded into one deterministic string; `deadline` is
// deliberately excluded (it affects when a query gives up, never what
// it computes). Used verbatim as the result-cache key — exact string
// equality, so two queries share a cache entry iff they compute the
// same thing; no hash, no collision risk to the exact-correctness
// guarantee.
std::string CanonicalQueryFingerprint(const Query& query);

// In-memory cost of a result, in bytes — the charge a cached entry pays
// against the LRU bytes budget: the object plus the group table's
// allocated capacity, so it never under-charges the real heap footprint.
size_t ApproxResultBytes(const QueryResult& result);

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_QUERY_H_
