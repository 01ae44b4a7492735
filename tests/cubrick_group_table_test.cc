// The flat group table behind QueryResult, and the vectorized scan's
// group modes around their boundaries:
//
//  * GroupTable unit tests: key-ordered iteration whatever the insertion
//    order, prefix lower_bound, Merge's fold order, and ApproxResultBytes
//    against the heap the table really holds (counted by this binary's
//    global operator new);
//  * a randomized vectorized-vs-interpreted differential at the mode
//    boundaries — direct slots at 4096 keys vs packed keys at 4097, the
//    packed remap array at its cap vs the packed hash one key past it,
//    and a key space that does not pack into 64 bits — run serial,
//    morsel-parallel and with grouped join attributes. Results must be
//    byte-identical;
//  * MaterializeRows (index sort, partial sort under LIMIT) against the
//    row-building stable_sort it replaced, on randomized tables with
//    ties, NaN, ±inf and zero-count states. Rows must be byte-identical.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "common/random.h"
#include "cubrick/partition.h"
#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "cubrick/schema.h"
#include "cubrick/vec_scan.h"
#include "exec/morsel.h"
#include "exec/thread_pool.h"
#include "workload/generators.h"

// --- heap accounting: every operator new of this binary is counted ---

namespace {
std::atomic<int64_t> g_live_bytes{0};
constexpr size_t kHeader = alignof(std::max_align_t);

void* CountedAlloc(size_t n) {
  void* p = std::malloc(n + kHeader);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(p) = n;
  g_live_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(p) + kHeader;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<int64_t>(*reinterpret_cast<size_t*>(base)),
                         std::memory_order_relaxed);
  std::free(base);
}
}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
// The nothrow forms too (std::stable_sort's buffer): under the address
// sanitizer they would otherwise bypass the counted forms above.
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace scalewall::cubrick {
namespace {

// --- GroupTable ---

std::vector<std::vector<uint32_t>> KeysOf(const QueryResult& r) {
  std::vector<std::vector<uint32_t>> keys;
  for (const auto& [key, states] : r.groups()) {
    keys.emplace_back(key.begin(), key.end());
  }
  return keys;
}

bool SameBits(const AggState& a, const AggState& b) {
  return std::memcmp(&a.sum, &b.sum, sizeof(double)) == 0 &&
         a.count == b.count &&
         std::memcmp(&a.min, &b.min, sizeof(double)) == 0 &&
         std::memcmp(&a.max, &b.max, sizeof(double)) == 0;
}

TEST(GroupTableTest, IteratesInKeyOrderWhateverTheInsertOrder) {
  QueryResult r(1);
  r.Accumulate({5, 1}, 0, 1.0);
  r.Accumulate({2, 9}, 0, 2.0);
  r.Accumulate({5, 0}, 0, 3.0);
  r.Accumulate({2, 9}, 0, 4.0);
  r.Accumulate({0, 7}, 0, 5.0);
  EXPECT_EQ(KeysOf(r), (std::vector<std::vector<uint32_t>>{
                           {0, 7}, {2, 9}, {5, 0}, {5, 1}}));
  EXPECT_EQ(r.groups().arity(), 2u);
  EXPECT_DOUBLE_EQ(*r.Value({2, 9}, 0, AggOp::kSum), 6.0);
  EXPECT_EQ(r.Value({2, 8}, 0, AggOp::kSum).status().code(),
            StatusCode::kNotFound);
}

TEST(GroupTableTest, LowerBoundTakesAKeyPrefix) {
  QueryResult r(1);
  for (const auto& k : std::vector<std::vector<uint32_t>>{
           {4, 0}, {1, 3}, {2, 5}, {2, 1}, {7, 7}}) {
    r.Accumulate(k, 0, 1.0);
  }
  const GroupTable& g = r.groups();
  EXPECT_EQ(g.lower_bound({}), g.begin());
  EXPECT_EQ(g.lower_bound({2})->first, (GroupKeyView{2, 1}));
  EXPECT_EQ(g.lower_bound({2, 2})->first, (GroupKeyView{2, 5}));
  EXPECT_EQ(g.lower_bound({3})->first, (GroupKeyView{4, 0}));
  EXPECT_EQ(g.lower_bound({7, 8}), g.end());
  EXPECT_EQ(g.lower_bound({8}), g.end());
  // The perfbench idiom: walk one leading-key range.
  std::vector<uint32_t> seconds;
  for (auto it = g.lower_bound({2}); it != g.end() && it->first[0] <= 4;
       ++it) {
    seconds.push_back(it->first[1]);
  }
  EXPECT_EQ(seconds, (std::vector<uint32_t>{1, 5, 0}));
}

TEST(GroupTableTest, OutOfOrderAccumulateStateMatchesSequentialMerges) {
  Rng rng(11);
  QueryResult r(2);
  std::map<std::vector<uint32_t>, std::vector<AggState>> reference;
  for (int i = 0; i < 2000; ++i) {
    const std::vector<uint32_t> key = {
        static_cast<uint32_t>(rng.NextBounded(40)),
        static_cast<uint32_t>(rng.NextBounded(40))};
    const size_t a = rng.NextBounded(2);
    AggState s;
    s.Add(rng.NextDouble() * 100 - 50);
    s.Add(rng.NextDouble());
    r.AccumulateState(key, a, s);
    auto& ref = reference[key];
    ref.resize(2);
    ref[a].Merge(s);
  }
  ASSERT_EQ(r.num_groups(), reference.size());
  auto it = reference.begin();
  for (const auto& [key, states] : r.groups()) {
    ASSERT_EQ(std::vector<uint32_t>(key.begin(), key.end()), it->first);
    for (size_t a = 0; a < 2; ++a) {
      EXPECT_TRUE(SameBits(states[a], it->second[a]));
    }
    ++it;
  }
}

TEST(GroupTableTest, MergeFoldsPartialsInCallOrder) {
  // Non-associative sums: a different fold order would change the bits.
  Rng rng(5);
  std::vector<QueryResult> partials;
  for (int p = 0; p < 6; ++p) {
    QueryResult part(1);
    for (int i = 0; i < 40; ++i) {
      const uint32_t k = static_cast<uint32_t>(rng.NextBounded(64));
      part.Accumulate({k, k % 3}, 0, (rng.NextDouble() - 0.5) * 1e17);
    }
    partials.push_back(std::move(part));
  }
  QueryResult merged(1);
  std::map<std::vector<uint32_t>, AggState> reference;
  for (const QueryResult& part : partials) {
    merged.Merge(part);
    for (const auto& [key, states] : part.groups()) {
      reference[std::vector<uint32_t>(key.begin(), key.end())].Merge(
          states[0]);
    }
  }
  ASSERT_EQ(merged.num_groups(), reference.size());
  auto it = reference.begin();
  for (const auto& [key, states] : merged.groups()) {
    ASSERT_EQ(std::vector<uint32_t>(key.begin(), key.end()), it->first);
    EXPECT_TRUE(SameBits(states[0], it->second));
    ++it;
  }
  // Self-merge doubles every group.
  QueryResult twice = partials[0];
  twice.Merge(twice);
  for (const auto& [key, states] : twice.groups()) {
    const auto& once = partials[0].groups().find(key)->second[0];
    EXPECT_EQ(states[0].count, 2 * once.count);
  }
}

TEST(GroupTableTest, MergeAdoptsShapeAndCounters) {
  QueryResult empty(0);
  QueryResult other(2);
  other.Accumulate({3}, 1, 4.0);
  other.rows_scanned = 9;
  empty.Merge(other);
  EXPECT_EQ(empty.num_aggregations(), 2u);
  EXPECT_EQ(empty.groups().arity(), 1u);
  EXPECT_EQ(empty.rows_scanned, 9);
  EXPECT_DOUBLE_EQ(*empty.Value({3}, 1, AggOp::kSum), 4.0);
}

TEST(GroupTableTest, MergeRefusesAnotherShape) {
  QueryResult target(2);
  target.Accumulate({1, 2}, 0, 5.0);
  QueryResult other_arity(2);
  other_arity.Accumulate({1}, 0, 1.0);
  QueryResult other_aggs(3);
  other_aggs.Accumulate({1, 2}, 2, 1.0);
  EXPECT_EQ(target.Merge(other_arity).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(target.Merge(other_aggs).code(), StatusCode::kInvalidArgument);
  // Nothing was merged.
  ASSERT_EQ(target.num_groups(), 1u);
  EXPECT_EQ(target.groups().begin()->second[0].count, 1);
  // An empty result never conflicts, and an empty target of the query's
  // shape still refuses a partial of another aggregation count.
  EXPECT_TRUE(target.Merge(QueryResult(3)).ok());
  QueryResult fresh(2);
  EXPECT_EQ(fresh.Merge(other_aggs).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fresh.Merge(other_arity).ok());
  EXPECT_EQ(fresh.groups().arity(), 1u);
}

TEST(GroupTableTest, ApproxResultBytesCoversTheRealHeapFootprint) {
  Rng rng(3);
  for (size_t groups : {0u, 1u, 17u, 1000u, 20000u}) {
    // Built out of order: the vectors carry growth slack.
    const int64_t before = g_live_bytes.load();
    QueryResult* built = new QueryResult(3);
    for (size_t i = 0; i < groups; ++i) {
      const uint32_t k = static_cast<uint32_t>(rng.Next());
      built->Accumulate({k, k ^ 7u, 1}, 2, 1.0);
    }
    const int64_t held = g_live_bytes.load() - before;
    EXPECT_GE(static_cast<int64_t>(ApproxResultBytes(*built)), held)
        << groups << " groups";
    // And a copy (what a cache stores).
    const int64_t before_copy = g_live_bytes.load();
    QueryResult* copy = new QueryResult(*built);
    const int64_t copied = g_live_bytes.load() - before_copy;
    EXPECT_GE(static_cast<int64_t>(ApproxResultBytes(*copy)), copied);
    delete copy;
    delete built;
  }
}

TEST(GroupTableTest, NoHeapNodePerGroup) {
  // A million accumulations into 4096 groups allocate O(log) vectors,
  // not one node per group.
  QueryResult r(1);
  int64_t allocs_before = g_live_bytes.load();
  for (uint32_t i = 0; i < 4096; ++i) r.Accumulate({i}, 0, 1.0);
  const int64_t held = g_live_bytes.load() - allocs_before;
  // Keys and states only, with at most 2x growth slack each.
  EXPECT_LE(held, static_cast<int64_t>(2 * 4096 * (sizeof(uint32_t) +
                                                   sizeof(AggState))));
}

// --- vectorized vs interpreted at the group-mode boundaries ---

bool SameDouble(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult BitIdentical(const QueryResult& a,
                                        const QueryResult& b) {
  if (a.rows_scanned != b.rows_scanned || a.bricks_scanned != b.bricks_scanned ||
      a.bricks_pruned != b.bricks_pruned) {
    return ::testing::AssertionFailure() << "scan counters diverge";
  }
  if (a.num_groups() != b.num_groups()) {
    return ::testing::AssertionFailure()
           << "num_groups " << a.num_groups() << " vs " << b.num_groups();
  }
  auto ib = b.groups().begin();
  for (const auto& [key, states] : a.groups()) {
    if (key != ib->first) {
      return ::testing::AssertionFailure() << "group keys diverge";
    }
    for (size_t i = 0; i < states.size(); ++i) {
      const AggState& x = states[i];
      const AggState& y = ib->second[i];
      if (!SameDouble(x.sum, y.sum) || x.count != y.count ||
          !SameDouble(x.min, y.min) || !SameDouble(x.max, y.max)) {
        return ::testing::AssertionFailure() << "agg state " << i
                                             << " diverges";
      }
    }
    ++ib;
  }
  return ::testing::AssertionSuccess();
}

// One dimension per cardinality (about four bricks each), two metrics.
TableSchema SchemaWithCards(const std::vector<uint32_t>& cards) {
  TableSchema schema;
  for (size_t d = 0; d < cards.size(); ++d) {
    schema.dimensions.push_back(Dimension{
        "d" + std::to_string(d), cards[d], std::max<uint32_t>(1, cards[d] / 4)});
  }
  schema.metrics = {Metric{"m0"}, Metric{"m1"}};
  return schema;
}

TablePartition Loaded(const TableSchema& schema, size_t rows, uint64_t seed) {
  TablePartition part("t", 0, schema);
  Rng rng(seed);
  for (const Row& row : workload::GenerateRows(schema, rows, rng)) {
    EXPECT_TRUE(part.Insert(row).ok());
  }
  return part;
}

// GROUP BY every dimension (so the key space is the cardinality
// product), random range filters, random aggregations.
Query BoundaryQuery(const TableSchema& schema, Rng& rng) {
  Query q;
  q.table = "t";
  for (size_t d = 0; d < schema.dimensions.size(); ++d) {
    q.group_by.push_back(static_cast<int>(d));
    if (rng.NextBool(0.3)) {
      const uint32_t card = schema.dimensions[d].cardinality;
      uint32_t lo = static_cast<uint32_t>(rng.NextBounded(card));
      uint32_t hi = static_cast<uint32_t>(rng.NextBounded(card));
      if (lo > hi) std::swap(lo, hi);
      q.filters.push_back({static_cast<int>(d), lo, hi});
    }
  }
  const AggOp ops[] = {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax,
                       AggOp::kAvg};
  for (size_t i = 0, n = 1 + rng.NextBounded(3); i < n; ++i) {
    q.aggregations.push_back(Aggregation{
        static_cast<int>(rng.NextBounded(2)), ops[rng.NextBounded(5)]});
  }
  return q;
}

void ExpectPathsAgree(TablePartition& part, const Query& q,
                      const JoinContext* join,
                      const exec::ExecOptions& base) {
  ASSERT_TRUE(q.Validate(part.schema()).ok());
  exec::ExecOptions vec_opts = base;
  vec_opts.scan_path = exec::ScanPath::kVectorized;
  exec::ExecOptions int_opts = base;
  int_opts.scan_path = exec::ScanPath::kInterpreted;
  QueryResult vec(q.aggregations.size());
  QueryResult oracle(q.aggregations.size());
  ASSERT_TRUE(part.Execute(q, vec, join, &vec_opts).ok());
  ASSERT_TRUE(part.Execute(q, oracle, join, &int_opts).ok());
  EXPECT_TRUE(BitIdentical(vec, oracle)) << CanonicalQueryFingerprint(q);
}

struct Boundary {
  const char* name;
  std::vector<uint32_t> cards;
  VecScanPlan::GroupMode mode;  // serial plan's mode
};

std::vector<Boundary> Boundaries() {
  const uint64_t cap = vec::PackedSlotMap::kMaxRemapSlots;
  static_assert(vec::PackedSlotMap::kMaxRemapSlots == 65536);
  static_assert(VecScanPlan::kMaxDirectSlots == 4096);
  using M = VecScanPlan::GroupMode;
  std::vector<Boundary> out = {
      {"direct at 4096", {64, 64}, M::kDirect},
      {"packed at 4097", {17, 241}, M::kPacked},  // 17 * 241 = 4097
      {"remap at cap - 1", {3, 21845}, M::kPacked},  // 65535
      {"remap at cap", {256, 256}, M::kPacked},
      {"packed hash at cap + 1", {65537}, M::kPacked},
      // 2^22 cubed = 2^66: does not pack into 64 bits.
      {"unpackable", {1u << 22, 1u << 22, 1u << 22}, M::kHash},
  };
  EXPECT_EQ(out[2].cards[0] * out[2].cards[1], cap - 1);
  return out;
}

TEST(GroupModeBoundaryTest, PlansPickTheExpectedMode) {
  for (const Boundary& b : Boundaries()) {
    const TableSchema schema = SchemaWithCards(b.cards);
    Rng rng(1);
    const Query q = BoundaryQuery(schema, rng);
    EXPECT_EQ(BuildVecScanPlan(schema, q, nullptr).mode, b.mode) << b.name;
  }
}

TEST(GroupModeBoundaryTest, RandomQueriesSerial) {
  uint64_t seed = 100;
  for (const Boundary& b : Boundaries()) {
    SCOPED_TRACE(b.name);
    const TableSchema schema = SchemaWithCards(b.cards);
    TablePartition part = Loaded(schema, 6000, ++seed);
    Rng rng(seed);
    for (int i = 0; i < 8; ++i) {
      ExpectPathsAgree(part, BoundaryQuery(schema, rng), nullptr, {});
    }
  }
}

TEST(GroupModeBoundaryTest, RandomQueriesParallel) {
  exec::ThreadPool pool(4);
  exec::ExecOptions opts;
  opts.num_workers = 4;
  opts.pool = &pool;
  uint64_t seed = 200;
  for (const Boundary& b : Boundaries()) {
    SCOPED_TRACE(b.name);
    const TableSchema schema = SchemaWithCards(b.cards);
    TablePartition part = Loaded(schema, 6000, ++seed);
    Rng rng(seed);
    for (size_t morsel_rows : {256u, 4096u}) {
      opts.morsel_rows = morsel_rows;
      for (int i = 0; i < 4; ++i) {
        ExpectPathsAgree(part, BoundaryQuery(schema, rng), nullptr, opts);
      }
    }
  }
}

TEST(GroupModeBoundaryTest, RandomQueriesWithGroupByJoins) {
  // Fact dims (64, 64); the joined attribute's cardinality moves the
  // key space (dim 0, attribute) across the boundaries.
  const TableSchema schema = SchemaWithCards({64, 64});
  TablePartition part = Loaded(schema, 6000, 300);
  exec::ThreadPool pool(4);
  struct AttrCase {
    uint32_t card;
    VecScanPlan::GroupMode mode;
  };
  for (const AttrCase& c :
       {AttrCase{64, VecScanPlan::GroupMode::kDirect},        // 4096
        AttrCase{65, VecScanPlan::GroupMode::kPacked},        // 4160
        AttrCase{1024, VecScanPlan::GroupMode::kPacked},      // 65536
        AttrCase{1025, VecScanPlan::GroupMode::kPacked}}) {   // 65600
    SCOPED_TRACE(c.card);
    ReplicatedTable dim("attrs", 64, {{"a", c.card, 1}});
    Rng rng(c.card);
    for (uint32_t key = 0; key < 64; ++key) {
      if (rng.NextBool(0.2)) continue;  // unmatched keys drop out
      ASSERT_TRUE(
          dim.Set(DimensionEntry{
                      key, {static_cast<uint32_t>(rng.NextBounded(c.card))}})
              .ok());
    }
    JoinContext join;
    join.tables = {&dim};
    for (int i = 0; i < 6; ++i) {
      Query q = BoundaryQuery(schema, rng);
      q.group_by = {0};
      q.joins = {Join{1, "attrs", 0}};
      q.group_by_joins = {0};
      if (rng.NextBool(0.5)) {
        q.join_filters = {JoinFilter{0, 0, c.card / 2}};
      }
      EXPECT_EQ(BuildVecScanPlan(schema, q, &join).mode, c.mode);
      ExpectPathsAgree(part, q, &join, {});
      exec::ExecOptions opts;
      opts.num_workers = 4;
      opts.pool = &pool;
      opts.morsel_rows = 512;
      ExpectPathsAgree(part, q, &join, opts);
    }
  }
}

// --- MaterializeRows vs the stable_sort reference ---

// The implementation MaterializeRows had before it sorted row indices:
// build every row, stable_sort them all, truncate to LIMIT.
std::vector<ResultRow> ReferenceMaterializeRows(const QueryResult& result,
                                                const Query& query) {
  std::vector<ResultRow> rows(result.num_groups());
  const size_t num_aggs = query.aggregations.size();
  size_t i = 0;
  for (const auto& [key, states] : result.groups()) {
    ResultRow& row = rows[i++];
    row.key.assign(key.begin(), key.end());
    row.values.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      row.values[a] = a < states.size()
                          ? states[a].Finalize(query.aggregations[a].op)
                          : 0.0;
    }
  }
  if (query.order_by >= 0) {
    size_t agg = static_cast<size_t>(query.order_by);
    bool desc = query.descending;
    std::stable_sort(
        rows.begin(), rows.end(),
        [agg, desc](const ResultRow& a, const ResultRow& b) {
          const double av = a.values[agg];
          const double bv = b.values[agg];
          const bool an = std::isnan(av);
          const bool bn = std::isnan(bv);
          if (an != bn) return bn;
          if (!an && av != bv) return desc ? av > bv : av < bv;
          return a.key < b.key;
        });
  }
  if (query.limit > 0 && rows.size() > query.limit) {
    rows.resize(query.limit);
  }
  return rows;
}

bool SameRowBytes(const std::vector<ResultRow>& a,
                  const std::vector<ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].values.size() != b[i].values.size()) {
      return false;
    }
    if (!a[i].values.empty() &&
        std::memcmp(a[i].values.data(), b[i].values.data(),
                    a[i].values.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// A double from a small pool, so sorts meet ties, signed zeros, NaN and
// infinities often.
double PoolValue(Rng& rng) {
  static const double kPool[] = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.0,
                                 2.5,
                                 1e300,
                                 std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
  return kPool[rng.NextBounded(std::size(kPool))];
}

QueryResult RandomPresentationTable(Rng& rng, size_t num_aggs) {
  QueryResult result(num_aggs);
  const size_t arity = rng.NextBounded(4);
  const size_t n = arity == 0 ? rng.NextBounded(2) : rng.NextBounded(300);
  for (size_t g = 0; g < n; ++g) {
    std::vector<uint32_t> key(arity);
    for (uint32_t& k : key) k = static_cast<uint32_t>(rng.NextBounded(8));
    if (result.groups().find(key) != result.groups().end()) continue;
    for (size_t a = 0; a < num_aggs; ++a) {
      AggState state;
      // Zero-count states keep their min/max identities (finalized to
      // 0); others get pool values directly, NaN included.
      static const int64_t kCounts[] = {0, 1, 3};
      state.count = kCounts[rng.NextBounded(3)];
      state.sum = PoolValue(rng);
      if (state.count > 0) {
        state.min = PoolValue(rng);
        state.max = PoolValue(rng);
      }
      result.AccumulateState(key, a, state);
    }
  }
  return result;
}

TEST(MaterializeRowsDifferentialTest, MatchesStableSortReference) {
  Rng rng(0x70BA);
  static const AggOp kOps[] = {AggOp::kSum, AggOp::kCount, AggOp::kMin,
                               AggOp::kMax, AggOp::kAvg};
  int compared = 0;
  for (int t = 0; t < 300; ++t) {
    const size_t num_aggs = 1 + rng.NextBounded(3);
    const QueryResult result = RandomPresentationTable(rng, num_aggs);
    Query q;
    q.table = "t";
    // Occasionally more aggregations than the result carries (they
    // finalize to 0.0).
    const size_t query_aggs = num_aggs + (rng.NextBool(0.1) ? 1 : 0);
    for (size_t a = 0; a < query_aggs; ++a) {
      q.aggregations.push_back({0, kOps[rng.NextBounded(std::size(kOps))]});
    }
    const size_t n = result.num_groups();
    for (int order_by = -1; order_by < static_cast<int>(query_aggs);
         ++order_by) {
      for (bool desc : {true, false}) {
        for (size_t limit : {size_t{0}, size_t{1}, n > 0 ? n - 1 : 0, n,
                             n + 1}) {
          q.order_by = order_by;
          q.descending = desc;
          q.limit = static_cast<uint32_t>(limit);
          ASSERT_TRUE(SameRowBytes(ReferenceMaterializeRows(result, q),
                                   MaterializeRows(result, q)))
              << "table " << t << " order_by " << order_by << " desc "
              << desc << " limit " << limit << " groups " << n;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 3000);
}

}  // namespace
}  // namespace scalewall::cubrick
