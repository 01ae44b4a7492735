// Tests of the benchmark's own helpers: the percentile picker and the
// span self-time arithmetic and the row digest. Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(perfbench::Percentile(sorted, 50) == 5);
  CHECK(perfbench::Percentile(sorted, 90) == 9);
  CHECK(perfbench::Percentile(sorted, 99) == 10);
  CHECK(perfbench::Percentile(sorted, 100) == 10);
  CHECK(perfbench::Percentile(sorted, 0.1) == 1);
  CHECK(perfbench::Median({3, 1, 2}) == 2);
}

void TestPickTail() {
  // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9 has 1.
  perfbench::TailPick pick = perfbench::PickTail(Range(1000));
  CHECK(pick.ok);
  CHECK(pick.percentile == 99);
  CHECK(pick.value == 990);
  CHECK(pick.beyond == 10);
  CHECK(pick.samples == 1000);
  // 999 samples: p99 leaves 9 beyond, so p90 is the highest that holds.
  pick = perfbench::PickTail(Range(999));
  CHECK(pick.ok && pick.percentile == 90);
  CHECK(pick.value == 900);
  CHECK(pick.beyond == 99);
  // 10000 samples reach p99.9 (10 beyond).
  pick = perfbench::PickTail(Range(10000));
  CHECK(pick.ok && pick.percentile == 99.9 && pick.beyond == 10);
  // Candidates may be given in any order; the highest qualifying wins.
  pick = perfbench::PickTail(Range(200), {50, 95, 90});
  CHECK(pick.ok && pick.percentile == 95 && pick.beyond == 10);
  // 20 samples: only the median has 10 beyond; 19 have too few for any.
  pick = perfbench::PickTail(Range(20), {99, 90, 50});
  CHECK(pick.ok && pick.percentile == 50 && pick.value == 10);
  pick = perfbench::PickTail(Range(19), {99, 90, 50});
  CHECK(!pick.ok && pick.samples == 19);
  pick = perfbench::PickTail({}, {99});
  CHECK(!pick.ok && pick.samples == 0);
}

void TestSelfTimes() {
  // root [0,100) with children a [10,40) and b [30,60) overlapping, and
  // c [90,120) running past the root's end; a has child a1 [15,25).
  std::vector<perfbench::Span> spans = {
      {1, 0, 7, "root", 0, 100},  {2, 1, 7, "a", 10, 40},
      {3, 1, 7, "b", 30, 60},     {4, 1, 7, "c", 90, 120},
      {5, 2, 7, "a1", 15, 25},    {6, 0, 8, "root", 0, 10},
  };
  const auto self = perfbench::SelfTimes(spans);
  // root covered by [10,60) u [90,100) = 60 -> self 40; second root 10.
  CHECK(self.at("root").count == 2);
  CHECK(self.at("root").total_us == 110);
  CHECK(self.at("root").self_us == 50);
  CHECK(self.at("a").self_us == 20);
  CHECK(self.at("b").self_us == 30);
  CHECK(self.at("c").self_us == 30);
  CHECK(self.at("a1").self_us == 10);
  // Self times add up to the roots' durations, plus what escapes a
  // parent (c's 20 us past root's end), plus overlap of parallel
  // siblings (a and b both run during [30,40)).
  int64_t sum = 0;
  for (const auto& [name, t] : self) sum += t.self_us;
  CHECK(sum == 110 + 20 + 10);
}

void TestSpanLog() {
  perfbench::SpanLog off(false);
  CHECK(off.NewTrace() == 0);
  CHECK(off.Begin("x", 0, 0) == 0);
  off.End(0);
  CHECK(off.Snapshot().empty());
  perfbench::SpanLog on(true);
  const uint64_t trace = on.NewTrace();
  {
    perfbench::ScopedSpan outer(on, "outer", 0, trace);
    perfbench::ScopedSpan inner(on, "inner", outer.id(), trace);
    CHECK(inner.id() != outer.id());
  }
  const auto spans = on.Snapshot();
  CHECK(spans.size() == 2);
  CHECK(spans[1].parent == spans[0].id);
  CHECK(spans[0].end_us >= spans[1].end_us);
}

void TestRowsDigest() {
  using scalewall::cubrick::ResultRow;
  const std::vector<ResultRow> a = {{{1, 2}, {1.5, 0.0}}};
  std::vector<ResultRow> b = a;
  CHECK(perfbench::RowsDigest(a) == perfbench::RowsDigest(b));
  b[0].values[1] = -0.0;  // renders "-0" instead of "0"
  CHECK(perfbench::RowsDigest(a) != perfbench::RowsDigest(b));
  b = a;
  b[0].key[1] = 3;
  CHECK(perfbench::RowsDigest(a) != perfbench::RowsDigest(b));
  b = a;
  b.push_back(a[0]);
  CHECK(perfbench::RowsDigest(a) != perfbench::RowsDigest(b));
  // Moving a value between key and values changes the digest.
  const std::vector<ResultRow> c = {{{1}, {2.0}}};
  const std::vector<ResultRow> d = {{{1, 2}, {}}};
  CHECK(perfbench::RowsDigest(c) != perfbench::RowsDigest(d));
  CHECK(perfbench::RowsDigest({}) != perfbench::RowsDigest(c));
}

}  // namespace

int main() {
  TestPercentile();
  TestPickTail();
  TestSelfTimes();
  TestSpanLog();
  TestRowsDigest();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
