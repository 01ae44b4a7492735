// Unit tests for the scalewall::vec kernel library: the fused
// range-selection + key scan kernel (both bodies), IN probe structures,
// join probes, mixed-radix and hashed group-slot computation, and the
// templated accumulation kernels — each checked against a
// straightforward scalar reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "cubrick/query.h"
#include "vec/agg.h"
#include "vec/filter.h"
#include "vec/group.h"
#include "vec/scan_kernel.h"
#include "vec/selvec.h"

namespace scalewall::vec {
namespace {

using cubrick::AggState;

// The kernel bodies this host can run: the portable one everywhere, the
// AVX-512 one where the CPU has it.
std::vector<const ScanKernel*> Bodies() {
  std::vector<const ScanKernel*> out = {&PortableScanKernel()};
  if (Avx512ScanKernel() != nullptr) out.push_back(Avx512ScanKernel());
  return out;
}

// Runs `kernel` over [begin, end) into exactly-sized (plus pad) outputs.
SelVec Select(const ScanKernel& kernel, const std::vector<RangeColumn>& ranges,
              const std::vector<KeyColumn>& keys, RowIndex begin,
              RowIndex end, std::vector<uint32_t>* keys_out = nullptr) {
  SelVec rows(end - begin + kSelectPad);
  std::vector<uint32_t> key_buf(end - begin + kSelectPad);
  const size_t n = kernel.select_keys(ranges.data(), ranges.size(),
                                      keys.data(), keys.size(), begin, end,
                                      rows.data(), key_buf.data());
  rows.resize(n);
  key_buf.resize(keys.empty() ? 0 : n);
  if (keys_out != nullptr) *keys_out = std::move(key_buf);
  return rows;
}

TEST(SelVecTest, IotaCoversRange) {
  // With no range filter every row of the range is selected.
  for (const ScanKernel* kernel : Bodies()) {
    SCOPED_TRACE(ScanIsaName(kernel->isa));
    EXPECT_EQ(Select(*kernel, {}, {}, 3, 7), (SelVec{3, 4, 5, 6}));
    EXPECT_TRUE(Select(*kernel, {}, {}, 5, 5).empty());
    SelVec wide;
    for (RowIndex i = 9; i < 50; ++i) wide.push_back(i);
    EXPECT_EQ(Select(*kernel, {}, {}, 9, 50), wide);
  }
}

TEST(FilterKernelTest, RangeInitMatchesScalar) {
  Rng rng(7);
  std::vector<uint32_t> col(1000);
  for (auto& v : col) v = static_cast<uint32_t>(rng.NextBounded(100));
  SelVec expect;
  for (RowIndex i = 100; i < 900; ++i) {
    if (col[i] >= 20 && col[i] <= 60) expect.push_back(i);
  }
  for (const ScanKernel* kernel : Bodies()) {
    SCOPED_TRACE(ScanIsaName(kernel->isa));
    EXPECT_EQ(Select(*kernel, {{col.data(), 20, 60}}, {}, 100, 900), expect);
  }
}

TEST(FilterKernelTest, RangeInitFullDomainAndEmpty) {
  std::vector<uint32_t> col = {0, 5, 4294967295u, 7};
  for (const ScanKernel* kernel : Bodies()) {
    SCOPED_TRACE(ScanIsaName(kernel->isa));
    // lo=0, hi=UINT32_MAX admits everything (the unsigned-wrap compare
    // must not reject boundary values).
    EXPECT_EQ(Select(*kernel, {{col.data(), 0, 4294967295u}}, {}, 0, 4),
              (SelVec{0, 1, 2, 3}));
    // An impossible band admits nothing.
    EXPECT_TRUE(Select(*kernel, {{col.data(), 100, 200}}, {}, 0, 4).empty());
    // A band ending at UINT32_MAX keeps only the top value.
    EXPECT_EQ(Select(*kernel, {{col.data(), 8, 4294967295u}}, {}, 0, 4),
              (SelVec{2}));
  }
}

TEST(FilterKernelTest, RangeRefineCompactsInPlace) {
  // The second range narrows the first one's survivors.
  std::vector<uint32_t> first = {9, 1, 5, 5, 2, 8};
  std::vector<uint32_t> second = {0, 7, 3, 3, 2, 3};
  for (const ScanKernel* kernel : Bodies()) {
    SCOPED_TRACE(ScanIsaName(kernel->isa));
    EXPECT_EQ(Select(*kernel,
                     {{first.data(), 2, 8}, {second.data(), 2, 6}}, {}, 0,
                     6),
              (SelVec{2, 3, 4, 5}));
    EXPECT_EQ(Select(*kernel,
                     {{first.data(), 2, 6}, {second.data(), 3, 3}}, {}, 0,
                     6),
              (SelVec{2, 3}));
  }
}

// --- fused scan kernel: both bodies against the scalar reference ---
//
// The reference is the definition: a row survives when every range
// admits it, and its key is the mixed-radix sum the column-at-a-time
// slot kernel (SlotAccumulate) computes over the survivors.
void ExpectBodyMatchesReference(const ScanKernel& kernel) {
  Rng rng(0x5CA9);
  constexpr size_t kCols = 5;
  constexpr size_t kRows = 2 * 4096 + 77;
  // Small domains make every selectivity reachable; one column holds the
  // uint32 extremes.
  std::vector<std::vector<uint32_t>> cols(kCols, std::vector<uint32_t>(kRows));
  const uint32_t domains[kCols] = {4, 16, 64, 3, 0};
  for (size_t c = 0; c < kCols; ++c) {
    for (uint32_t& v : cols[c]) {
      v = domains[c] != 0 ? static_cast<uint32_t>(rng.NextBounded(domains[c]))
                          : (rng.NextBool(0.5) ? 4294967295u
                                               : static_cast<uint32_t>(
                                                     rng.Next()));
    }
  }
  // Row ranges: tails of 0-15 rows, 4,096-row chunk edges, and ranges
  // that start mid-column.
  std::vector<std::pair<RowIndex, RowIndex>> spans;
  for (RowIndex len = 0; len < 40; ++len) spans.push_back({0, len});
  for (RowIndex len = 0; len < 16; ++len) spans.push_back({13, 13 + len});
  spans.push_back({0, 4096});
  spans.push_back({0, 4095});
  spans.push_back({1, 4097});
  spans.push_back({4096, 8192});
  spans.push_back({4000, 4200});
  spans.push_back({777, static_cast<RowIndex>(kRows)});
  spans.push_back({0, static_cast<RowIndex>(kRows)});

  for (int trial = 0; trial < 400; ++trial) {
    const auto [begin, end] = spans[static_cast<size_t>(trial) % spans.size()];
    std::vector<RangeColumn> ranges;
    for (uint64_t f = 0, nr = rng.NextBounded(5); f < nr; ++f) {
      const size_t c = rng.NextBounded(kCols);
      uint32_t lo = 0;
      uint32_t hi = 4294967295u;
      switch (rng.NextBounded(4)) {
        case 0:  // all pass
          break;
        case 1:  // none pass (outside the small domains)
          lo = 100;
          hi = 200;
          break;
        default: {
          const uint32_t dom = domains[c] != 0 ? domains[c] : 4294967295u;
          lo = static_cast<uint32_t>(rng.NextBounded(dom));
          hi = lo + static_cast<uint32_t>(rng.NextBounded(dom - lo));
        }
      }
      ranges.push_back({cols[c].data(), lo, hi});
    }
    std::vector<KeyColumn> keys;
    uint32_t stride = 1;
    for (uint64_t k = 0, nk = rng.NextBounded(4); k < nk; ++k) {
      const size_t c = rng.NextBounded(kCols - 1);  // bounded domains
      keys.push_back({cols[c].data(), stride});
      stride *= domains[c];
    }
    std::reverse(keys.begin(), keys.end());

    SelVec expect_rows;
    for (RowIndex r = begin; r < end; ++r) {
      bool pass = true;
      for (const RangeColumn& f : ranges) {
        pass = pass && f.col[r] >= f.lo && f.col[r] <= f.hi;
      }
      if (pass) expect_rows.push_back(r);
    }
    std::vector<uint32_t> expect_keys(keys.empty() ? 0 : expect_rows.size(),
                                      0);
    for (const KeyColumn& k : keys) {
      SlotAccumulate(k.col, expect_rows.data(), expect_rows.size(), k.stride,
                     expect_keys.data());
    }

    std::vector<uint32_t> got_keys;
    const SelVec got = Select(kernel, ranges, keys, begin, end, &got_keys);
    ASSERT_EQ(got, expect_rows) << "trial " << trial << " [" << begin << ", "
                                << end << ") ranges=" << ranges.size();
    ASSERT_EQ(got_keys, expect_keys) << "trial " << trial;
  }
}

TEST(ScanKernelTest, PortableBodyMatchesReference) {
  ExpectBodyMatchesReference(PortableScanKernel());
}

TEST(ScanKernelTest, Avx512BodyMatchesReference) {
  if (Avx512ScanKernel() == nullptr) {
    GTEST_SKIP() << "this CPU (or build target) has no AVX-512F; only the "
                    "portable body runs here";
  }
  EXPECT_EQ(Avx512ScanKernel()->isa, ScanIsa::kAvx512);
  ExpectBodyMatchesReference(*Avx512ScanKernel());
}

TEST(ScanKernelTest, ActiveBodyFollowsTheCpu) {
  const ScanIsa expect = Avx512ScanKernel() != nullptr ? ScanIsa::kAvx512
                                                       : ScanIsa::kPortable;
  EXPECT_EQ(ActiveScanKernel().isa, expect);
  EXPECT_EQ(&ActiveScanKernel(), &ActiveScanKernel());
  EXPECT_STREQ(ScanIsaName(ScanIsa::kAvx512), "avx512");
  EXPECT_STREQ(ScanIsaName(ScanIsa::kPortable), "portable");
}

TEST(InSetTest, BitsetModeMatchesLinearFind) {
  Rng rng(11);
  std::vector<uint32_t> values;
  for (int i = 0; i < 10; ++i) {
    values.push_back(static_cast<uint32_t>(rng.NextBounded(64)));
  }
  values.push_back(200);  // beyond the domain: can never match a stored row
  InSet set(values, /*domain=*/64);
  EXPECT_TRUE(set.use_bitset());
  for (uint32_t v = 0; v < 70; ++v) {
    const bool expect =
        v < 64 &&
        std::find(values.begin(), values.end(), v) != values.end();
    EXPECT_EQ(set.Contains(v), expect) << v;
  }
}

TEST(InSetTest, SortedModeMatchesLinearFind) {
  std::vector<uint32_t> values = {7, 3, 3, 4000000000u, 7, 12};
  InSet set(values, /*domain=*/4294967295u);  // too big for a bitset
  EXPECT_FALSE(set.use_bitset());
  for (uint32_t v : {0u, 3u, 4u, 7u, 12u, 4000000000u, 13u}) {
    const bool expect =
        std::find(values.begin(), values.end(), v) != values.end();
    EXPECT_EQ(set.Contains(v), expect) << v;
  }
}

TEST(FilterKernelTest, InInitAndRefine) {
  std::vector<uint32_t> col = {1, 2, 3, 4, 5, 2, 1};
  InSet set({2, 5}, 8);
  SelVec sel;
  SelInInit(col.data(), 0, 7, set, sel);
  EXPECT_EQ(sel, (SelVec{1, 4, 5}));
  SelVec refine = {0, 1, 2, 3};
  SelInRefine(col.data(), set, refine);
  EXPECT_EQ(refine, (SelVec{1}));
}

TEST(JoinKernelTest, JoinRangeRefineDropsUnmatchedAndOutOfDomain) {
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  // attr[key]: key 0 -> 5, key 1 -> unset, key 2 -> 9; domain 3.
  std::vector<uint32_t> attr = {5, kNone, 9};
  std::vector<uint32_t> keys = {0, 1, 2, 3, 0};  // key 3 out of domain
  SelVec sel = {0, 1, 2, 3, 4};
  SelJoinRangeRefine(keys.data(), attr.data(), 3, kNone, 5, 8, sel);
  EXPECT_EQ(sel, (SelVec{0, 4}));  // only key 0 resolves to attr in [5,8]
}

TEST(JoinKernelTest, NullAttributeColumnMatchesNothing) {
  std::vector<uint32_t> keys = {0, 1};
  SelVec sel = {0, 1};
  SelJoinRangeRefine(keys.data(), nullptr, 3, static_cast<uint32_t>(-1), 0,
                     10, sel);
  EXPECT_TRUE(sel.empty());
}

TEST(JoinKernelTest, GatherKeepsParallelColumnsAligned) {
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> attr_a = {10, 11, kNone};
  std::vector<uint32_t> attr_b = {20, kNone, 22};
  std::vector<uint32_t> keys = {0, 1, 2, 0};
  SelVec sel = {0, 1, 2, 3};
  std::vector<uint32_t> got_a, got_b;
  GatherJoinAttribute(keys.data(), attr_a.data(), 3, kNone, sel, {}, got_a);
  EXPECT_EQ(sel, (SelVec{0, 1, 3}));  // key 2 had no attr_a
  EXPECT_EQ(got_a, (std::vector<uint32_t>{10, 11, 10}));
  GatherJoinAttribute(keys.data(), attr_b.data(), 3, kNone, sel, {&got_a},
                      got_b);
  EXPECT_EQ(sel, (SelVec{0, 3}));  // key 1 had no attr_b
  EXPECT_EQ(got_a, (std::vector<uint32_t>{10, 10}));  // stayed aligned
  EXPECT_EQ(got_b, (std::vector<uint32_t>{20, 20}));
}

TEST(DirectLayoutTest, StridesAndDecodeRoundTrip) {
  DirectLayout layout;
  ASSERT_TRUE(layout.Build({4, 3, 5}, 4096));
  EXPECT_EQ(layout.total_slots, 60u);
  // Last column is the least-significant digit.
  EXPECT_EQ(layout.strides, (std::vector<uint64_t>{15, 5, 1}));
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 3; ++b) {
      for (uint32_t c = 0; c < 5; ++c) {
        const uint64_t slot = a * 15 + b * 5 + c;
        uint32_t key[3];
        layout.DecodeSlot(slot, key);
        EXPECT_EQ(key[0], a);
        EXPECT_EQ(key[1], b);
        EXPECT_EQ(key[2], c);
      }
    }
  }
}

TEST(DirectLayoutTest, RejectsOversizedAndOverflowingSpaces) {
  DirectLayout layout;
  EXPECT_FALSE(layout.Build({65, 64}, 4096));  // 4160 > 4096
  EXPECT_TRUE(layout.Build({64, 64}, 4096));   // exactly the cap
  // A product that would overflow uint64 must be rejected, not wrapped.
  EXPECT_FALSE(layout.Build(
      {4294967295u, 4294967295u, 4294967295u},
      std::numeric_limits<uint64_t>::max()));
}

TEST(SlotKernelTest, MixedRadixSlotsMatchScalar) {
  DirectLayout layout;
  ASSERT_TRUE(layout.Build({4, 8}, 4096));
  std::vector<uint32_t> col0 = {0, 1, 2, 3, 1};
  std::vector<uint32_t> col1 = {7, 0, 3, 5, 5};
  SelVec rows = {0, 2, 4};
  std::vector<uint32_t> slots(rows.size(), 0);
  SlotAccumulate(col0.data(), rows.data(), rows.size(), layout.strides[0],
                 slots.data());
  SlotAccumulate(col1.data(), rows.data(), rows.size(), layout.strides[1],
                 slots.data());
  EXPECT_EQ(slots,
            (std::vector<uint32_t>{0 * 8 + 7, 2 * 8 + 3, 1 * 8 + 5}));

  std::vector<uint32_t> dense(5, 0);
  SlotAccumulateDense(col0.data(), 0, 5, layout.strides[0], dense.data());
  SlotAccumulateDense(col1.data(), 0, 5, layout.strides[1], dense.data());
  EXPECT_EQ(dense, (std::vector<uint32_t>{7, 8, 19, 29, 13}));

  std::vector<uint32_t> gathered_vals = {3, 1};
  std::vector<uint32_t> gslots = {1, 2};
  SlotAccumulateGathered(gathered_vals.data(), 2, 8, gslots.data());
  EXPECT_EQ(gslots, (std::vector<uint32_t>{25, 10}));
}

TEST(GroupKeyIndexTest, AssignsSlotsInFirstSeenOrder) {
  GroupKeyIndex index(2);
  const uint32_t k0[] = {1, 2};
  const uint32_t k1[] = {2, 1};
  const uint32_t k2[] = {1, 2};
  EXPECT_EQ(index.SlotFor(k0), 0u);
  EXPECT_EQ(index.SlotFor(k1), 1u);
  EXPECT_EQ(index.SlotFor(k2), 0u);  // same key, same slot
  EXPECT_EQ(index.num_slots(), 2u);
  EXPECT_EQ(index.KeyAt(1)[0], 2u);
  EXPECT_EQ(index.KeyAt(1)[1], 1u);
}

TEST(GroupKeyIndexTest, SurvivesRehashGrowth) {
  GroupKeyIndex index(3);
  Rng rng(3);
  std::vector<std::vector<uint32_t>> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back({static_cast<uint32_t>(rng.NextBounded(20)),
                    static_cast<uint32_t>(rng.NextBounded(20)),
                    static_cast<uint32_t>(rng.NextBounded(20))});
  }
  std::vector<uint32_t> slots;
  for (const auto& k : keys) slots.push_back(index.SlotFor(k.data()));
  // Every key maps back to the same slot after all the growth, and the
  // stored flat keys round-trip.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.SlotFor(keys[i].data()), slots[i]);
    EXPECT_EQ(std::memcmp(index.KeyAt(slots[i]), keys[i].data(),
                          3 * sizeof(uint32_t)),
              0);
  }
}

TEST(SlotKernelTest, PackedKeysPastThirtyTwoBits) {
  DirectLayout layout;
  const uint32_t big = 1u << 20;
  ASSERT_TRUE(layout.Build({big, big, 7}, UINT64_MAX));
  std::vector<uint32_t> col0 = {big - 1, 3};
  std::vector<uint32_t> col1 = {5, big - 2};
  std::vector<uint32_t> col2 = {6, 0};
  std::vector<uint64_t> packed(2, 0);
  SlotAccumulateDense(col0.data(), 0, 2, layout.strides[0], packed.data());
  SlotAccumulateDense(col1.data(), 0, 2, layout.strides[1], packed.data());
  SlotAccumulateDense(col2.data(), 0, 2, layout.strides[2], packed.data());
  uint32_t key[3];
  layout.DecodeSlot(packed[0], key);
  EXPECT_EQ(key[0], big - 1);
  EXPECT_EQ(key[1], 5u);
  EXPECT_EQ(key[2], 6u);
  // Integer order of packed keys is lexicographic key order.
  EXPECT_GT(packed[0], packed[1]);
}

// Assigns `keys` through a fresh map and returns the slots.
std::vector<uint32_t> AssignAll(uint64_t key_space,
                                const std::vector<uint64_t>& keys) {
  PackedSlotMap map(key_space);
  std::vector<uint32_t> slots(keys.size());
  map.Assign(keys.data(), keys.size(), slots.data());
  EXPECT_EQ(map.keys().size(), map.num_slots());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.keys()[slots[i]], keys[i]);
  }
  return slots;
}

TEST(PackedSlotMapTest, FirstSeenSlotsInRemapAndHashModes) {
  const std::vector<uint64_t> keys = {9, 3, 9, 0, 3, 7};
  const std::vector<uint32_t> expected = {0, 1, 0, 2, 1, 3};
  EXPECT_EQ(AssignAll(10, keys), expected);  // remap array
  EXPECT_EQ(AssignAll(PackedSlotMap::kMaxRemapSlots, keys), expected);
  EXPECT_EQ(AssignAll(PackedSlotMap::kMaxRemapSlots + 1, keys), expected);
  // The remap scratch came back all-zero: a second map sees fresh keys.
  EXPECT_EQ(AssignAll(10, {7, 9}), (std::vector<uint32_t>{0, 1}));
}

TEST(PackedSlotMapTest, SlotsByKeyWalksOrSorts) {
  // A dense remap walk, a sparse remap (sorted), the hash (sorted).
  for (uint64_t space : {uint64_t{16}, PackedSlotMap::kMaxRemapSlots,
                         PackedSlotMap::kMaxRemapSlots + 1}) {
    PackedSlotMap map(space);
    const uint64_t keys[] = {9, 3, 15, 0, 7, 3};
    uint32_t slots[6];
    map.Assign(keys, 6, slots);
    // Keys 0, 3, 7, 9, 15 hold slots 3, 1, 4, 0, 2.
    EXPECT_EQ(map.SlotsByKey(), (std::vector<uint32_t>{3, 1, 4, 0, 2}))
        << space;
  }
}

TEST(PackedSlotMapTest, ThirtyTwoBitKeysAssignInPlace) {
  // The fused scan kernel's 32-bit keys become slots in the same buffer,
  // in both the remap and the hash mode.
  for (uint64_t key_space : {uint64_t{1000}, uint64_t{1} << 31}) {
    PackedSlotMap wide(key_space);
    PackedSlotMap narrow(key_space);
    const uint64_t keys64[] = {7, 3, 7, 999, 3, 0};
    uint32_t buf[] = {7, 3, 7, 999, 3, 0};
    uint32_t expect[6];
    wide.Assign(keys64, 6, expect);
    narrow.Assign(buf, 6, buf);
    EXPECT_TRUE(std::equal(buf, buf + 6, expect)) << key_space;
    EXPECT_EQ(narrow.keys(), wide.keys());
  }
}

TEST(PackedSlotMapTest, HashModeSurvivesGrowth) {
  Rng rng(9);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.NextBounded(3000) << 40);
  PackedSlotMap map(UINT64_MAX);
  std::vector<uint32_t> slots(keys.size());
  map.Assign(keys.data(), keys.size(), slots.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.keys()[slots[i]], keys[i]);
  }
}

TEST(PackedSlotMapTest, TwoLiveMapsOnOneThreadStayApart) {
  PackedSlotMap a(100);
  PackedSlotMap b(100);  // the thread's scratch is taken: owns its array
  const uint64_t ka[] = {5, 6};
  const uint64_t kb[] = {6, 5, 4};
  uint32_t sa[2];
  uint32_t sb[3];
  a.Assign(ka, 2, sa);
  b.Assign(kb, 3, sb);
  EXPECT_EQ(sa[0], 0u);
  EXPECT_EQ(sa[1], 1u);
  EXPECT_EQ(sb[0], 0u);
  EXPECT_EQ(sb[1], 1u);
  EXPECT_EQ(sb[2], 2u);
}

TEST(AggKernelTest, AccumulateMatchesScalarAddSequence) {
  Rng rng(17);
  const size_t kRows = 300;
  std::vector<double> m0(kRows);
  std::vector<double> m1(kRows);
  for (auto& v : m0) v = rng.NextDouble() * 100 - 50;
  for (auto& v : m1) v = rng.NextDouble() * 10 - 5;
  std::vector<uint32_t> group(kRows);
  for (auto& g : group) g = static_cast<uint32_t>(rng.NextBounded(5));
  SelVec rows;
  for (uint32_t i = 0; i < kRows; i += 2) rows.push_back(i);
  std::vector<uint32_t> slots(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) slots[i] = group[rows[i]];

  // 1-3 aggregations take the fixed-width loops, 5 the generic one;
  // nullptr columns are COUNTs.
  const std::vector<std::vector<const double*>> shapes = {
      {m0.data()},
      {m0.data(), nullptr},
      {nullptr, m1.data(), m0.data()},
      {m1.data(), nullptr, m0.data(), m0.data(), nullptr}};
  for (const std::vector<const double*>& columns : shapes) {
    const size_t naggs = columns.size();
    std::vector<AggState> states(5 * naggs);
    AccumulateRows(states.data(), naggs, columns.data(), slots.data(),
                   rows.data(), rows.size());
    std::vector<AggState> expect(5 * naggs);
    for (size_t a = 0; a < naggs; ++a) {
      for (uint32_t row : rows) {
        expect[group[row] * naggs + a].Add(
            columns[a] != nullptr ? columns[a][row] : 1.0);
      }
    }
    for (size_t i = 0; i < states.size(); ++i) {
      EXPECT_TRUE(std::memcmp(&states[i].sum, &expect[i].sum,
                              sizeof(double)) == 0);
      EXPECT_EQ(states[i].count, expect[i].count);
      EXPECT_EQ(states[i].min, expect[i].min);
      EXPECT_EQ(states[i].max, expect[i].max);
    }
  }
}

TEST(AggKernelTest, DenseAndGlobalVariants) {
  std::vector<double> metric = {1.5, -2.0, 3.25, 0.0, 8.0};
  std::vector<uint32_t> slot_col = {0, 1, 0, 2, 1};

  std::vector<AggState> by_slot(3);
  AccumulateColumnBySlotColumn(by_slot.data(), 1, 0, slot_col.data(), 0, 5,
                               metric.data());
  EXPECT_DOUBLE_EQ(by_slot[0].sum, 4.75);
  EXPECT_DOUBLE_EQ(by_slot[1].sum, 6.0);
  EXPECT_EQ(by_slot[2].count, 1);
  EXPECT_DOUBLE_EQ(by_slot[2].min, 0.0);

  AggState global;
  AccumulateColumnGlobalDense(global, 1, 3, metric.data());
  EXPECT_DOUBLE_EQ(global.sum, 1.25);  // rows 1..3
  EXPECT_EQ(global.count, 3);
  EXPECT_DOUBLE_EQ(global.min, -2.0);
  EXPECT_DOUBLE_EQ(global.max, 3.25);

  AggState counted;
  AccumulateConstGlobal(counted, 7, 1.0);
  EXPECT_EQ(counted.count, 7);
  EXPECT_DOUBLE_EQ(counted.sum, 7.0);

  AggState selected;
  SelVec rows = {0, 4};
  AccumulateColumnGlobal(selected, rows.data(), rows.size(), metric.data());
  EXPECT_DOUBLE_EQ(selected.sum, 9.5);
}

}  // namespace
}  // namespace scalewall::vec
