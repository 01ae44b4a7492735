// Unit tests for the scalewall::vec kernel library (ISSUE 6): selection
// vector filter kernels, IN probe structures, join probes, mixed-radix
// and hashed group-slot computation, and the templated accumulation
// kernels — each checked against a straightforward scalar reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "cubrick/query.h"
#include "vec/agg.h"
#include "vec/filter.h"
#include "vec/group.h"
#include "vec/selvec.h"

namespace scalewall::vec {
namespace {

using cubrick::AggState;

TEST(SelVecTest, IotaCoversRange) {
  SelVec sel;
  SelIota(3, 7, sel);
  EXPECT_EQ(sel, (SelVec{3, 4, 5, 6}));
  SelIota(5, 5, sel);
  EXPECT_TRUE(sel.empty());
}

TEST(FilterKernelTest, RangeInitMatchesScalar) {
  Rng rng(7);
  std::vector<uint32_t> col(1000);
  for (auto& v : col) v = static_cast<uint32_t>(rng.NextBounded(100));
  SelVec sel;
  SelRangeInit(col.data(), 100, 900, 20, 60, sel);
  SelVec expect;
  for (RowIndex i = 100; i < 900; ++i) {
    if (col[i] >= 20 && col[i] <= 60) expect.push_back(i);
  }
  EXPECT_EQ(sel, expect);
}

TEST(FilterKernelTest, RangeInitFullDomainAndEmpty) {
  std::vector<uint32_t> col = {0, 5, 4294967295u, 7};
  SelVec sel;
  // lo=0, hi=UINT32_MAX admits everything (the unsigned-wrap compare
  // must not reject boundary values).
  SelRangeInit(col.data(), 0, 4, 0, 4294967295u, sel);
  EXPECT_EQ(sel, (SelVec{0, 1, 2, 3}));
  // An impossible band admits nothing.
  SelRangeInit(col.data(), 0, 4, 100, 200, sel);
  EXPECT_TRUE(sel.empty());
}

TEST(FilterKernelTest, RangeRefineCompactsInPlace) {
  std::vector<uint32_t> col = {9, 1, 5, 5, 2, 8};
  SelVec sel = {0, 2, 3, 4};  // pre-selected rows
  SelRangeRefine(col.data(), 2, 6, sel);
  EXPECT_EQ(sel, (SelVec{2, 3, 4}));
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
  std::vector<double> metric(kRows);
  for (auto& v : metric) v = rng.NextDouble() * 100 - 50;
  std::vector<uint32_t> group(kRows);
  for (auto& g : group) g = static_cast<uint32_t>(rng.NextBounded(5));
  SelVec rows;
  for (uint32_t i = 0; i < kRows; i += 2) rows.push_back(i);
  std::vector<uint32_t> slots(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) slots[i] = group[rows[i]];

  const size_t stride = 2;  // two aggregations interleaved
  std::vector<AggState> states(5 * stride);
  AccumulateColumn(states.data(), stride, 0, slots.data(), rows.data(),
                   rows.size(), metric.data());
  AccumulateConst(states.data(), stride, 1, slots.data(), rows.size(), 1.0);

  std::vector<AggState> expect(5 * stride);
  for (uint32_t row : rows) {
    expect[group[row] * stride + 0].Add(metric[row]);
    expect[group[row] * stride + 1].Add(1.0);
  }
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_TRUE(std::memcmp(&states[i].sum, &expect[i].sum,
                            sizeof(double)) == 0);
    EXPECT_EQ(states[i].count, expect[i].count);
    EXPECT_EQ(states[i].min, expect[i].min);
    EXPECT_EQ(states[i].max, expect[i].max);
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
