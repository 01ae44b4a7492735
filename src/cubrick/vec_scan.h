// Compiled vectorized scan plans (the fused per-query pipeline).
//
// BuildVecScanPlan resolves a validated Query against the schema and the
// join context ONCE — filter bounds, IN probe structures (bitset or
// sorted vector), raw dimension-table attribute columns, the group-by
// slot layout, and per-aggregation specs — so the per-brick scan
// (Brick::ScanRangeVec) runs straight-line kernels over raw columns with
// no per-row dispatch, map lookups, or std::find.
//
// Group states live in a flat slot-addressed array:
//   * kGlobal: no GROUP BY — a single state row;
//   * kDirect: the product of group-column cardinalities fits
//     kMaxDirectSlots — the slot is the mixed-radix number of the group
//     values (no hashing, no key storage);
//   * kPacked: the product fits in 64 bits — the same mixed-radix number
//     is a packed key, computed by the same column kernels and mapped to
//     a dense first-seen slot by a vec::PackedSlotMap (remap array or
//     integer hash; no per-row key assembly, no key memcmp);
//   * kHash: otherwise — a vec::GroupKeyIndex over the assembled keys
//     assigns dense slots.
// Range filters (and, for kDirect/kPacked plans that only filter by
// range, the group keys) are evaluated by the fused scan kernel
// (vec/scan_kernel.h), whose body the CPU picks; IN and join filters
// refine its selection.
// A VecExecState accumulates any number of ScanRangeVec calls and is
// flushed into a QueryResult at the end, in ascending key order
// (QueryResult::MergeSortedGroups), reproducing the interpreter's
// per-group Add() sequences bit-for-bit.

#ifndef SCALEWALL_CUBRICK_VEC_SCAN_H_
#define SCALEWALL_CUBRICK_VEC_SCAN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cubrick/query.h"
#include "cubrick/replicated_table.h"
#include "cubrick/schema.h"
#include "vec/filter.h"
#include "vec/group.h"
#include "vec/scan_kernel.h"
#include "vec/selvec.h"

namespace scalewall::obs {
class MetricsRegistry;
}

namespace scalewall::cubrick {

struct VecScanPlan {
  // Direct (mixed-radix) grouping is capped so dense state arrays stay
  // cheap to allocate and cache-resident; larger key spaces that still
  // pack into 64 bits use kPacked.
  static constexpr uint64_t kMaxDirectSlots = 4096;
  // Rows per processing chunk: selection vectors and slot arrays for one
  // chunk fit comfortably in L2.
  static constexpr size_t kChunkRows = 4096;

  struct RangeF {
    int dim;
    uint32_t lo;
    uint32_t hi;
  };
  struct InF {
    int dim;
    vec::InSet set;
  };
  // Joined-attribute filter with the dimension-table column resolved to
  // a raw pointer (nullptr when the attribute index is invalid — no row
  // can match, same as Attribute() returning kNoAttribute).
  struct JoinF {
    int fact_dim;
    const uint32_t* attr_col;
    uint32_t key_domain;
    uint32_t lo;
    uint32_t hi;
  };
  struct GroupJoin {
    int fact_dim;
    const uint32_t* attr_col;
    uint32_t key_domain;
  };
  struct AggSpec {
    int metric;     // ignored when is_count
    bool is_count;  // COUNT accumulates the constant 1.0
  };

  enum class GroupMode { kGlobal, kDirect, kPacked, kHash };

  std::vector<RangeF> ranges;
  std::vector<InF> ins;
  std::vector<JoinF> join_filters;
  std::vector<int> group_dims;       // query.group_by
  std::vector<GroupJoin> group_joins;
  std::vector<AggSpec> aggs;

  GroupMode mode = GroupMode::kGlobal;
  vec::DirectLayout layout;  // mixed-radix layout, kDirect and kPacked
  // Group-key arity: group_dims then group_joins, the interpreter's key
  // layout.
  size_t key_arity = 0;
  // The scan kernel computes the group keys in its selection pass: a
  // kDirect or kPacked plan with no IN filter, join filter or group
  // join, over a key space below 2^32. Other plans take their keys from
  // the column-at-a-time slot kernels.
  bool fused_keys = false;
  // The scan kernel body; BuildVecScanPlan leaves this CPU's.
  const vec::ScanKernel* kernel = &vec::ActiveScanKernel();

  bool has_filters() const {
    return !ranges.empty() || !ins.empty() || !join_filters.empty();
  }
};

// Compiles `query` (already Validate()d; `join` aligned with query.joins
// when joins are present, exactly as TablePartition::Execute requires).
// The plan borrows raw attribute columns from `join`, so it must not
// outlive the join context.
VecScanPlan BuildVecScanPlan(const TableSchema& schema, const Query& query,
                             const JoinContext* join);

// Sets scalewall_scan_kernel_info{isa="avx512|portable"} to 1: the scan
// kernel body this process runs.
void ExportScanKernelInfo(obs::MetricsRegistry& metrics);

// Group states in slots assigned in first-seen order by a
// vec::GroupKeyIndex, for keys that arrive in any order: the shuffle
// join's stage 2 rekeys groups into one (ApplyShuffleMapping). Flush
// sorts the slots by key once.
struct HashedGroups {
  HashedGroups(size_t arity, size_t num_aggs);

  // The num_aggs states of `key` (arity values), created on first use.
  AggState* StatesFor(const uint32_t* key);
  // Emits every group into `result` in ascending key order.
  void Flush(QueryResult& result) const;

  vec::GroupKeyIndex index;
  std::vector<AggState> states;  // slot-major, num_aggs per slot
  size_t num_aggs;
};

// Accumulation state + scratch buffers for one scan stream (one serial
// partition pass, or one morsel). Feed any number of ScanRangeVec calls,
// then Flush once. Build, use and destroy it on one thread (kPacked
// borrows the thread's remap scratch).
struct VecExecState {
  explicit VecExecState(const VecScanPlan& plan);

  const VecScanPlan* plan;
  // Slot-major state array: states[slot * num_aggs + agg]. One row in
  // kGlobal mode; layout.total_slots rows in kDirect; grows with the
  // slot map in kPacked and kHash.
  std::vector<AggState> states;
  std::optional<vec::PackedSlotMap> packed;  // kPacked
  vec::GroupKeyIndex hash;                   // kHash
  int64_t rows_scanned = 0;

  // Per-chunk scratch (reused across chunks and bricks).
  vec::SelVec sel;
  vec::ScratchVec<uint32_t> slots;              // fused keys, then slots
  std::vector<uint64_t> packed_keys;            // kPacked, unfused
  std::vector<std::vector<uint32_t>> gathered;  // one per group_join
  std::vector<uint32_t> key_scratch;
  // Per-brick kernel inputs: the plan's columns resolved on one brick.
  std::vector<vec::RangeColumn> range_cols;
  std::vector<vec::KeyColumn> key_cols;  // fused_keys only
  std::vector<const double*> agg_cols;   // nullptr = COUNT

  // Emits every populated group into `result` in ascending key order
  // (skipping untouched direct slots — the interpreter only creates
  // groups a surviving row reached) and adds rows_scanned. Call exactly
  // once per state.
  void Flush(QueryResult& result) const;
};

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_VEC_SCAN_H_
