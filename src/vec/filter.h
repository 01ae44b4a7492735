// Selection-vector filter kernels for IN lists and joined attributes.
//
// Range filters are evaluated by the fused scan kernel (vec/scan_kernel.h);
// the kernels here refine its selection, or seed one when a chunk has no
// range filter. Each evaluates one predicate over a uint32 column for a
// whole chunk of rows, either seeding a fresh selection vector or
// compacting an existing one. The loops are branch-light (survivors are
// written unconditionally and the cursor advanced by the predicate's 0/1
// result) — no per-row virtual dispatch, no std::find.

#ifndef SCALEWALL_VEC_FILTER_H_
#define SCALEWALL_VEC_FILTER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "vec/selvec.h"

namespace scalewall::vec {

// Compiled IN-list: a bitset probe when the filtered dimension's domain
// is small enough to afford one, a sorted-vector binary search otherwise.
// Matching semantics are identical to a linear std::find over the raw
// value list. The `domain` hint bounds the values the probed column can
// contain (the insert-time dimension-domain invariant); list values at or
// beyond it can never match a stored row and are dropped from the probe
// structure.
class InSet {
 public:
  // Domains up to this many values get a bitset (128 KiB of bits).
  static constexpr uint32_t kBitsetDomainLimit = 1u << 20;

  InSet(const std::vector<uint32_t>& values, uint32_t domain);

  bool Contains(uint32_t v) const {
    if (use_bitset_) {
      return v < domain_ &&
             (bits_[v >> 6] & (uint64_t{1} << (v & 63))) != 0;
    }
    return std::binary_search(sorted_.begin(), sorted_.end(), v);
  }

  bool use_bitset() const { return use_bitset_; }

 private:
  bool use_bitset_;
  uint32_t domain_ = 0;
  std::vector<uint64_t> bits_;     // bitset mode
  std::vector<uint32_t> sorted_;   // sorted unique values otherwise
};

// Seeds `sel` with every row in [begin, end) whose value is in `set`.
void SelInInit(const uint32_t* col, RowIndex begin, RowIndex end,
               const InSet& set, SelVec& sel);

// Compacts `sel`, keeping rows whose column value is in `set`.
void SelInRefine(const uint32_t* col, const InSet& set, SelVec& sel);

// Join-attribute probe: keys_col[row] indexes `attr_col` (an inner-join
// dimension-table attribute column of `key_domain` entries, `sentinel`
// marking absent keys). Keeps rows whose key resolves to an attribute in
// [lo, hi]; out-of-domain keys, absent keys, and a null attr_col (an
// attribute column that does not exist) never pass — inner-join
// semantics.
void SelJoinRangeRefine(const uint32_t* keys_col, const uint32_t* attr_col,
                        uint32_t key_domain, uint32_t sentinel, uint32_t lo,
                        uint32_t hi, SelVec& sel);

// Same probe used for grouping: resolves each selected row's key to its
// attribute value, appending to `out` (aligned with `sel`), and drops
// unmatched rows from *both* `sel` and every column in `parallel`
// (earlier gathered attribute columns that must stay aligned).
void GatherJoinAttribute(const uint32_t* keys_col, const uint32_t* attr_col,
                         uint32_t key_domain, uint32_t sentinel, SelVec& sel,
                         std::vector<std::vector<uint32_t>*> parallel,
                         std::vector<uint32_t>& out);

}  // namespace scalewall::vec

#endif  // SCALEWALL_VEC_FILTER_H_
