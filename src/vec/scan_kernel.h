// Fused range-selection + group-key scan kernel, with its body chosen
// at run time.
//
// One call reads every range-filter column and every group column of a
// row range once and writes the surviving rows, in ascending order,
// together with each survivor's mixed-radix group key (a 32-bit number:
// callers keep the key space below 2^32). Two bodies share that
// contract:
//
//  * an AVX-512 body: 16 rows per step, one unsigned compare per range
//    filter into a lane mask, the key summed lane-wise, then the row
//    indices and keys compressed by that mask and stored contiguously.
//    It is compiled for AVX-512F by a function attribute alone, so the
//    rest of the build keeps its baseline ISA;
//  * a portable scalar body, used on every other CPU.
//
// ActiveScanKernel() picks one the first time it is asked, from the
// CPU's feature flags; nothing else selects it. Both bodies emit rows in
// ascending order, so an accumulation over their output gives every
// group the same Add() sequence a row-at-a-time scan would: results do
// not depend on which body ran.

#ifndef SCALEWALL_VEC_SCAN_KERNEL_H_
#define SCALEWALL_VEC_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "vec/selvec.h"

namespace scalewall::vec {

// Range predicate lo <= col[row] <= hi over one column.
struct RangeColumn {
  const uint32_t* col;
  uint32_t lo;
  uint32_t hi;
};

// One digit of a mixed-radix key: col[row] * stride.
struct KeyColumn {
  const uint32_t* col;
  uint32_t stride;
};

// Entries past (end - begin) that the row and key outputs must have room
// for: the AVX-512 body stores 16 lanes at a time.
inline constexpr size_t kSelectPad = 16;

// Writes every row r in [begin, end) that passes all `nranges` ranges
// (all rows when nranges == 0) to rows_out[0, n) in ascending order and
// returns n. With nkeys > 0 it also writes keys_out[i] = sum over k of
// keys[k].col[rows_out[i]] * keys[k].stride, in uint32 arithmetic;
// keys_out may be null when nkeys == 0. Both outputs need room for
// (end - begin) + kSelectPad entries; entries past n are unspecified.
using SelectKeysFn = size_t (*)(const RangeColumn* ranges, size_t nranges,
                                const KeyColumn* keys, size_t nkeys,
                                RowIndex begin, RowIndex end,
                                RowIndex* rows_out, uint32_t* keys_out);

enum class ScanIsa { kPortable, kAvx512 };

struct ScanKernel {
  ScanIsa isa;
  SelectKeysFn select_keys;
};

// "portable" or "avx512" (the label of scalewall_scan_kernel_info).
const char* ScanIsaName(ScanIsa isa);

// The portable body, usable on every CPU.
const ScanKernel& PortableScanKernel();

// The AVX-512 body, or nullptr when this CPU lacks AVX-512F (or the
// build does not target x86-64).
const ScanKernel* Avx512ScanKernel();

// The body for this CPU: the AVX-512 one when available, else the
// portable one. Chosen once per process.
const ScanKernel& ActiveScanKernel();

}  // namespace scalewall::vec

#endif  // SCALEWALL_VEC_SCAN_KERNEL_H_
