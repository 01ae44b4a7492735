#include "vec/scan_kernel.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define SCALEWALL_VEC_AVX512_BODY 1
#include <immintrin.h>
#endif

namespace scalewall::vec {

namespace {

// The scalar selection: the first range seeds the selection, each
// further range compacts it in place, then each key column adds its
// digit for the survivors. Survivors are written unconditionally and
// the cursor advanced by the predicate's 0/1 result (lo <= v <= hi as
// one unsigned compare: v - lo wraps below lo).
size_t SelectKeysPortable(const RangeColumn* ranges, size_t nranges,
                          const KeyColumn* keys, size_t nkeys,
                          RowIndex begin, RowIndex end, RowIndex* rows_out,
                          uint32_t* keys_out) {
  size_t n = 0;
  if (nranges == 0) {
    for (RowIndex r = begin; r < end; ++r) rows_out[n++] = r;
  } else {
    const uint32_t* col = ranges[0].col;
    const uint32_t lo = ranges[0].lo;
    const uint32_t span = ranges[0].hi - lo;
    for (RowIndex r = begin; r < end; ++r) {
      rows_out[n] = r;
      n += (col[r] - lo) <= span ? 1 : 0;
    }
    for (size_t f = 1; f < nranges; ++f) {
      const uint32_t* fcol = ranges[f].col;
      const uint32_t flo = ranges[f].lo;
      const uint32_t fspan = ranges[f].hi - flo;
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        const RowIndex r = rows_out[i];
        rows_out[kept] = r;
        kept += (fcol[r] - flo) <= fspan ? 1 : 0;
      }
      n = kept;
    }
  }
  for (size_t k = 0; k < nkeys; ++k) {
    const uint32_t* col = keys[k].col;
    const uint32_t stride = keys[k].stride;
    if (k == 0) {
      for (size_t i = 0; i < n; ++i) keys_out[i] = col[rows_out[i]] * stride;
    } else {
      for (size_t i = 0; i < n; ++i) keys_out[i] += col[rows_out[i]] * stride;
    }
  }
  return n;
}

constexpr ScanKernel kPortable{ScanIsa::kPortable, &SelectKeysPortable};

#ifdef SCALEWALL_VEC_AVX512_BODY

// 16 rows per step: each range narrows a lane mask (lanes past `end`
// start cleared and are never loaded), the key is summed lane-wise, and
// the surviving lanes' row ids and keys are compressed to the front of
// a register and stored at the output cursor. Compression keeps lane
// order, so rows stay ascending.
__attribute__((target("avx512f"))) size_t SelectKeysAvx512(
    const RangeColumn* ranges, size_t nranges, const KeyColumn* keys,
    size_t nkeys, RowIndex begin, RowIndex end, RowIndex* rows_out,
    uint32_t* keys_out) {
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  size_t n = 0;
  for (size_t base = begin; base < end; base += 16) {
    const size_t left = end - base;
    __mmask16 keep = left >= 16 ? static_cast<__mmask16>(0xffff)
                                : static_cast<__mmask16>((1u << left) - 1);
    for (size_t f = 0; f < nranges && keep != 0; ++f) {
      const __m512i v = _mm512_maskz_loadu_epi32(keep, ranges[f].col + base);
      const __m512i off = _mm512_sub_epi32(
          v, _mm512_set1_epi32(static_cast<int>(ranges[f].lo)));
      keep = _mm512_mask_cmple_epu32_mask(
          keep, off,
          _mm512_set1_epi32(static_cast<int>(ranges[f].hi - ranges[f].lo)));
    }
    if (keep == 0) continue;
    const __m512i row_ids =
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(base)), lanes);
    _mm512_storeu_si512(rows_out + n,
                        _mm512_maskz_compress_epi32(keep, row_ids));
    if (nkeys > 0) {
      __m512i key = _mm512_setzero_si512();
      for (size_t k = 0; k < nkeys; ++k) {
        const __m512i v = _mm512_maskz_loadu_epi32(keep, keys[k].col + base);
        key = _mm512_add_epi32(
            key, _mm512_mullo_epi32(
                     v, _mm512_set1_epi32(static_cast<int>(keys[k].stride))));
      }
      _mm512_storeu_si512(keys_out + n,
                          _mm512_maskz_compress_epi32(keep, key));
    }
    n += static_cast<size_t>(__builtin_popcount(keep));
  }
  return n;
}

constexpr ScanKernel kAvx512{ScanIsa::kAvx512, &SelectKeysAvx512};

#endif  // SCALEWALL_VEC_AVX512_BODY

}  // namespace

const char* ScanIsaName(ScanIsa isa) {
  return isa == ScanIsa::kAvx512 ? "avx512" : "portable";
}

const ScanKernel& PortableScanKernel() { return kPortable; }

const ScanKernel* Avx512ScanKernel() {
#ifdef SCALEWALL_VEC_AVX512_BODY
  // __builtin_cpu_supports also checks that the OS saves the AVX-512
  // register state.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return supported ? &kAvx512 : nullptr;
#else
  return nullptr;
#endif
}

const ScanKernel& ActiveScanKernel() {
  static const ScanKernel& active =
      Avx512ScanKernel() != nullptr ? *Avx512ScanKernel() : kPortable;
  return active;
}

}  // namespace scalewall::vec
