// Selection vectors: the currency of the vectorized scan kernels.
//
// A selection vector is a strictly ascending list of row indices that
// survived every predicate applied so far. Kernels either *initialize* a
// selection (from a raw column and a predicate, or as the identity over a
// row range) or *refine* one in place (each refinement compacts the
// surviving indices to the front). Because every kernel preserves the
// ascending order, downstream aggregation kernels visit rows in exactly
// the order a row-at-a-time interpreter would — which is what makes the
// vectorized engine bit-identical to the interpreted oracle even for
// non-associative float accumulation.

#ifndef SCALEWALL_VEC_SELVEC_H_
#define SCALEWALL_VEC_SELVEC_H_

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace scalewall::vec {

// Row index within one data chunk (brick row ranges are < 2^32).
using RowIndex = uint32_t;

// An allocator whose resize() leaves new elements uninitialized: scan
// scratch is sized to a chunk and then written by a kernel, so zeroing
// it first would be a wasted pass per chunk.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// Scan scratch of kernel-written values.
template <typename T>
using ScratchVec = std::vector<T, DefaultInitAllocator<T>>;

// Ascending list of surviving row indices.
using SelVec = ScratchVec<RowIndex>;

}  // namespace scalewall::vec

#endif  // SCALEWALL_VEC_SELVEC_H_
