// Grouped-aggregation accumulation kernels.
//
// Templated over the aggregation-state type (the engine instantiates
// them with cubrick::AggState) so the *arithmetic* is byte-for-byte the
// interpreter's Add(); only the loop structure changes: tight passes
// over the chunk's surviving rows, states addressed by precomputed
// slot — no per-row map lookups, no per-row dispatch.
//
// Every kernel visits rows in selection order (ascending row index), so
// each group's state receives the same values in the same order as a
// row-at-a-time scan — the bit-identity contract.

#ifndef SCALEWALL_VEC_AGG_H_
#define SCALEWALL_VEC_AGG_H_

#include <cstddef>
#include <cstdint>

namespace scalewall::vec {

// Every aggregation of each selected row in one pass:
// states[slots[i] * naggs + a].Add(columns[a][rows[i]]) for each
// aggregation a, or Add(1.0) where columns[a] is null (COUNT). A row's
// naggs states are adjacent, so the pass touches each slot's states
// together; each state still receives its rows in selection order.
template <size_t kAggs, typename State>
inline void AccumulateRowsFixed(State* states, const double* const* columns,
                                const uint32_t* slots, const uint32_t* rows,
                                size_t n) {
  const double* cols[kAggs];
  for (size_t a = 0; a < kAggs; ++a) cols[a] = columns[a];
  for (size_t i = 0; i < n; ++i) {
    State* s = states + static_cast<size_t>(slots[i]) * kAggs;
    const uint32_t row = rows[i];
    for (size_t a = 0; a < kAggs; ++a) {
      s[a].Add(cols[a] != nullptr ? cols[a][row] : 1.0);
    }
  }
}

template <typename State>
inline void AccumulateRows(State* states, size_t naggs,
                           const double* const* columns,
                           const uint32_t* slots, const uint32_t* rows,
                           size_t n) {
  switch (naggs) {
    case 1:
      return AccumulateRowsFixed<1>(states, columns, slots, rows, n);
    case 2:
      return AccumulateRowsFixed<2>(states, columns, slots, rows, n);
    case 3:
      return AccumulateRowsFixed<3>(states, columns, slots, rows, n);
    default:
      for (size_t i = 0; i < n; ++i) {
        State* s = states + static_cast<size_t>(slots[i]) * naggs;
        for (size_t a = 0; a < naggs; ++a) {
          s[a].Add(columns[a] != nullptr ? columns[a][rows[i]] : 1.0);
        }
      }
  }
}

// COUNT over rows whose slots are given: each adds the constant 1.0.
template <typename State>
inline void AccumulateConst(State* states, size_t stride, size_t offset,
                            const uint32_t* slots, size_t n, double value) {
  for (size_t i = 0; i < n; ++i) {
    states[static_cast<size_t>(slots[i]) * stride + offset].Add(value);
  }
}

// Dense variants: no selection, rows [begin, begin + n) with slots
// aligned to the range (slots[i] is row begin + i's slot).
template <typename State>
inline void AccumulateColumnDense(State* states, size_t stride,
                                  size_t offset, const uint32_t* slots,
                                  uint32_t begin, size_t n,
                                  const double* column) {
  for (size_t i = 0; i < n; ++i) {
    states[static_cast<size_t>(slots[i]) * stride + offset].Add(
        column[begin + i]);
  }
}

// Fused single-group-column fast path: the group column's value *is* the
// slot (stride-1 layout), so no slot array is materialized at all.
template <typename State>
inline void AccumulateColumnBySlotColumn(State* states, size_t stride,
                                         size_t offset,
                                         const uint32_t* slot_col,
                                         uint32_t begin, size_t n,
                                         const double* column) {
  for (size_t i = 0; i < n; ++i) {
    states[static_cast<size_t>(slot_col[begin + i]) * stride + offset].Add(
        column[begin + i]);
  }
}

template <typename State>
inline void AccumulateConstBySlotColumn(State* states, size_t stride,
                                        size_t offset,
                                        const uint32_t* slot_col,
                                        uint32_t begin, size_t n,
                                        double value) {
  for (size_t i = 0; i < n; ++i) {
    states[static_cast<size_t>(slot_col[begin + i]) * stride + offset].Add(
        value);
  }
}

// Ungrouped (single global state) variants.
template <typename State>
inline void AccumulateColumnGlobal(State& state, const uint32_t* rows,
                                   size_t n, const double* column) {
  for (size_t i = 0; i < n; ++i) state.Add(column[rows[i]]);
}

template <typename State>
inline void AccumulateColumnGlobalDense(State& state, uint32_t begin,
                                        size_t n, const double* column) {
  for (size_t i = 0; i < n; ++i) state.Add(column[begin + i]);
}

template <typename State>
inline void AccumulateConstGlobal(State& state, size_t n, double value) {
  for (size_t i = 0; i < n; ++i) state.Add(value);
}

}  // namespace scalewall::vec

#endif  // SCALEWALL_VEC_AGG_H_
