#include "vec/filter.h"

#include <algorithm>

namespace scalewall::vec {

InSet::InSet(const std::vector<uint32_t>& values, uint32_t domain) {
  use_bitset_ = domain <= kBitsetDomainLimit;
  if (use_bitset_) {
    domain_ = domain;
    bits_.assign((static_cast<size_t>(domain) + 63) / 64, 0);
    for (uint32_t v : values) {
      if (v < domain) bits_[v >> 6] |= uint64_t{1} << (v & 63);
    }
  } else {
    sorted_ = values;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_.erase(std::unique(sorted_.begin(), sorted_.end()),
                  sorted_.end());
  }
}

void SelInInit(const uint32_t* col, RowIndex begin, RowIndex end,
               const InSet& set, SelVec& sel) {
  sel.clear();
  sel.resize(end - begin);
  size_t n = 0;
  for (RowIndex i = begin; i < end; ++i) {
    sel[n] = i;
    n += set.Contains(col[i]) ? 1 : 0;
  }
  sel.resize(n);
}

void SelInRefine(const uint32_t* col, const InSet& set, SelVec& sel) {
  size_t n = 0;
  for (RowIndex row : sel) {
    sel[n] = row;
    n += set.Contains(col[row]) ? 1 : 0;
  }
  sel.resize(n);
}

void SelJoinRangeRefine(const uint32_t* keys_col, const uint32_t* attr_col,
                        uint32_t key_domain, uint32_t sentinel, uint32_t lo,
                        uint32_t hi, SelVec& sel) {
  if (attr_col == nullptr) {
    sel.clear();
    return;
  }
  size_t n = 0;
  const uint32_t span = hi - lo;
  for (RowIndex row : sel) {
    const uint32_t key = keys_col[row];
    const uint32_t attr = key < key_domain ? attr_col[key] : sentinel;
    sel[n] = row;
    n += (attr != sentinel && (attr - lo) <= span) ? 1 : 0;
  }
  sel.resize(n);
}

void GatherJoinAttribute(const uint32_t* keys_col, const uint32_t* attr_col,
                         uint32_t key_domain, uint32_t sentinel, SelVec& sel,
                         std::vector<std::vector<uint32_t>*> parallel,
                         std::vector<uint32_t>& out) {
  out.clear();
  if (attr_col == nullptr) {
    sel.clear();
    for (auto* col : parallel) col->clear();
    return;
  }
  out.resize(sel.size());
  size_t n = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    const RowIndex row = sel[i];
    const uint32_t key = keys_col[row];
    const uint32_t attr = key < key_domain ? attr_col[key] : sentinel;
    sel[n] = row;
    out[n] = attr;
    for (auto* col : parallel) (*col)[n] = (*col)[i];
    n += attr != sentinel ? 1 : 0;
  }
  sel.resize(n);
  out.resize(n);
  for (auto* col : parallel) col->resize(n);
}

}  // namespace scalewall::vec
