#include "vec/group.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace scalewall::vec {

namespace {

template <typename Slot>
void SlotAccumulateImpl(const uint32_t* col, const uint32_t* rows, size_t n,
                        uint64_t stride, Slot* slots) {
  const Slot s = static_cast<Slot>(stride);
  for (size_t i = 0; i < n; ++i) {
    slots[i] += static_cast<Slot>(col[rows[i]]) * s;
  }
}

template <typename Slot>
void SlotAccumulateDenseImpl(const uint32_t* col, uint32_t begin, size_t n,
                             uint64_t stride, Slot* slots) {
  const Slot s = static_cast<Slot>(stride);
  for (size_t i = 0; i < n; ++i) {
    slots[i] += static_cast<Slot>(col[begin + i]) * s;
  }
}

template <typename Slot>
void SlotAccumulateGatheredImpl(const uint32_t* values, size_t n,
                                uint64_t stride, Slot* slots) {
  const Slot s = static_cast<Slot>(stride);
  for (size_t i = 0; i < n; ++i) {
    slots[i] += static_cast<Slot>(values[i]) * s;
  }
}

// The remap scratch of one scan thread: all-zero whenever no
// PackedSlotMap on the thread holds it.
struct RemapScratch {
  std::vector<uint32_t> slots;
  bool in_use = false;
};
thread_local RemapScratch tls_remap;

uint64_t HashPacked(uint64_t key) {
  uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

}  // namespace

bool DirectLayout::Build(const std::vector<uint32_t>& cardinalities,
                        uint64_t max_slots) {
  strides.assign(cardinalities.size(), 1);
  cards = cardinalities;
  total_slots = 1;
  for (size_t i = cardinalities.size(); i-- > 0;) {
    strides[i] = total_slots;
    const uint64_t card = cardinalities[i];
    if (card == 0 || total_slots > max_slots / card) return false;
    total_slots *= card;
  }
  return total_slots <= max_slots;
}

void SlotAccumulate(const uint32_t* col, const uint32_t* rows, size_t n,
                    uint64_t stride, uint32_t* slots) {
  SlotAccumulateImpl(col, rows, n, stride, slots);
}

void SlotAccumulate(const uint32_t* col, const uint32_t* rows, size_t n,
                    uint64_t stride, uint64_t* slots) {
  SlotAccumulateImpl(col, rows, n, stride, slots);
}

void SlotAccumulateDense(const uint32_t* col, uint32_t begin, size_t n,
                         uint64_t stride, uint32_t* slots) {
  SlotAccumulateDenseImpl(col, begin, n, stride, slots);
}

void SlotAccumulateDense(const uint32_t* col, uint32_t begin, size_t n,
                         uint64_t stride, uint64_t* slots) {
  SlotAccumulateDenseImpl(col, begin, n, stride, slots);
}

void SlotAccumulateGathered(const uint32_t* values, size_t n,
                            uint64_t stride, uint32_t* slots) {
  SlotAccumulateGatheredImpl(values, n, stride, slots);
}

void SlotAccumulateGathered(const uint32_t* values, size_t n,
                            uint64_t stride, uint64_t* slots) {
  SlotAccumulateGatheredImpl(values, n, stride, slots);
}

PackedSlotMap::PackedSlotMap(uint64_t key_space) : key_space_(key_space) {
  if (key_space > kMaxRemapSlots) {
    Rehash(64);
    return;
  }
  const size_t n = static_cast<size_t>(key_space);
  RemapScratch& scratch = tls_remap;
  if (scratch.in_use) {
    // A second live map on this thread: fall back to an owned array.
    own_remap_.assign(n, 0);
    remap_ = own_remap_.data();
    return;
  }
  if (scratch.slots.size() < n) scratch.slots.resize(n, 0);
  scratch.in_use = true;
  borrowed_ = true;
  remap_ = scratch.slots.data();
}

PackedSlotMap::~PackedSlotMap() {
  if (!borrowed_) return;
  // Hand the scratch back all-zero: reset only the entries this map set.
  for (uint64_t key : keys_) remap_[key] = 0;
  tls_remap.in_use = false;
}

template <typename Key>
void PackedSlotMap::AssignImpl(const Key* keys, size_t n, uint32_t* slots) {
  if (remap_ != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = keys[i];
      uint32_t entry = remap_[key];
      if (entry == 0) {
        keys_.push_back(key);
        entry = static_cast<uint32_t>(keys_.size());
        remap_[key] = entry;
      }
      slots[i] = entry - 1;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if ((keys_.size() + 1) * 4 >= buckets_.size() * 3) {
      Rehash(buckets_.size() * 2);
    }
    const uint64_t key = keys[i];
    size_t b = static_cast<size_t>(HashPacked(key)) & mask_;
    while (true) {
      const uint32_t entry = buckets_[b];
      if (entry == 0) {
        keys_.push_back(key);
        buckets_[b] = static_cast<uint32_t>(keys_.size());
        slots[i] = static_cast<uint32_t>(keys_.size() - 1);
        break;
      }
      if (keys_[entry - 1] == key) {
        slots[i] = entry - 1;
        break;
      }
      b = (b + 1) & mask_;
    }
  }
}

void PackedSlotMap::Assign(const uint64_t* keys, size_t n, uint32_t* slots) {
  AssignImpl(keys, n, slots);
}

void PackedSlotMap::Assign(const uint32_t* keys, size_t n, uint32_t* slots) {
  AssignImpl(keys, n, slots);
}

std::vector<uint32_t> PackedSlotMap::SlotsByKey() const {
  std::vector<uint32_t> order;
  order.reserve(keys_.size());
  // The walk reads key_space entries, the sort about 64 per key.
  if (remap_ != nullptr && keys_.size() * 64 >= key_space_) {
    for (uint64_t key = 0; key < key_space_; ++key) {
      if (remap_[key] != 0) order.push_back(remap_[key] - 1);
    }
    return order;
  }
  std::vector<std::pair<uint64_t, uint32_t>> by_key(keys_.size());
  for (size_t slot = 0; slot < keys_.size(); ++slot) {
    by_key[slot] = {keys_[slot], static_cast<uint32_t>(slot)};
  }
  std::sort(by_key.begin(), by_key.end());
  for (const auto& entry : by_key) order.push_back(entry.second);
  return order;
}

void PackedSlotMap::Rehash(size_t new_buckets) {
  buckets_.assign(new_buckets, 0);
  mask_ = new_buckets - 1;
  for (size_t slot = 0; slot < keys_.size(); ++slot) {
    size_t b = static_cast<size_t>(HashPacked(keys_[slot])) & mask_;
    while (buckets_[b] != 0) b = (b + 1) & mask_;
    buckets_[b] = static_cast<uint32_t>(slot) + 1;
  }
}

GroupKeyIndex::GroupKeyIndex(size_t arity) : arity_(arity) {
  Rehash(64);
}

uint64_t GroupKeyIndex::HashKey(const uint32_t* key) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < arity_; ++i) {
    h = (h ^ key[i]) * 0x100000001b3ULL;
  }
  // Finalize: open addressing needs the high bits mixed down.
  h ^= h >> 33;
  return h;
}

uint32_t GroupKeyIndex::SlotFor(const uint32_t* key) {
  if ((num_slots_ + 1) * 4 >= buckets_.size() * 3) {
    Rehash(buckets_.size() * 2);
  }
  size_t b = static_cast<size_t>(HashKey(key)) & mask_;
  while (true) {
    const uint32_t entry = buckets_[b];
    if (entry == 0) {
      const uint32_t slot = static_cast<uint32_t>(num_slots_++);
      keys_.insert(keys_.end(), key, key + arity_);
      buckets_[b] = slot + 1;
      return slot;
    }
    const uint32_t slot = entry - 1;
    if (arity_ == 0 ||
        std::memcmp(KeyAt(slot), key, arity_ * sizeof(uint32_t)) == 0) {
      return slot;
    }
    b = (b + 1) & mask_;
  }
}

void GroupKeyIndex::Rehash(size_t new_buckets) {
  buckets_.assign(new_buckets, 0);
  mask_ = new_buckets - 1;
  for (size_t slot = 0; slot < num_slots_; ++slot) {
    size_t b = static_cast<size_t>(HashKey(KeyAt(static_cast<uint32_t>(slot)))) &
               mask_;
    while (buckets_[b] != 0) b = (b + 1) & mask_;
    buckets_[b] = static_cast<uint32_t>(slot) + 1;
  }
}

}  // namespace scalewall::vec
