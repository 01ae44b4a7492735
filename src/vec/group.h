// Group-by slot computation for the vectorized aggregation kernels.
//
// A chunk's surviving rows are mapped to dense *slots* — small integers
// indexing a flat array of aggregation states — in one of three ways:
//
//  * DirectLayout: the slot is the mixed-radix number of the group
//    values (one multiply-add per column, no hashing, no key storage),
//    used as-is when the product of the group columns' cardinalities is
//    small;
//  * PackedSlotMap: when that product is larger but fits in 64 bits, the
//    mixed-radix number is a *packed key*, mapped to a dense first-seen
//    slot through a remap array (key spaces up to kMaxRemapSlots) or an
//    integer-keyed hash (larger ones);
//  * GroupKeyIndex: otherwise, an open-addressing hash table over the
//    flat keys assigns slots in first-seen order.
//
// All three are bijections slot <-> group key. Mixed-radix order is the
// lexicographic order of the keys, so sorting packed keys as integers
// sorts the groups.

#ifndef SCALEWALL_VEC_GROUP_H_
#define SCALEWALL_VEC_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scalewall::vec {

// Mixed-radix layout over group columns with known cardinalities.
struct DirectLayout {
  // Per-column multiplier; slot = sum_i value_i * stride[i]. Built so
  // the *last* column is the least-significant digit, matching the
  // lexicographic order of group keys.
  std::vector<uint64_t> strides;
  std::vector<uint32_t> cards;
  uint64_t total_slots = 1;

  // Builds the layout; returns false (leaving the layout unusable) when
  // the slot space would exceed `max_slots`.
  bool Build(const std::vector<uint32_t>& cardinalities, uint64_t max_slots);

  // Reconstructs the group values for `slot` (< total_slots) into `key`
  // (sized to arity): one division per digit, most significant first.
  void DecodeSlot(uint64_t slot, uint32_t* key) const {
    for (size_t i = 0; i < strides.size(); ++i) {
      const uint64_t digit = slot / strides[i];
      key[i] = static_cast<uint32_t>(digit);
      slot -= digit * strides[i];
    }
  }
};

// Accumulates `col[rows[i]] * stride` into slots[i] for every selected
// row (one group column's contribution to the mixed-radix slot). The
// 64-bit overloads build packed keys.
void SlotAccumulate(const uint32_t* col, const uint32_t* rows, size_t n,
                    uint64_t stride, uint32_t* slots);
void SlotAccumulate(const uint32_t* col, const uint32_t* rows, size_t n,
                    uint64_t stride, uint64_t* slots);

// Same over a dense row range [begin, begin + n) with no selection.
void SlotAccumulateDense(const uint32_t* col, uint32_t begin, size_t n,
                         uint64_t stride, uint32_t* slots);
void SlotAccumulateDense(const uint32_t* col, uint32_t begin, size_t n,
                         uint64_t stride, uint64_t* slots);

// Variants over already-gathered value arrays (join attributes): values
// are aligned with the selection, not indexed through it.
void SlotAccumulateGathered(const uint32_t* values, size_t n,
                            uint64_t stride, uint32_t* slots);
void SlotAccumulateGathered(const uint32_t* values, size_t n,
                            uint64_t stride, uint64_t* slots);

// Dense slot ids for packed keys, assigned in first-seen order. Key
// spaces up to kMaxRemapSlots use a remap array indexed by the key (one
// load per row); larger ones an open-addressing hash over the 64-bit
// keys. The remap array is a per-thread scratch buffer kept all-zero
// between uses, so a short-lived map (one morsel) never clears a
// key-space-sized array: it resets only the entries it set.
class PackedSlotMap {
 public:
  // 256 KiB of uint32 remap entries per scan thread.
  static constexpr uint64_t kMaxRemapSlots = uint64_t{1} << 16;

  explicit PackedSlotMap(uint64_t key_space);
  ~PackedSlotMap();
  PackedSlotMap(const PackedSlotMap&) = delete;
  PackedSlotMap& operator=(const PackedSlotMap&) = delete;

  // slots[i] = the slot of keys[i], assigning new slots as keys appear.
  // `slots` may alias 32-bit `keys` (each key is read before its slot is
  // written).
  void Assign(const uint64_t* keys, size_t n, uint32_t* slots);
  void Assign(const uint32_t* keys, size_t n, uint32_t* slots);

  size_t num_slots() const { return keys_.size(); }
  // Packed key of every slot, in slot order.
  const std::vector<uint64_t>& keys() const { return keys_; }
  // Every slot in ascending packed-key order (= lexicographic key order):
  // a walk of the remap array when enough of it is populated, a sort of
  // the keys otherwise.
  std::vector<uint32_t> SlotsByKey() const;

 private:
  template <typename Key>
  void AssignImpl(const Key* keys, size_t n, uint32_t* slots);
  void Rehash(size_t new_buckets);

  uint64_t key_space_;
  std::vector<uint64_t> keys_;
  // Remap mode: slot + 1 per packed key, 0 = unseen. Points at the
  // thread's scratch, or at own_remap_ when that scratch is in use.
  uint32_t* remap_ = nullptr;
  bool borrowed_ = false;
  std::vector<uint32_t> own_remap_;
  // Hash mode: slot + 1 per bucket, 0 = empty; power-of-two.
  std::vector<uint32_t> buckets_;
  size_t mask_ = 0;
};

// Open-addressing map from flat group keys (arity uint32s) to dense
// slot ids assigned in first-seen order.
class GroupKeyIndex {
 public:
  explicit GroupKeyIndex(size_t arity);

  // Returns the slot for `key` (arity values), inserting if new.
  uint32_t SlotFor(const uint32_t* key);

  size_t num_slots() const { return num_slots_; }
  size_t arity() const { return arity_; }
  // Flat key stored for `slot` (arity values).
  const uint32_t* KeyAt(uint32_t slot) const {
    return keys_.data() + static_cast<size_t>(slot) * arity_;
  }

 private:
  void Rehash(size_t new_buckets);
  uint64_t HashKey(const uint32_t* key) const;

  size_t arity_;
  size_t num_slots_ = 0;
  std::vector<uint32_t> keys_;     // num_slots_ * arity_ values
  std::vector<uint32_t> buckets_;  // slot + 1, 0 = empty; power-of-two
  size_t mask_ = 0;
};

}  // namespace scalewall::vec

#endif  // SCALEWALL_VEC_GROUP_H_
