// The per-shard item index of PredictionService: item id -> the item's
// heap-allocated state, in one flat open-addressing table.
//
// A lookup reads the slot ({id, pointer}) and then the item, one
// dependent cache miss fewer than a node-based hash map, which reads a
// bucket, the node before the item's, and the item's node.  Linear
// probing over a power-of-two array; an erase shifts the rest of its run
// back, so there are no tombstones.  The table doubles when an insert
// would take it past 7/8 load.  It is not synchronized: each shard guards
// its table with the shard mutex.
//
// Callers hash an id once, with MixId, and pass the hash in: the service
// takes the shard from the hash's low bits (hash % shards) and the table
// takes the home slot from its high bits, so the two stay independent.
// The table rehashes stored ids with MixId when it grows or erases.
#ifndef HORIZON_SERVING_ITEM_INDEX_H_
#define HORIZON_SERVING_ITEM_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace horizon::serving {

/// SplitMix64 finalizer: item ids are often sequential, so mix before
/// taking the shard residue or the home slot.
inline uint64_t MixId(int64_t id) {
  uint64_t z = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Id -> unique T, for one shard.  Every `hash` argument is MixId(id).
template <typename T>
class ItemIndex {
 public:
  /// Capacity of the first allocation; an empty index allocates nothing.
  static constexpr size_t kMinCapacity = 16;
  /// The load (items per slot) an insert may not pass without doubling
  /// the slots: kMaxLoadNum / kMaxLoadDen.  At 7/8 the slots cost 18-37 B
  /// per item, about what a node-based map's key, next pointer and
  /// bucket array cost (24-32 B), and a hit probes ~2.5 slots on average
  /// at 3/4 load.
  static constexpr size_t kMaxLoadNum = 7;
  static constexpr size_t kMaxLoadDen = 8;

  /// The value stored under `id`, or nullptr.  Like a container of
  /// unique_ptr, a const index does not make its values const.
  T* Find(int64_t id, uint64_t hash) const {
    return slots_.empty() ? nullptr : slots_[Probe(id, hash)].value.get();
  }

  /// Stores `value` (non-null) under `id` unless the id is present;
  /// returns whether it did.  On false `value` is destroyed.
  // horizon-lint: allow(serving-status) -- internal table, cannot fail
  bool Insert(int64_t id, uint64_t hash, std::unique_ptr<T> value) {
    HORIZON_DCHECK(value != nullptr && hash == MixId(id));
    ReserveOneMore();
    Slot& slot = slots_[Probe(id, hash)];
    if (slot.value != nullptr) return false;
    slot = {id, std::move(value)};
    ++size_;
    return true;
  }

  /// Erases every value for which `pred(id, const T&)` is true, calling
  /// it exactly once per value; returns the number erased.
  template <typename Pred>
  // horizon-lint: allow(serving-status) -- internal table, cannot fail
  size_t EraseIf(Pred pred) {
    if (size_ == 0) return 0;
    // Start just past an empty slot, which no run crosses: an erase then
    // only moves values that have not been visited yet, into the slot
    // just visited, which is visited again.
    size_t start = 0;
    while (slots_[start].value != nullptr) ++start;
    size_t erased = 0;
    for (size_t step = 1; step <= slots_.size();) {
      const size_t i = (start + step) & Mask();
      Slot& slot = slots_[i];
      if (slot.value != nullptr && pred(slot.id, std::as_const(*slot.value))) {
        EraseAt(i);
        ++erased;
      } else {
        ++step;
      }
    }
    return erased;
  }

  /// Calls `fn(id, const T&)` once per value, in slot order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& slot : slots_) {
      if (slot.value != nullptr) fn(slot.id, std::as_const(*slot.value));
    }
  }

  size_t size() const { return size_; }
  /// Slots allocated: 0, or a power of two >= kMinCapacity.
  size_t capacity() const { return slots_.size(); }
  /// Bytes of the slot array: capacity() slots of an id and a pointer.
  size_t SlotBytes() const { return slots_.size() * sizeof(Slot); }

 private:
  /// A slot is empty when `value` is null.
  struct Slot {
    int64_t id = 0;
    std::unique_ptr<T> value;
  };

  size_t Mask() const { return slots_.size() - 1; }
  /// The home slot: the hash's top log2(capacity) bits.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>(hash >> shift_);
  }

  /// The slot holding `id`, or the empty slot that ends its probe.
  size_t Probe(int64_t id, uint64_t hash) const {
    size_t i = Home(hash);
    while (slots_[i].value != nullptr && slots_[i].id != id) i = (i + 1) & Mask();
    return i;
  }

  /// Doubles (or first allocates) the slots if one more value would
  /// pass the maximum load.
  void ReserveOneMore() {
    if ((size_ + 1) * kMaxLoadDen <= slots_.size() * kMaxLoadNum) return;
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(slots_.empty() ? kMinCapacity : 2 * slots_.size()));
    shift_ = 64 - std::countr_zero(slots_.size());
    for (Slot& slot : old) {
      if (slot.value != nullptr) {
        slots_[Probe(slot.id, MixId(slot.id))] = std::move(slot);
      }
    }
  }

  /// Empties slot `hole` and shifts back each later value of its run
  /// whose home is not between the hole and the value's slot.
  void EraseAt(size_t hole) {
    slots_[hole].value.reset();
    --size_;
    for (size_t i = (hole + 1) & Mask(); slots_[i].value != nullptr;
         i = (i + 1) & Mask()) {
      const size_t home = Home(MixId(slots_[i].id));
      if (((i - home) & Mask()) >= ((i - hole) & Mask())) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace horizon::serving

#endif  // HORIZON_SERVING_ITEM_INDEX_H_
