// A flat hash table from names to small values, for the front end's
// lookups by name: the parser's first declaration of each net,
// elaborate's declared and implicit nets, and merge's signal, constant
// and register nodes.
//
// Linear probing over a power-of-two slot array that doubles once it is
// half full. An entry is one slot, so an insert allocates only when the
// array grows. Keys are views: the caller keeps each key's characters
// alive, and where they are, for as long as the map is used. There is no
// erase and no iteration, so no hash order can reach an output.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace gnn4ip::util {

template <typename V>
class NameMap {
 public:
  NameMap() = default;
  /// Room for `expected` names before the first growth.
  explicit NameMap(std::size_t expected)
      : slots_(std::bit_ceil(std::max(kMinSlots, 2 * expected))) {}

  /// The value stored under `name`, or nullptr.
  [[nodiscard]] const V* find(std::string_view name) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[probe(name, hash(name))];
    return slot.hash == 0 ? nullptr : &slot.value;
  }

  /// Stores `value` under `name` unless `name` is present: the first
  /// insert wins. Returns the stored value, valid until the next insert,
  /// and whether this call inserted it.
  std::pair<V*, bool> try_emplace(std::string_view name, V value) {
    if (slots_.empty()) slots_.resize(kMinSlots);
    const std::size_t h = hash(name);
    std::size_t i = probe(name, h);
    if (slots_[i].hash != 0) return {&slots_[i].value, false};
    slots_[i] = Slot{name, h, std::move(value)};
    if (2 * ++size_ > slots_.size()) {
      grow();
      i = probe(name, h);
    }
    return {&slots_[i].value, true};
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::string_view key;
    std::size_t hash = 0;  // 0 marks an empty slot
    V value{};
  };

  static constexpr std::size_t kMinSlots = 16;
  // Set in every stored hash so that no stored hash is 0. Slot indices
  // come from the low bits, so it costs the table nothing.
  static constexpr std::size_t kUsedBit = ~(~std::size_t{0} >> 1);

  static std::size_t hash(std::string_view name) {
    return std::hash<std::string_view>{}(name) | kUsedBit;
  }

  /// The slot holding `name`, or the empty slot where it would go. The
  /// table is at most half full, so the walk ends.
  [[nodiscard]] std::size_t probe(std::string_view name, std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i].hash != 0 &&
           (slots_[i].hash != h || slots_[i].key != name)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.hash == 0) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].hash != 0) i = (i + 1) & mask;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace gnn4ip::util
