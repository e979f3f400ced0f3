// Open-addressing flat hash map for the server's per-shard maps.
//
// `std::map` (and `std::unordered_map`) cost one heap node per entry plus
// pointer-chasing on every lookup; at scale the nodes alone dominate the
// resident set and every probe is a cache miss. FlatHashMap
// stores entries inline in two parallel arrays -- a one-byte control array
// (empty / tombstone / full) and a slot array holding the key/value pairs --
// so a lookup touches one control byte and, on a hit, one slot, both on
// adjacent cache lines.
//
// Design constraints (deliberately narrower than a general-purpose map):
//   * Linear probing over a power-of-two capacity, indexed by the low bits
//     of the hash. The probe sequence is trivially prefetchable, but the
//     default hasher is std::hash<K>, which libstdc++ makes the identity
//     for integers: strided integer keys (i << 16) would all share one home
//     slot and pile into one probe run. Callers whose keys can be strided
//     must pass a hasher that mixes high bits into low ones, as the
//     composite-key maps in registers/server.h do.
//   * Erase writes a tombstone; tombstones are dropped wholesale on the
//     next rehash. The deferred-reader maps (registers/server.h) churn
//     entries and are fine with lazy reclamation.
//   * Iteration order is unspecified (a control-array scan). Callers that
//     need determinism sort, as they already did for std::map-free walks.
//   * NOT thread-safe, and rehashing moves value objects. The object
//     tables, which need both (records with seqlock slots, probed from
//     other threads), use their own single-writer table instead -- see
//     registers/object_store.h.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace bftreg::common {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatHashMap {
 public:
  using value_type = std::pair<K, V>;

  FlatHashMap() = default;
  explicit FlatHashMap(size_t expected) { reserve(expected); }

  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  FlatHashMap(FlatHashMap&& other) noexcept { swap(other); }
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      destroy();
      swap(other);
    }
    return *this;
  }

  ~FlatHashMap() { destroy(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return cap_; }

  /// Grows so that `expected` entries fit without another rehash.
  void reserve(size_t expected) {
    // Invert the 7/8 load bound, rounding up to the next power of two.
    size_t need = expected + expected / 7 + 1;
    if (need <= cap_) return;
    size_t cap = kMinCapacity;
    while (cap < need) cap <<= 1;
    rehash(cap);
  }

  V* find(const K& key) {
    if (cap_ == 0) return nullptr;
    const size_t idx = probe(key);
    return ctrl_[idx] == kFull ? &slot(idx)->second : nullptr;
  }
  const V* find(const K& key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }
  bool contains(const K& key) const { return find(key) != nullptr; }

  /// Inserts default-or-given value if absent; returns (value*, inserted).
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    if (load_needs_growth()) rehash(cap_ == 0 ? kMinCapacity : cap_ * 2);
    size_t idx = probe(key);
    if (ctrl_[idx] == kFull) return {&slot(idx)->second, false};
    if (ctrl_[idx] == kTombstone) --tombstones_;
    ctrl_[idx] = kFull;
    ::new (static_cast<void*>(slot(idx)))
        value_type(key, V(std::forward<Args>(args)...));
    ++size_;
    return {&slot(idx)->second, true};
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  bool erase(const K& key) {
    if (cap_ == 0) return false;
    const size_t idx = probe(key);
    if (ctrl_[idx] != kFull) return false;
    slot(idx)->~value_type();
    ctrl_[idx] = kTombstone;
    ++tombstones_;
    --size_;
    return true;
  }

  void clear() {
    if (cap_ == 0) return;
    for (size_t i = 0; i < cap_; ++i) {
      if (ctrl_[i] == kFull) slot(i)->~value_type();
      ctrl_[i] = kEmpty;
    }
    size_ = tombstones_ = 0;
  }

  /// Visits every entry as fn(const K&, V&). Unspecified order; do not
  /// insert or erase from inside.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (size_t i = 0; i < cap_; ++i) {
      if (ctrl_[i] == kFull) fn(slot(i)->first, slot(i)->second);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < cap_; ++i) {
      if (ctrl_[i] == kFull) fn(slot(i)->first, slot(i)->second);
    }
  }

  /// Bytes owned by the table arrays (resident-cost accounting).
  size_t allocated_bytes() const {
    return cap_ * (sizeof(value_type) + 1);
  }

 private:
  static constexpr size_t kMinCapacity = 8;
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kTombstone = 1;
  static constexpr uint8_t kFull = 2;

  value_type* slot(size_t i) {
    return std::launder(reinterpret_cast<value_type*>(slots_.get()) + i);
  }
  const value_type* slot(size_t i) const {
    return std::launder(reinterpret_cast<const value_type*>(slots_.get()) + i);
  }

  bool load_needs_growth() const {
    // Grow at 7/8 occupancy counting tombstones: the rehash drops them, so
    // a churn-heavy map (deferred readers) reclaims instead of ballooning.
    return cap_ == 0 || (size_ + tombstones_ + 1) * 8 > cap_ * 7;
  }

  /// Returns the index of `key`'s slot (ctrl kFull) or of the insertion
  /// slot (first tombstone seen, else the empty that ended the probe).
  size_t probe(const K& key) const {
    const size_t mask = cap_ - 1;
    size_t idx = Hash{}(key) & mask;
    size_t first_tombstone = SIZE_MAX;
    for (;;) {
      const uint8_t c = ctrl_[idx];
      if (c == kFull && slot_key_equals(idx, key)) return idx;
      if (c == kEmpty) {
        return first_tombstone != SIZE_MAX ? first_tombstone : idx;
      }
      if (c == kTombstone && first_tombstone == SIZE_MAX) first_tombstone = idx;
      idx = (idx + 1) & mask;
    }
  }

  bool slot_key_equals(size_t idx, const K& key) const {
    return slot(idx)->first == key;
  }

  void rehash(size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && "capacity must be a power of 2");
    static_assert(alignof(value_type) <= alignof(std::max_align_t),
                  "slot storage relies on new[]'s fundamental alignment");
    std::unique_ptr<uint8_t[]> old_ctrl = std::move(ctrl_);
    std::unique_ptr<unsigned char[]> old_slots = std::move(slots_);
    const size_t old_cap = cap_;

    ctrl_ = std::make_unique<uint8_t[]>(new_cap);
    slots_ = std::make_unique<unsigned char[]>(new_cap * sizeof(value_type));
    cap_ = new_cap;
    size_ = tombstones_ = 0;

    for (size_t i = 0; i < old_cap; ++i) {
      if (old_ctrl[i] != kFull) continue;
      auto* entry = std::launder(
          reinterpret_cast<value_type*>(old_slots.get()) + i);
      const size_t idx = probe(entry->first);
      ctrl_[idx] = kFull;
      ::new (static_cast<void*>(slot(idx))) value_type(std::move(*entry));
      ++size_;
      entry->~value_type();
    }
  }

  void destroy() {
    clear();
    slots_.reset();
    ctrl_.reset();
    cap_ = 0;
  }

  void swap(FlatHashMap& other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    std::swap(slots_, other.slots_);
    std::swap(cap_, other.cap_);
    std::swap(size_, other.size_);
    std::swap(tombstones_, other.tombstones_);
  }

  std::unique_ptr<uint8_t[]> ctrl_;
  std::unique_ptr<unsigned char[]> slots_;
  size_t cap_{0};
  size_t size_{0};
  size_t tombstones_{0};
};

}  // namespace bftreg::common
