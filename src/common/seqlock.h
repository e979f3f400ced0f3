// Double-buffered seqlock: wait-free single-writer publication of a
// trivially-copyable snapshot, readable from any thread without locks.
//
// Layout: two slots, each a (sequence counter, payload words) pair, plus an
// `active` index naming the slot readers should try first. The writer
// alternates slots -- it rebuilds the *inactive* slot while readers keep
// consuming the active one, then flips `active`. A reader therefore only
// retries when the writer laps it twice (publishes two snapshots while the
// read is in flight), which makes the read loop effectively wait-free under
// any realistic write rate; a classic single-slot seqlock forces a retry on
// *every* concurrent write.
//
// Memory-order argument (the Boehm seqlock construction, "Can seqlocks get
// along with programming language memory models?", MSPC'12):
//
//   writer                               reader
//   seq = s+1      (relaxed store)       s1 = seq        (acquire load)
//   fence(release)                       payload words   (relaxed loads)
//   payload words  (relaxed stores)      fence(acquire)
//   seq = s+2      (release store)       s2 = seq        (relaxed load)
//                                        valid iff s1 == s2 && s1 even
//
// The release store of the even sequence orders every payload store before
// it; the reader's acquire load of s1 pairs with it, so a reader that sees
// the even value sees the full payload. The acquire fence before the
// re-check orders the payload loads before the s2 load: if any payload word
// came from a *newer* write, that write's preceding odd-sequence store
// (ordered by the writer's release fence) is visible too, s2 != s1, and the
// read retries. Payload words are relaxed *atomics* -- concurrent read/write
// of a torn snapshot is defined behavior (the torn value is discarded by the
// re-check), where plain loads would be a data race TSan rightly flags.
//
// The `active` flip is a release store published only after the slot's even
// sequence; readers acquire it, so the slot they pick is always fully
// published. Versions (returned to readers) increase by one per publish.
//
// Monotonicity needs one more check. A reader can load a stale `active`
// = X and then be overtaken: the writer flips to Y, rebuilds X with a
// newer version and is delayed before flipping back. X now validates
// (its sequence is even and stable), so the reader returns X's newer
// snapshot while `active` still names Y; its next read follows `active`
// to Y and returns the older one -- a version going backwards. The reader
// therefore re-loads `active` after validating and retries if it moved
// off X. Why that suffices: let a read see the flip of publish a at its
// first load of `active` and the flip of publish r at the re-load, and
// return version v. Then a <= v (the acquire of flip a makes publish a's
// slot contents visible) and v <= r (validating v acquired v's sequence,
// after which the re-load cannot see a flip older than v - 1, and a flip
// naming v's slot is v or later). A thread's loads of `active` see flips
// in modification order, so a later read has a' >= r, and v' >= a' >= r
// >= v: no going backwards. The retry costs a reader one more pass only
// when a publish completed its flip inside the read.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace bftreg::common {

template <typename T>
class Seqlock {
  static_assert(std::is_trivially_copyable_v<T>,
                "Seqlock snapshots are published by memcpy");

 public:
  Seqlock() = default;
  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  /// Publishes a new snapshot. Single writer only; wait-free (never spins,
  /// never blocks on readers).
  void publish(const T& value) {
    const uint32_t next = 1 - active_.load(std::memory_order_relaxed);
    Slot& slot = slots_[next];
    const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: under construction
    std::atomic_thread_fence(std::memory_order_release);
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.version.store(++next_version_, std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
    active_.store(next, std::memory_order_release);
  }

  /// Copies the newest published snapshot into `out`. Any thread; lock-free
  /// (retries only when the writer lapped this reader twice mid-read).
  /// Returns false only before the first publish().
  bool read(T* out, uint64_t* version = nullptr) const {
    for (;;) {
      const uint32_t idx = active_.load(std::memory_order_acquire);
      const Slot& slot = slots_[idx];
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0) return false;  // nothing published yet
      if ((s1 & 1) != 0) continue;  // writer mid-flight on this slot
      uint64_t words[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      const uint64_t ver = slot.version.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      // Stale-slot check (file comment): a slot the writer rebuilt after
      // flipping away from it validates, but returning it could run this
      // reader's versions backwards.
      if (active_.load(std::memory_order_relaxed) != idx) continue;
      std::memcpy(out, words, sizeof(T));
      if (version != nullptr) *version = ver;
      return true;
    }
  }

  /// Snapshots published so far (writer thread only; used by tests).
  uint64_t versions_published() const { return next_version_; }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;

  /// Deliberately NOT alignas(64): per-slot cache-line isolation bought
  /// nothing (the single writer alternates slots and readers follow it via
  /// `active`, so writer/reader sharing is inherent to the protocol), and
  /// the rounding is ruinous for embedders that keep one seqlock per object
  /// at object-count scale -- a 64-byte payload would cost 320 bytes of
  /// slots instead of 160.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    /// Monotonic publish counter, written inside the odd-sequence window so
    /// the validity re-check covers it like any payload word.
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> words[kWords]{};
  };

  Slot slots_[2];
  std::atomic<uint32_t> active_{0};
  uint64_t next_version_{0};  // writer-private
};

}  // namespace bftreg::common
