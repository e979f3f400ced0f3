// Compact per-shard object store: the million-object storage layer.
//
// This header is the storage half of registers/server.h (and of the RB
// baseline server): everything a shard keeps per object, engineered for
// object-count scale. The previous layout -- `std::map<uint32_t,
// ObjectState>` shard tables, a `std::map<Tag, Bytes>` list L per object,
// every value its own heap vector -- costs a dozen malloc nodes and several
// hundred stray bytes per object. Here the same state is:
//
//   * CompactObjectStore: one open-addressing table of ObjectRec pointers
//     into a chunked, never-moving pool of ObjectRec, written by the owner
//     shard and probed lock-free by any thread. Records must not move:
//     each embeds the object's NewestCache (seqlock + atomics), and the
//     table hands out its address to cross-shard readers.
//   * ObjectLog: the list L as a compact sorted array with front slack -- a
//     small-vector ring. Entries are 40-byte PODs (16-byte Tag + 24-byte
//     ValueRef) kept in ascending tag order; appends of growing tags (the
//     common case -- tags are monotone per writer) are O(1), `max_history`
//     GC pops the front without shifting, and back-filled old tags memmove
//     the shorter side.
//   * ValueRef: value bytes up to 16 bytes live inside the entry itself;
//     longer values are blocks in the shard's SlabArena (no per-value
//     malloc, no per-block header).
//
// One store per shard, touched only by the shard's owner thread -- except
// find()/collect() and the NewestCache they lead to, which keep the lock-
// free contract of server.h (single-writer publish, any-thread read). The
// split between apply() and publish() is what enables write coalescing: a
// mailbox batch applies every PUT-DATA to the logs first and publishes
// each touched object's newest pair once at the end.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/seqlock.h"
#include "common/slab.h"
#include "common/types.h"
#include "registers/config.h"
#include "registers/messages.h"

namespace bftreg::registers {

/// Lock-free published copy of an object's newest (tag, value) pair.
/// Written only by the object's owner shard; readable from any thread.
/// Values up to kInlineValueCap bytes live inside the seqlock snapshot;
/// larger ones are swapped through an atomic shared_ptr whose pointee is
/// immutable and self-consistent (tag and value travel together).
class NewestCache {
 public:
  /// Largest value carried inline in the seqlock snapshot. Sized so one
  /// seqlock slot (sequence + version + header + data) is exactly a cache
  /// line: small-register control values fit; bulk values take the
  /// shared_ptr path. (The old 256-byte cap made every object pay ~640
  /// bytes of slots; at a million objects the cap IS the footprint.)
  static constexpr size_t kInlineValueCap = 32;

  /// Owner shard only. Publishes (tag, value) as the newest pair.
  void publish(const Tag& tag, BytesView value);

  /// Any thread. Returns false only before the first publish. `value` may
  /// be null when the caller wants just the tag (QUERY-TAG). An oversize
  /// value aliases the published pair itself (no copy; the pair stays
  /// alive while the Payload does, however many puts publish after it);
  /// an inline value is copied into a fresh Payload.
  bool read(Tag* tag, Payload* value) const;

 private:
  struct InlineEntry {
    uint64_t tag_num{0};
    uint32_t writer_index{0};
    uint8_t writer_role{0};
    /// 1: the pair lives in oversize_ (len/data unused).
    uint8_t oversize{0};
    uint16_t len{0};
    uint8_t data[kInlineValueCap]{};
  };

  common::Seqlock<InlineEntry> inline_;
  /// Published *before* the inline sentinel that points at it, so a reader
  /// that sees oversize == 1 always finds the pointer (release/acquire via
  /// the seqlock's sequence).
  std::atomic<std::shared_ptr<const TaggedValue>> oversize_;
};

/// Value bytes by reference: inline up to kInlineCap, else a slab block.
/// POD on purpose -- log entries are moved with memmove. Lifecycle is
/// managed by CompactObjectStore (make/release against the shard's arena).
struct ValueRef {
  static constexpr uint32_t kInlineCap = 16;

  uint32_t len{0};
  union {
    uint8_t inl[kInlineCap];
    uint8_t* ptr;
  };

  BytesView view() const {
    return len <= kInlineCap ? BytesView(inl, len) : BytesView(ptr, len);
  }
};

/// One entry of the list L: 40 trivially-copyable bytes.
struct LogEntry {
  Tag tag;
  ValueRef val;
};
static_assert(std::is_trivially_copyable_v<LogEntry>,
              "ObjectLog moves entries with memmove");

/// The list L as a sorted array with front slack. Entries live at
/// [slots_+head, slots_+head+count), ascending by tag. GC pops the front in
/// O(1) (the slack); inserts append at the back in O(1) when the tag is the
/// new maximum (the common case) and shift the cheaper side otherwise.
/// The backing array comes from the shard's SlabArena; every mutating call
/// takes the arena explicitly because the log itself is 20 bytes and owns
/// no allocator.
class ObjectLog {
 public:
  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const LogEntry* begin() const { return slots_ + head_; }
  const LogEntry* end() const { return slots_ + head_ + count_; }
  const LogEntry& oldest() const { return slots_[head_]; }
  const LogEntry& newest() const { return slots_[head_ + count_ - 1]; }

  /// Binary search; nullptr when the tag is not present.
  const LogEntry* find(const Tag& tag) const;

  /// Sorted insert. Returns false (and leaves the log untouched) when the
  /// tag is already present.
  bool insert(const Tag& tag, const ValueRef& val, common::SlabArena& arena);

  /// Releases the oldest entry's value and drops it. Precondition: !empty().
  void pop_oldest(common::SlabArena& arena);

  /// Releases every value and the backing array (store teardown).
  void destroy(common::SlabArena& arena);

  /// Bytes of value payload across all entries.
  size_t value_bytes() const;

 private:
  void grow(common::SlabArena& arena);

  LogEntry* slots_{nullptr};
  uint32_t head_{0};
  uint32_t count_{0};
  uint32_t cap_{0};
};

/// Everything one shard stores about its objects. Single-owner-thread,
/// except find(), collect(), size() and the NewestCache a found record
/// embeds, which any thread may use concurrently with the owner.
class CompactObjectStore {
 public:
  struct ObjectRec {
    /// 160 bytes: two 64-byte seqlock slots + active/version words + the
    /// oversize pointer. With the 24-byte log and the id the record is 192
    /// bytes -- the figure docs/PERF.md budgets per object.
    NewestCache newest;
    ObjectLog log;
    /// Set before the record is published to the table; never changes.
    uint32_t object{0};

    ObjectRec() = default;
    ObjectRec(const ObjectRec&) = delete;
    ObjectRec& operator=(const ObjectRec&) = delete;
  };

  struct ApplyResult {
    ObjectRec* rec{nullptr};
    bool added{false};
    /// Value bytes added minus bytes GC'd (the caller maintains whatever
    /// aggregate counter its introspection API promises).
    long long bytes_delta{0};
  };

  CompactObjectStore(Bytes initial, StorePolicy policy, size_t max_history);
  ~CompactObjectStore();

  CompactObjectStore(const CompactObjectStore&) = delete;
  CompactObjectStore& operator=(const CompactObjectStore&) = delete;

  /// Creates (if needed) `object`'s record, seeding the log with
  /// {t0, initial} and publishing that snapshot before the record enters
  /// the table. Returns (record, value bytes added: initial size or 0).
  std::pair<ObjectRec*, size_t> materialize(uint32_t object);

  /// Read-only lookup; never inserts (a client querying random ids must
  /// not balloon server state). Any thread: one linear probe of the live
  /// table. Only the owner may touch the record's log; other threads read
  /// its `newest` snapshot.
  const ObjectRec* find(uint32_t object) const;
  ObjectRec* find(uint32_t object) {
    return const_cast<ObjectRec*>(std::as_const(*this).find(object));
  }

  /// Inserts (tag, value) per the store policy, then applies max_history
  /// GC. Does NOT publish the newest pair -- callers follow with publish()
  /// (immediately, or once per mailbox batch when coalescing).
  ApplyResult apply(uint32_t object, const Tag& tag, BytesView value);

  /// Publishes rec's current newest pair through its seqlock cache.
  void publish(ObjectRec& rec);

  /// Any thread; appends every materialized object id to `out` (unsorted).
  /// Sees at least every record inserted before the call.
  void collect(std::vector<uint32_t>* out) const;

  /// Any thread (a relaxed count: exact only when the owner is quiescent).
  size_t size() const { return count_.load(std::memory_order_relaxed); }

  /// fn(const ObjectRec&) for every record, unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const size_t n =
          (c + 1 == chunks_.size()) ? used_in_last_ : kRecsPerChunk;
      for (size_t i = 0; i < n; ++i) fn(chunks_[c][i]);
    }
  }

  /// Full walk of value payload bytes (debug cross-check of the caller's
  /// incremental counter).
  size_t walk_value_bytes() const;

  /// Bytes this store holds from the system: record chunks, every table
  /// generation, slab chunks. The bench's resident-per-object metric reads
  /// this.
  size_t resident_bytes() const;

  const Bytes& initial_value() const { return initial_; }

  /// Home slot of `object` in a table of 2^(64 - shift) slots: the top bits
  /// of object * 2^64/phi (multiplicative, "Fibonacci" hashing). Every id
  /// bit reaches the top bits, so ids strided by any power of two spread
  /// over the table instead of sharing one home slot; and consecutive ids
  /// land in distinct slots (the three-distance theorem), so a dense id
  /// range -- the common case -- is found on the first probe, where a
  /// full-avalanche mix collides like random keys (about a quarter of
  /// lookups probing past their home at half load).
  static size_t home_slot(uint32_t object, unsigned shift);

 private:
  static constexpr size_t kRecsPerChunk = 256;  // 256 * 192B = 48 KiB

  /// One generation of the object table: 2^bits record pointers, keyed by
  /// rec->object through home_slot() and probed linearly; null marks an
  /// empty slot. Only the owner stores into it, and only into empty slots
  /// (records are never removed or moved), so a reader that sees a pointer
  /// sees the record it names for good.
  struct Table {
    explicit Table(unsigned bits);
    size_t capacity() const { return mask + 1; }
    /// Stores `rec` into the first empty slot of its probe run.
    void place(ObjectRec* rec, std::memory_order order);

    const unsigned shift;  // 64 - bits: home_slot()'s argument
    const size_t mask;
    const std::unique_ptr<std::atomic<ObjectRec*>[]> slots;
  };

  /// Owner only: adds a fully initialized record that is not yet present.
  void insert(ObjectRec* rec);

  ValueRef make_ref(BytesView value);

  Bytes initial_;
  const StorePolicy policy_;
  const size_t max_history_;

  /// The live generation: loaded with acquire by every find()/collect(),
  /// replaced with a release store when the owner grows the table past
  /// 7/8 full.
  std::atomic<const Table*> table_;
  /// Owner only. Every generation, live last. Superseded ones stay until
  /// the store dies, because a reader may still be probing one; they hold
  /// stale but valid pointers, and their sizes halve, so together they are
  /// smaller than the live table.
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::unique_ptr<ObjectRec[]>> chunks_;
  size_t used_in_last_{kRecsPerChunk};
  std::atomic<size_t> count_{0};
  common::SlabArena arena_;
};

}  // namespace bftreg::registers
