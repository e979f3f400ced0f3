// Lock-free delivery queues for the real-time transports.
//
// An `Inbox` is the queue of one event-loop shard (runtime/event_loop.h):
// producers (sender threads, socket readers, other shards, timers) publish
// `MailItem`s into a bounded MPSC ring (common/mpsc_ring.h) and the shard
// thread drains them in batches. A full ring spills to a mutex-guarded
// deque instead of failing the push (reliable channels must not drop). The
// inbox also carries the consumer's park handshake, but not the wait
// itself: the LoopShard parks in epoll_pwait2 and is woken through an
// eventfd.
//
// Park/wake handshake (the only seq_cst in the inbox): a parking consumer
// must not miss a push, and a producer must not wake a consumer that is
// busy draining. Classic store/load (Dekker) pattern:
//
//   consumer (try_park)               producer (push)
//   parked_ = true        (relaxed)   ring push / overflow push + spilled_
//   fence(seq_cst)                    fence(seq_cst)
//   ring empty? spilled_ clear?       parked_ ?
//   yes -> may sleep                  true -> caller wakes the consumer
//
// The two seq_cst fences totally order each side's store before its load:
// either the producer's push is visible to the consumer's emptiness check
// (the consumer does not sleep), or the consumer's parked_ store is visible
// to the producer's load (the producer wakes it). Steady-state traffic
// touches neither the spill mutex nor any wake syscall.
//
// `BatchBracket` is the one implementation of the IProcess batch-bracket
// rule: on_batch_begin/on_batch_end wrap each run of consecutive
// deliveries to one (process, delivery shard) context.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/mpsc_ring.h"
#include "common/sync.h"
#include "net/envelope.h"
#include "net/transport.h"

namespace bftreg::runtime {

/// One unit of mailbox work. Deliveries carry the envelope inline (no
/// per-message closure allocation -- the old deque<function> mailbox heap-
/// allocated a capture block for every envelope); tasks (on_start, post,
/// timer fire) carry a closure.
struct MailItem {
  /// Non-null: deliver `env` to this process. Null: run `fn`.
  net::IProcess* proc{nullptr};
  net::Envelope env;
  std::function<void()> fn;
  /// The process delivery shard this item targets (IProcess::shard_of).
  /// Consumers key their on_batch_begin/on_batch_end brackets on
  /// (proc, shard) while draining a batch.
  uint32_t shard{0};
};

/// The batch bracket of one consumer thread. A bracket opens lazily before
/// the first delivery to a (process, shard) context and closes when the
/// next delivery belongs to another context, before a task runs, and at the
/// end of every drained batch -- so a bracketed process never spans foreign
/// work, and begin/end always pair on the consumer's thread.
class BatchBracket {
 public:
  bool is_open() const { return open_ != nullptr; }
  /// True when the open bracket is exactly (proc, shard).
  bool open_on(const net::IProcess* proc, uint32_t shard) const {
    return open_ == proc && open_shard_ == shard;
  }

  /// Delivers `env` inside (proc, shard)'s bracket, first closing a bracket
  /// open on another context.
  void deliver(net::IProcess* proc, uint32_t shard, const net::Envelope& env) {
    if (open_ != nullptr && !open_on(proc, shard)) close();
    if (open_ == nullptr) {
      proc->on_batch_begin(shard);
      open_ = proc;
      open_shard_ = shard;
    }
    proc->on_message(env);
  }

  /// Closes the open bracket, if any.
  void close() {
    if (open_ == nullptr) return;
    open_->on_batch_end(open_shard_);
    open_ = nullptr;
  }

  /// Forgets the open bracket without calling on_batch_end (its process
  /// crashed; the hooks are amortization-only by contract).
  void abandon() { open_ = nullptr; }

 private:
  net::IProcess* open_{nullptr};
  uint32_t open_shard_{0};
};

class Inbox {
 public:
  static constexpr size_t kDefaultRingCapacity = 1024;

  explicit Inbox(size_t ring_capacity = kDefaultRingCapacity)
      : ring_(ring_capacity) {}

  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  struct Pushed {
    /// The ring was full and the item went to the overflow deque (callers
    /// count it in their transport metrics).
    bool spilled{false};
    /// The consumer is parked or about to park: the caller must wake it.
    bool wake{false};
  };

  /// Producer side; any thread. Never drops.
  Pushed push(MailItem&& item) {
    Pushed out;
    if (!ring_.try_push(item)) {
      MutexLock lock(spill_mu_);
      overflow_.push_back(std::move(item));
      spilled_.store(true, std::memory_order_relaxed);
      out.spilled = true;
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // parked_ is only set by a consumer that found the inbox empty, so
    // this asks for one wake per sleep, not one per item.
    out.wake = parked_.load(std::memory_order_relaxed);
    return out;
  }

  /// Consumer side; owning thread only. Invokes `fn(item)` on what is
  /// queued now -- up to one ring lap, then the overflow spill -- and
  /// returns how many items it handled. Never blocks.
  template <typename Fn>
  size_t consume(Fn&& fn) {
    size_t handled = ring_.consume_batch(fn, ring_.capacity());
    if (spilled_.load(std::memory_order_acquire)) {
      // Move spilled items out before invoking handlers: fn may push into
      // this inbox again, which can take spill_mu_.
      std::vector<MailItem> spill;
      {
        MutexLock lock(spill_mu_);
        while (!overflow_.empty()) {
          spill.push_back(std::move(overflow_.front()));
          overflow_.pop_front();
        }
        spilled_.store(false, std::memory_order_relaxed);
      }
      for (MailItem& item : spill) fn(item);
      handled += spill.size();
    }
    return handled;
  }

  /// Consumer side: the first half of parking. Publishes the intent to
  /// sleep and re-checks the queues; returns true when the consumer may
  /// sleep (a producer that pushes from now on sees `wake`), false -- with
  /// the intent withdrawn -- when work is already queued. A successful
  /// try_park must be followed by unpark() once the consumer is awake.
  bool try_park() {
    parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!ring_.empty() || spilled_.load(std::memory_order_relaxed)) {
      parked_.store(false, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  void unpark() { parked_.store(false, std::memory_order_relaxed); }

  /// Destroys every queued item without running it, releasing what the
  /// items hold (payload chunks, closure captures). Consumer side, for use
  /// after the consumer has stopped.
  void discard() {
    consume([](MailItem&) {});
  }

 private:
  common::MpscRing<MailItem> ring_;
  Mutex spill_mu_;
  std::deque<MailItem> overflow_ GUARDED_BY(spill_mu_);
  /// Set under spill_mu_ by a spilling producer, cleared under spill_mu_
  /// by the consumer once it moved the overflow out; the lock-free load in
  /// consume() only decides whether to bother taking the lock.
  std::atomic<bool> spilled_{false};
  std::atomic<bool> parked_{false};
};

}  // namespace bftreg::runtime
