// Sharded event loop: the thread model of both real-time transports,
// socknet::TcpNetwork and runtime::ThreadNetwork.
//
// A `LoopShard` is one epoll set driven by one thread, and it runs
// everything the transport does to completion on that thread:
//
//   * file descriptors: add_fd/mod_fd/del_fd register a callback per fd;
//     the loop thread invokes it with the ready epoll event mask. Readers
//     parse on readiness, writers arm EPOLLOUT on partial writes and
//     disarm when drained -- no thread ever blocks in a socket call.
//   * deliveries: each (process, delivery shard) context is owned by one
//     loop shard (context_shard()). A frame parsed on the owning shard is
//     handled inline; a frame parsed elsewhere, every in-memory send and
//     every post()ed task goes through the shard's inbox
//     (runtime/mailbox.h), a lock-free MPSC ring the loop drains at the
//     top of each pass.
//   * timers: run_after() schedules a closure on the shard's timer heap
//     (client deadlines, and the in-memory transport's message delays);
//     the loop parks in epoll_pwait2 with a nanosecond timeout derived
//     from the nearest deadline.
//   * deferred work: defer() queues a closure (the transport's flushes) to
//     run when the current turn ends, so a burst of handlers never holds
//     back the shard's own writes for longer than one turn.
//
// A *turn* is one fd callback (with every delivery it makes inline), one
// task, one timer fire, or one run of consecutive inbox deliveries to a
// single context (its on_batch_begin/end bracket). Every turn ends by
// closing the open bracket and running what was deferred during it.
//
// `EventLoop` is the pool: N shards, started and stopped together. The
// shard count is fixed at construction (net::TransportOptions::loop_shards)
// and *independent of how many endpoints or connections exist* -- that is
// the point. These threads are the transports' whole thread budget
// (bftreg_lint rule socknet-thread). Work is distributed by hashing: an
// endpoint's home shard is hash(pid) % N (stable for the endpoint's
// lifetime; asserted by tests).
//
// Threading contract:
//   * post()/push()/run_after() are thread-safe and never block.
//   * add_fd/mod_fd/del_fd/defer must be called on the shard's own thread
//     (post() a task to get there). Asserted in debug builds.
//   * handlers run on the shard thread, one at a time; a handler may
//     add/del fds of its own shard, including the one it fired for. A
//     handler that blocks stalls every socket of its shard.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.h"
#include "runtime/mailbox.h"

namespace bftreg::runtime {

class LoopShard {
 public:
  /// Callback for fd readiness; receives the ready epoll event mask
  /// (EPOLLIN / EPOLLOUT / EPOLLERR / EPOLLHUP bits).
  using FdHandler = std::function<void(uint32_t events)>;

  LoopShard();
  ~LoopShard();

  LoopShard(const LoopShard&) = delete;
  LoopShard& operator=(const LoopShard&) = delete;

  void start();
  /// request_stop() then join(): runs what the inbox holds, drops pending
  /// timers (the transport contract), and joins the thread. Registered fds
  /// are NOT closed -- their owner reclaims them after the join, when
  /// nothing can race the close.
  void stop();
  /// Asks the loop to exit after draining its inbox once more. Any thread.
  void request_stop();
  /// Joins the loop thread, then destroys whatever a late push left in the
  /// inbox without running it.
  void join();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool on_loop_thread() const;

  /// Enqueues `fn` to run on the loop thread. Thread-safe; never blocks.
  void post(std::function<void()> fn) {
    push(MailItem{nullptr, {}, std::move(fn)});
  }

  /// Enqueues a delivery or task item. Thread-safe; never blocks. Returns
  /// true when the ring was full and the item spilled.
  bool push(MailItem&& item);

  /// Delivers `env` to the (proc, shard) context this loop owns. From the
  /// loop thread -- an fd callback, never a handler -- the handler runs
  /// inline inside the context's batch bracket; from any other thread the
  /// item goes through the inbox. Returns true when the item spilled.
  bool deliver(net::IProcess* proc, uint32_t shard, net::Envelope&& env);

  /// Runs `fn` on the loop thread no earlier than `delta_ns` from now.
  /// Thread-safe. Pending timers are dropped at stop().
  void run_after(TimeNs delta_ns, std::function<void()> fn);

  /// Runs `fn` on the loop thread when the current turn ends. Loop thread
  /// only.
  void defer(std::function<void()> fn);

  // --- fd registration (loop thread only) ---------------------------------

  void add_fd(int fd, uint32_t events, FdHandler handler);
  void mod_fd(int fd, uint32_t events);
  /// Unregisters the handler. Does not close the fd. Safe to call from the
  /// fd's own handler; a deleted fd's queued events in the current batch
  /// are skipped.
  void del_fd(int fd);
  bool has_fd(int fd) const;
  /// Unregisters every fd (stop-time: no more reads or accepts). Until the
  /// next start(), add_fd/mod_fd are then ignored, so work still draining
  /// (a flush, a redial) cannot re-arm a socket.
  void clear_fds();

 private:
  struct Timer {
    TimeNs due;
    uint64_t seq;
    std::function<void()> fn;
  };

  void loop();
  /// Runs one pass over the inbox; returns the number of items handled
  /// (progress signal for the park heuristic in loop()).
  size_t drain_inbox();
  /// Closes the open batch bracket and runs the deferred work.
  void end_turn();
  void run_deferred();
  /// Kicks the loop out of epoll_wait. Coalesced: between two passes only
  /// the first caller pays the eventfd write syscall; later callers see
  /// wake_pending_ already set and return immediately.
  void wake();
  void add_timer(TimeNs due, std::function<void()> fn);
  /// Fires the due timers and returns the park timeout (ns) until the
  /// next deadline, capped at 60 s (-1 = none).
  int64_t run_timers();
  static TimeNs mono_now();

  int epoll_fd_{-1};
  int wake_fd_{-1};
  std::atomic<bool> running_{false};
  /// True while a wake has been issued that the loop has not yet consumed
  /// (cleared at the top of every pass, before the inbox drain, so a push
  /// landing after the clear either is drained by that pass or issues a
  /// fresh -- at worst spurious -- wake; a wake is never lost).
  std::atomic<bool> wake_pending_{false};

  /// Deliveries and tasks from other threads. Its park handshake decides
  /// whether a producer must wake the loop: only when the loop is parked
  /// (or about to park) in epoll_wait.
  Inbox inbox_;

  // Loop-thread private.
  BatchBracket bracket_;
  std::vector<std::function<void()>> deferred_;
  std::map<int, std::shared_ptr<FdHandler>> handlers_;
  bool fds_cleared_{false};
  std::vector<Timer> heap_;  // min-heap on (due, seq)
  uint64_t timer_seq_{0};

  std::thread thread_;
};

/// Fixed pool of LoopShards plus the hashing that assigns work to them.
class EventLoop {
 public:
  explicit EventLoop(size_t shards);

  void start();
  /// Stops every shard in phases, so that no shard pushes into the inbox of
  /// one that already exited:
  ///   1. each shard unregisters its fds -- no more reads, accepts or
  ///      deliveries from the wire -- and runs `rundown(shard)` on its own
  ///      thread; stop() waits until every shard has;
  ///   2. each shard drains its inbox once more and exits;
  ///   3. every thread is joined, and what a late cross-shard post left in
  ///      an inbox is destroyed unrun (like a timer pending at shutdown).
  /// External threads only (it joins the shards).
  void stop(const std::function<void(size_t shard)>& rundown);

  size_t size() const { return shards_.size(); }
  LoopShard& shard(size_t idx) { return *shards_[idx]; }

  /// Stable home shard for an endpoint: hash(pid) % size(). Listeners,
  /// connections, timers and delivery context 0 of the endpoint live here.
  size_t shard_of(const ProcessId& pid) const;

  /// The shard that owns delivery context `context` of an endpoint whose
  /// home shard is `home`: (home + context) % size(), so a sharded process
  /// spreads its contexts over consecutive shards. Both transports place
  /// contexts with this.
  size_t context_shard(size_t home, uint32_t context) const {
    return (home + context) % shards_.size();
  }

  bool on_loop_thread() const;

 private:
  std::vector<std::unique_ptr<LoopShard>> shards_;
};

}  // namespace bftreg::runtime
