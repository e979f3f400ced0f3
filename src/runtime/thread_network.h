// Real-time, thread-per-shard transport.
//
// The same protocol state machines that run under the deterministic
// simulator run here on actual OS threads with wall-clock delays: each
// process owns one mailbox thread per delivery shard (IProcess::
// delivery_shards(), 1 for almost everything) that serializes its
// handlers, and a scheduler thread applies the configured delay model
// before routing envelopes to destination mailboxes. Used by the
// throughput/latency benches (E3) and the examples.
//
// Delivery is lock-free in the steady state: senders publish MailItems
// into the destination shard's bounded MPSC ring (runtime/mailbox.h) and
// the shard thread drains them in batches; mutexes appear only when a
// consumer parks idle or a full ring spills to the overflow deque.
//
// Locking map (statically checked under clang -Wthread-safety):
//   * each MailboxShard's inbox guards its overflow deque with a spill
//     mutex, and the shard parks its idle consumer on its own mu/cv pair
//     (see runtime/mailbox.h for the wake handshake);
//   * sched_mu_ guards the delayed-delivery priority queue.
//   * rng_mu_ guards the delay-model RNG (senders draw delays concurrently).
// boxes_ itself is written only before start() and is read-only afterwards,
// so lookups need no lock.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "common/types.h"
#include "crypto/auth.h"
#include "net/delay.h"
#include "net/transport.h"
#include "runtime/mailbox.h"

namespace bftreg::runtime {

struct RuntimeConfig {
  uint64_t seed{1};
  uint64_t master_secret{0x5eC4e7B17e5eCBA5ULL};
  /// Artificial per-message delay; null means deliver immediately
  /// (still asynchronously, through the destination mailbox).
  std::unique_ptr<net::DelayModel> delay;
};

class ThreadNetwork final : public net::Transport {
 public:
  explicit ThreadNetwork(RuntimeConfig config);
  ~ThreadNetwork() override;

  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// Registers a process before start(); caller retains ownership.
  void add_process(const ProcessId& pid, net::IProcess* process);

  /// Spawns mailbox threads and invokes on_start() on each of them.
  void start();

  /// Drains mailboxes and joins all threads.
  ///
  /// Contract: idempotent -- only the first call (the winner of the
  /// `running_` exchange) performs the shutdown; later or concurrent calls
  /// return immediately without waiting for it to finish. Must be called
  /// from an *external* thread (the owner or any client thread), never from
  /// a mailbox or scheduler thread: stop() joins those threads and would
  /// self-deadlock. Asserted in debug builds.
  void stop();

  void mark_crashed(const ProcessId& pid);

  // --- live restart (dynamic membership) ----------------------------------
  //
  // Crash/rejoin of a single process while the network keeps running:
  //   mark_crashed(pid)    -- stop delivering (items are dropped at handle
  //                           time, so a crash takes effect mid-batch);
  //   quiesce(pid)         -- wait until no mailbox thread is inside the old
  //                           process's handler (safe point for WAL replay);
  //   replace_process(pid) -- atomically swap in the recovered process
  //                           object (same shard count); stale backlog items
  //                           deliver to the NEW process, which is just the
  //                           network being slow;
  //   revive(pid)          -- resume delivery.
  // The caller owns both process objects and must keep the old one alive
  // until stop() (mailbox threads may still hold its pointer in in-flight
  // MailItems; they never dereference it post-swap, but harnesses keep a
  // graveyard anyway for clarity).

  /// Blocks until every mailbox thread of `pid` has left its handler.
  /// Call after mark_crashed(pid); the crashed flag keeps new items from
  /// entering handlers, so this is a one-way barrier, not a lull.
  void quiesce(const ProcessId& pid);

  /// Swaps the process object handling `pid`'s mailbox. The replacement
  /// must want the same number of delivery shards.
  void replace_process(const ProcessId& pid, net::IProcess* process);

  /// Clears the crashed flag; delivery to `pid` resumes.
  void revive(const ProcessId& pid);

  // --- net::Transport -----------------------------------------------------
  void send_payload(const ProcessId& from, const ProcessId& to,
                    Payload payload) override;
  TimeNs now() const override;
  void post(const ProcessId& pid, std::function<void()> fn) override;
  void post_after(const ProcessId& pid, TimeNs delta,
                  std::function<void()> fn) override;
  net::NetworkMetrics& metrics() override { return metrics_; }

 private:
  struct Mailbox {
    /// Atomic so replace_process can swap in a recovered server while
    /// mailbox threads run; handlers load it per item (acquire pairs with
    /// the swap's release, ordering the new object's construction first).
    std::atomic<net::IProcess*> process{nullptr};
    std::atomic<bool> crashed{false};
    // One ring + consumer thread per delivery shard; sized at add_process
    // from process->delivery_shards() and immutable afterwards.
    std::vector<std::unique_ptr<MailboxShard>> shards;
    /// Handler-entry tokens, one per shard (heap-separate: no false
    /// sharing with the hot ring). A thread increments seq_cst BEFORE the
    /// crashed check, so quiesce()'s crashed-then-count order is a sound
    /// Dekker handshake: once every counter reads 0, no handler of the old
    /// process is running or can start.
    std::vector<std::unique_ptr<std::atomic<int>>> active;
    std::vector<std::thread> threads;
  };

  /// A delayed delivery (envelope) or a delayed task (post_after timer);
  /// `fn` non-null marks a task, which is enqueued to `pid`'s mailbox when
  /// due instead of being routed as a message.
  struct Timed {
    TimeNs due;
    uint64_t seq;
    net::Envelope env;
    ProcessId pid;
    std::function<void()> fn;
    bool operator>(const Timed& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  void mailbox_loop(Mailbox* box, MailboxShard* shard, std::atomic<int>* active);
  void scheduler_loop() EXCLUDES(sched_mu_);
  void enqueue(Mailbox* box, uint32_t shard, MailItem item);
  void route(net::Envelope env);
  Mailbox* find(const ProcessId& pid) const;
  bool on_internal_thread() const;

  crypto::Authenticator auth_;
  std::unique_ptr<net::DelayModel> delay_;
  net::NetworkMetrics metrics_;
  std::unordered_map<ProcessId, std::unique_ptr<Mailbox>> boxes_;
  // Dense per-role index over boxes_ (role x index -> Mailbox*), built by
  // add_process and immutable after start(): the per-message find() on the
  // send/route hot path is two array loads instead of a hash probe.
  std::vector<Mailbox*> by_role_[3];

  Mutex sched_mu_;
  CondVar sched_cv_;
  std::priority_queue<Timed, std::vector<Timed>, std::greater<>> sched_queue_
      GUARDED_BY(sched_mu_);
  std::thread sched_thread_;

  // send() draws a delay under rng_mu_ and then (after releasing it)
  // schedules under sched_mu_; the declared order keeps any future nesting
  // in that direction -- tools/bftreg_lint flags inversions statically.
  Mutex rng_mu_ ACQUIRED_BEFORE(sched_mu_);
  Rng rng_ GUARDED_BY(rng_mu_);

  std::atomic<uint64_t> next_seq_{0};
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;
};

/// Runs a client operation on its mailbox thread and blocks the calling
/// thread until the protocol's completion callback fires. `start_fn`
/// receives a `done` closure it must arrange to be called exactly once.
class BlockingInvoker {
 public:
  explicit BlockingInvoker(ThreadNetwork& net) : net_(net) {}

  void run(const ProcessId& pid,
           const std::function<void(std::function<void()> done)>& start_fn);

 private:
  ThreadNetwork& net_;
};

}  // namespace bftreg::runtime
