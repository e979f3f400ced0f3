// Real-time in-memory transport.
//
// The same protocol state machines that run under the deterministic
// simulator run here on actual OS threads with wall-clock delays. No byte
// leaves the address space: an envelope is sealed on the sender's thread
// and handed to the shard that owns its destination context. Used by the
// throughput/latency benches (E3), the churn drills and the examples.
//
// Thread model: the event-loop shards of runtime/event_loop.h, the same
// ones TcpNetwork runs on, sized by net::TransportOptions{}.resolved().
// loop_shards. The thread count is that number, however many processes
// are registered. A process's home shard is hash(pid) % N; its delivery
// context i runs on shard (home + i) % N (EventLoop::context_shard), and
// its tasks (on_start, post) and timers (post_after) run on the home shard,
// inside context 0. Every delivery goes through the owning shard's inbox,
// a lock-free MPSC ring (runtime/mailbox.h), so a handler never runs
// inside another. A delayed send is a timer on the destination context's
// shard that pushes the envelope when it is due.
//
// Crash and replace rules live in one per-context gate, the MailItem::proc
// of every delivery: it loads the current process object per item, skips
// deliveries and tasks of a crashed process, and drops a batch bracket
// that a crash interrupted without calling on_batch_end.
//
// Locking map (statically checked under clang -Wthread-safety):
//   * rng_mu_ guards the delay-model RNG (senders draw delays concurrently);
//   * each shard inbox guards its overflow deque with a spill mutex.
// procs_ itself is written only before start() and is read-only afterwards,
// so lookups need no lock.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "common/types.h"
#include "crypto/auth.h"
#include "net/delay.h"
#include "net/transport.h"
#include "runtime/event_loop.h"

namespace bftreg::runtime {

struct RuntimeConfig {
  uint64_t seed{1};
  uint64_t master_secret{0x5eC4e7B17e5eCBA5ULL};
  /// Artificial per-message delay; null means deliver immediately
  /// (still asynchronously, through the destination shard's inbox).
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

  /// Starts the loop shards and runs on_start() of every process in its
  /// context 0.
  void start();

  /// Runs what the shard inboxes hold, drops pending timers, and joins the
  /// loop threads.
  ///
  /// Contract: idempotent -- only the first call (the winner of the
  /// `running_` exchange) performs the shutdown; later or concurrent calls
  /// return immediately without waiting for it to finish. Must be called
  /// from an *external* thread (the owner or any client thread), never from
  /// a handler: stop() joins the loop threads and would self-deadlock.
  /// Asserted in debug builds.
  void stop();

  void mark_crashed(const ProcessId& pid);

  // --- live restart (dynamic membership) ----------------------------------
  //
  // Crash/rejoin of a single process while the network keeps running:
  //   mark_crashed(pid)    -- stop delivering (items are dropped at handle
  //                           time, so a crash takes effect mid-batch);
  //   quiesce(pid)         -- wait until no shard is inside the old
  //                           process's handler (safe point for WAL replay);
  //   replace_process(pid) -- atomically swap in the recovered process
  //                           object (same shard count); stale backlog items
  //                           deliver to the NEW process, which is just the
  //                           network being slow;
  //   revive(pid)          -- resume delivery.
  // The caller owns both process objects and must keep the old one alive
  // until stop() (closures it posted may still sit in a shard's timer heap;
  // they are skipped while the process is crashed).

  /// Blocks until no shard that owns one of `pid`'s contexts is inside a
  /// handler of the current process object. Call after mark_crashed(pid),
  /// from an external thread: it posts a barrier to each of those shards
  /// and waits for all of them. A shard runs one item at a time, so once
  /// its barrier has run no old handler is running there, and every later
  /// item sees the crash.
  void quiesce(const ProcessId& pid);

  /// Swaps the process object handling `pid`'s deliveries. The replacement
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
  class Gate;
  struct Proc;

  /// Pushes `env` to the shard that owns `dst`'s context `context`, unless
  /// `dst` is crashed. Runs on the sender's thread, or on the owning shard
  /// when a delayed send falls due.
  void deliver(Proc* dst, uint32_t context, net::Envelope&& env);
  /// Wraps `fn` so that it runs only while `proc` is not crashed.
  static std::function<void()> gated(const Proc* proc, std::function<void()> fn);
  Proc* find(const ProcessId& pid) const;

  crypto::Authenticator auth_;
  std::unique_ptr<net::DelayModel> delay_;
  net::NetworkMetrics metrics_;
  std::unordered_map<ProcessId, std::unique_ptr<Proc>> procs_;
  // Dense per-role index over procs_ (role x index -> Proc*), built by
  // add_process and immutable after start(): the per-message find() on the
  // send hot path is two array loads instead of a hash probe.
  std::vector<Proc*> by_role_[3];
  EventLoop loop_;

  Mutex rng_mu_;
  Rng rng_ GUARDED_BY(rng_mu_);

  std::atomic<uint64_t> next_seq_{0};
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace bftreg::runtime
