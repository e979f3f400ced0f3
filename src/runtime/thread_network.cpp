#include "runtime/thread_network.h"

#include <algorithm>
#include <cassert>
#include <latch>

namespace bftreg::runtime {

/// What the network holds for one registered process.
struct ThreadNetwork::Proc {
  /// Atomic so replace_process can swap in a recovered server while the
  /// shards run; gates load it per item (acquire pairs with the swap's
  /// release, ordering the new object's construction first).
  std::atomic<net::IProcess*> process{nullptr};
  std::atomic<bool> crashed{false};
  /// EventLoop::shard_of(pid): runs context 0, tasks and timers.
  size_t home{0};
  /// One gate per delivery context (IProcess::delivery_shards, >= 1).
  std::vector<std::unique_ptr<Gate>> gates;
};

/// One delivery context of a registered process, as its owning shard sees
/// it. Every delivery to the context carries the gate as MailItem::proc, so
/// the shard's batch bracket opens and closes on the gate, and the gate
/// applies the crash and replace rules to each item. Only the owning
/// shard's thread touches `open_`.
class ThreadNetwork::Gate final : public net::IProcess {
 public:
  Gate(const Proc& proc, uint32_t context, LoopShard& owner)
      : proc_(proc), context_(context), owner_(owner) {}

  LoopShard& owner() const { return owner_; }

  void on_message(const net::Envelope& env) override {
    if (proc_.crashed.load(std::memory_order_acquire)) {
      open_ = nullptr;  // the crash interrupted the bracket: drop it
      return;
    }
    // Loaded per item: a backlog queued before replace_process reaches the
    // replacement, which is just the network being slow.
    net::IProcess* current = proc_.process.load(std::memory_order_acquire);
    if (current != open_) {
      if (open_ != nullptr) open_->on_batch_end(context_);
      current->on_batch_begin(context_);
      open_ = current;
    }
    current->on_message(env);
  }

  /// The bracket opens lazily in on_message, on the object that handles
  /// the first delivery.
  void on_batch_begin(uint32_t) override {}

  void on_batch_end(uint32_t) override {
    // A bracket the crash interrupted is dropped without on_batch_end: the
    // hooks only amortize, and a revived or replaced process flushes what
    // the dropped bracket left pending at its next batch.
    if (open_ != nullptr && !proc_.crashed.load(std::memory_order_acquire)) {
      open_->on_batch_end(context_);
    }
    open_ = nullptr;
  }

 private:
  const Proc& proc_;
  const uint32_t context_;
  LoopShard& owner_;
  net::IProcess* open_{nullptr};
};

ThreadNetwork::ThreadNetwork(RuntimeConfig config)
    : auth_(crypto::KeyRegistry(config.master_secret)),
      delay_(std::move(config.delay)),
      loop_(net::TransportOptions{}.resolved().loop_shards),
      rng_(config.seed),
      epoch_(std::chrono::steady_clock::now()) {}

ThreadNetwork::~ThreadNetwork() { stop(); }

void ThreadNetwork::add_process(const ProcessId& pid, net::IProcess* process) {
  assert(!running_.load(std::memory_order_acquire));
  auto proc = std::make_unique<Proc>();
  proc->process.store(process, std::memory_order_relaxed);
  proc->home = loop_.shard_of(pid);
  const uint32_t contexts = std::max<uint32_t>(1, process->delivery_shards());
  proc->gates.reserve(contexts);
  for (uint32_t c = 0; c < contexts; ++c) {
    proc->gates.push_back(std::make_unique<Gate>(
        *proc, c, loop_.shard(loop_.context_shard(proc->home, c))));
  }
  auto& slots = by_role_[static_cast<uint8_t>(pid.role)];
  if (slots.size() <= pid.index) slots.resize(pid.index + 1, nullptr);
  slots[pid.index] = proc.get();
  procs_[pid] = std::move(proc);
}

void ThreadNetwork::start() {
  assert(!running_.load(std::memory_order_acquire));
  running_.store(true, std::memory_order_release);
  {
    std::vector<ProcessId> pids;
    pids.reserve(procs_.size());
    for (const auto& [pid, proc] : procs_) pids.push_back(pid);
    auth_.precompute(pids);
  }
  for (const auto& [pid, proc] : procs_) {
    Proc* p = proc.get();
    post(pid, [p] { p->process.load(std::memory_order_acquire)->on_start(); });
  }
  loop_.start();
}

void ThreadNetwork::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Joining our own loop thread would deadlock; stop() is an
  // external-thread API (see header contract).
  assert(!loop_.on_loop_thread() && "stop() called from a network-owned thread");
  loop_.stop([](size_t) {});
}

void ThreadNetwork::mark_crashed(const ProcessId& pid) {
  if (Proc* proc = find(pid)) {
    proc->crashed.store(true, std::memory_order_release);
  }
}

void ThreadNetwork::quiesce(const ProcessId& pid) {
  Proc* proc = find(pid);
  if (proc == nullptr || !running_.load(std::memory_order_acquire)) return;
  assert(proc->crashed.load(std::memory_order_acquire) &&
         "quiesce() requires mark_crashed() first");
  assert(!loop_.on_loop_thread() && "quiesce() on a shard waits on itself");
  // The shards that own one of pid's contexts, each once.
  std::vector<LoopShard*> owners;
  for (const auto& gate : proc->gates) {
    if (std::find(owners.begin(), owners.end(), &gate->owner()) ==
        owners.end()) {
      owners.push_back(&gate->owner());
    }
  }
  // The crashed store above happens before each barrier item is pushed, so
  // every item a shard takes after its barrier sees the crash. Shared, not
  // on this stack: a shard may still be inside count_down() when the wait
  // returns.
  auto barrier =
      std::make_shared<std::latch>(static_cast<std::ptrdiff_t>(owners.size()));
  for (LoopShard* owner : owners) {
    owner->post([barrier] { barrier->count_down(); });
  }
  barrier->wait();
}

void ThreadNetwork::replace_process(const ProcessId& pid,
                                    net::IProcess* process) {
  Proc* proc = find(pid);
  if (proc == nullptr) return;
  assert(std::max<uint32_t>(1, process->delivery_shards()) ==
             proc->gates.size() &&
         "replacement process must use the same shard count");
  // Release pairs with the gate's per-item acquire load: everything the
  // replacement's constructor did (WAL replay included) is visible before
  // any handler runs it.
  proc->process.store(process, std::memory_order_release);
}

void ThreadNetwork::revive(const ProcessId& pid) {
  if (Proc* proc = find(pid)) {
    proc->crashed.store(false, std::memory_order_release);
  }
}

TimeNs ThreadNetwork::now() const {
  return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - epoch_)
                                 .count());
}

ThreadNetwork::Proc* ThreadNetwork::find(const ProcessId& pid) const {
  const auto role = static_cast<uint8_t>(pid.role);
  if (role >= 3) return nullptr;
  const auto& slots = by_role_[role];
  return pid.index < slots.size() ? slots[pid.index] : nullptr;
}

std::function<void()> ThreadNetwork::gated(const Proc* proc,
                                           std::function<void()> fn) {
  return [proc, fn = std::move(fn)] {
    if (!proc->crashed.load(std::memory_order_acquire)) fn();
  };
}

void ThreadNetwork::send_payload(const ProcessId& from, const ProcessId& to,
                                 Payload payload) {
  if (Proc* src = find(from);
      src != nullptr && src->crashed.load(std::memory_order_acquire)) {
    return;
  }
  net::Envelope env;
  env.from = from;
  env.to = to;
  env.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  env.sent_at = now();
  env.mac = auth_.seal(from, to, payload);
  env.payload = std::move(payload);
  metrics_.on_send(env.payload.size());

  TimeNs d = 0;
  if (delay_) {
    MutexLock lock(rng_mu_);
    d = delay_->delay(env, rng_);
  }
  Proc* dst = find(to);
  if (dst == nullptr) return;
  // shard_of runs on the sender's thread by contract (pure function of the
  // envelope); the modulo keeps a buggy override in range.
  uint32_t context = 0;
  if (dst->gates.size() > 1) {
    context = dst->process.load(std::memory_order_acquire)->shard_of(env) %
              static_cast<uint32_t>(dst->gates.size());
  }
  if (d == 0) {
    deliver(dst, context, std::move(env));
    return;
  }
  // The delay runs on the shard that owns the destination context, which
  // pushes the envelope to itself when it falls due.
  dst->gates[context]->owner().run_after(
      d, [this, dst, context, env = std::move(env)]() mutable {
        deliver(dst, context, std::move(env));
      });
}

void ThreadNetwork::deliver(Proc* dst, uint32_t context, net::Envelope&& env) {
  if (dst->crashed.load(std::memory_order_acquire)) return;
  // Unlike the socket transport, no byte ever left this address space:
  // every envelope was sealed by send_payload over an immutable refcounted
  // payload, so re-verifying here is the identity check by construction.
  // Model the receiver-side verification as a debug assertion instead of
  // burning a SipHash pass per delivery.
  assert(auth_.verify(env.from, env.to, env.payload, env.mac));
  metrics_.on_deliver();
  Gate* gate = dst->gates[context].get();
  if (gate->owner().push(MailItem{gate, std::move(env), nullptr, context})) {
    metrics_.on_mailbox_overflow();
  }
}

void ThreadNetwork::post(const ProcessId& pid, std::function<void()> fn) {
  // Tasks (on_start, client op starts) run on the home shard, in context 0,
  // so they keep the single-context guarantee protocol clients rely on.
  Proc* proc = find(pid);
  if (proc == nullptr) return;
  if (loop_.shard(proc->home)
          .push(MailItem{nullptr, {}, gated(proc, std::move(fn))})) {
    metrics_.on_mailbox_overflow();
  }
}

void ThreadNetwork::post_after(const ProcessId& pid, TimeNs delta,
                               std::function<void()> fn) {
  if (delta == 0) {
    post(pid, std::move(fn));
    return;
  }
  // Timers live on the home shard too, so a timer fires straight into
  // context 0. Pending timers are dropped at stop() by the LoopShard
  // contract, matching the Transport interface.
  if (Proc* proc = find(pid)) {
    loop_.shard(proc->home).run_after(delta, gated(proc, std::move(fn)));
  }
}

}  // namespace bftreg::runtime
