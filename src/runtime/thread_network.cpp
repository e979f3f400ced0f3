#include "runtime/thread_network.h"

#include <algorithm>
#include <cassert>
#include <future>

#include "common/log.h"

namespace bftreg::runtime {

ThreadNetwork::ThreadNetwork(RuntimeConfig config)
    : auth_(crypto::KeyRegistry(config.master_secret)),
      delay_(std::move(config.delay)),
      rng_(config.seed),
      epoch_(std::chrono::steady_clock::now()) {}

ThreadNetwork::~ThreadNetwork() { stop(); }

void ThreadNetwork::add_process(const ProcessId& pid, net::IProcess* process) {
  assert(!running_.load(std::memory_order_acquire));
  auto box = std::make_unique<Mailbox>();
  box->process.store(process, std::memory_order_relaxed);
  const uint32_t nshards = std::max<uint32_t>(1, process->delivery_shards());
  box->shards.reserve(nshards);
  box->active.reserve(nshards);
  for (uint32_t s = 0; s < nshards; ++s) {
    box->shards.push_back(std::make_unique<MailboxShard>());
    box->active.push_back(std::make_unique<std::atomic<int>>(0));
  }
  auto& slots = by_role_[static_cast<uint8_t>(pid.role)];
  if (slots.size() <= pid.index) slots.resize(pid.index + 1, nullptr);
  slots[pid.index] = box.get();
  boxes_[pid] = std::move(box);
}

void ThreadNetwork::start() {
  assert(!running_.load(std::memory_order_acquire));
  running_.store(true, std::memory_order_release);
  {
    std::vector<ProcessId> pids;
    pids.reserve(boxes_.size());
    for (const auto& [pid, box] : boxes_) pids.push_back(pid);
    auth_.precompute(pids);
  }
  sched_thread_ = std::thread([this] { scheduler_loop(); });
  for (auto& [pid, box] : boxes_) {
    Mailbox* b = box.get();
    b->threads.reserve(b->shards.size());
    for (size_t s = 0; s < b->shards.size(); ++s) {
      MailboxShard* shard = b->shards[s].get();
      std::atomic<int>* active = b->active[s].get();
      b->threads.emplace_back(
          [this, b, shard, active] { mailbox_loop(b, shard, active); });
    }
    enqueue(b, 0, MailItem{nullptr, {}, [b] {
                    b->process.load(std::memory_order_acquire)->on_start();
                  }});
  }
}

bool ThreadNetwork::on_internal_thread() const {
  const auto self = std::this_thread::get_id();
  if (sched_thread_.joinable() && self == sched_thread_.get_id()) return true;
  for (const auto& [pid, box] : boxes_) {
    for (const auto& t : box->threads) {
      if (t.joinable() && self == t.get_id()) return true;
    }
  }
  return false;
}

void ThreadNetwork::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Joining our own mailbox/scheduler thread would deadlock; stop() is an
  // external-thread API (see header contract).
  assert(!on_internal_thread() && "stop() called from a network-owned thread");
  {
    MutexLock lock(sched_mu_);
    sched_cv_.notify_all();
  }
  if (sched_thread_.joinable()) sched_thread_.join();
  for (auto& [pid, box] : boxes_) {
    for (auto& shard : box->shards) shard->stop();
    for (auto& t : box->threads) {
      if (t.joinable()) t.join();
    }
  }
}

void ThreadNetwork::mark_crashed(const ProcessId& pid) {
  if (Mailbox* box = find(pid)) {
    // seq_cst pairs with the handler's seq_cst entry token: see quiesce().
    box->crashed.store(true, std::memory_order_seq_cst);
  }
}

void ThreadNetwork::quiesce(const ProcessId& pid) {
  Mailbox* box = find(pid);
  if (box == nullptr) return;
  assert(box->crashed.load(std::memory_order_seq_cst) &&
         "quiesce() requires mark_crashed() first");
  // Dekker handshake with the handler: it increments its token seq_cst and
  // THEN checks crashed. In the single total order, either the handler saw
  // crashed == true (and skips the process), or its increment precedes our
  // crashed store -- in which case the load below observes the token held
  // until that handler exits. Once all counters read 0, no old-process
  // handler runs or can start.
  for (const auto& active : box->active) {
    while (active->load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
}

void ThreadNetwork::replace_process(const ProcessId& pid,
                                    net::IProcess* process) {
  Mailbox* box = find(pid);
  if (box == nullptr) return;
  assert(std::max<uint32_t>(1, process->delivery_shards()) ==
             box->shards.size() &&
         "replacement process must use the same shard count");
  // Release pairs with the handler's per-item acquire load: everything the
  // replacement's constructor did (WAL replay included) is visible before
  // any handler runs it.
  box->process.store(process, std::memory_order_release);
}

void ThreadNetwork::revive(const ProcessId& pid) {
  if (Mailbox* box = find(pid)) {
    box->crashed.store(false, std::memory_order_seq_cst);
  }
}

TimeNs ThreadNetwork::now() const {
  return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - epoch_)
                                 .count());
}

ThreadNetwork::Mailbox* ThreadNetwork::find(const ProcessId& pid) const {
  const auto role = static_cast<uint8_t>(pid.role);
  if (role >= 3) return nullptr;
  const auto& slots = by_role_[role];
  return pid.index < slots.size() ? slots[pid.index] : nullptr;
}

void ThreadNetwork::enqueue(Mailbox* box, uint32_t shard, MailItem item) {
  item.shard = shard;
  if (box->shards[shard]->push_item(std::move(item))) {
    metrics_.on_mailbox_overflow();
  }
}

void ThreadNetwork::mailbox_loop(Mailbox* box, MailboxShard* shard,
                                 std::atomic<int>* active) {
  // pop_wait_consume drains whole batches in place: under load the ring
  // hands us bursts without a lock in sight, and the per-item crashed
  // check is preserved -- a crash takes effect mid-batch, exactly as it
  // did item-by-item.
  //
  // The entry token goes up seq_cst BEFORE the crashed check (the other
  // half of quiesce()'s Dekker handshake), and the current process object
  // is loaded per item -- `item.proc` only discriminates envelope vs task,
  // so an item enqueued before a replace_process delivers to the NEW
  // process, which is indistinguishable from the network being slow.
  // Batch brackets (IProcess::on_batch_begin/end): a bracket opens lazily
  // before the first delivery of a ring batch and closes when the batch is
  // drained -- or early, when a task item interleaves or the loaded process
  // object changes (replace_process), so a bracketed process never spans
  // foreign work. A crash observed mid-batch abandons the bracket without
  // calling on_batch_end: the hooks are amortization-only by contract, and
  // a revived/replaced process flushes whatever the abandoned bracket left
  // pending at its next batch (indistinguishable from network delay).
  BatchBracket bracket;
  auto close_batch = [box, active, &bracket] {
    if (!bracket.is_open()) return;
    active->fetch_add(1, std::memory_order_seq_cst);
    if (box->crashed.load(std::memory_order_seq_cst)) {
      bracket.abandon();
    } else {
      bracket.close();
    }
    active->fetch_sub(1, std::memory_order_release);
  };
  auto handle = [box, active, &bracket](MailItem& item) {
    active->fetch_add(1, std::memory_order_seq_cst);
    if (!box->crashed.load(std::memory_order_seq_cst)) {
      if (item.proc != nullptr) {
        bracket.deliver(box->process.load(std::memory_order_acquire),
                        item.shard, item.env);
      } else if (item.fn) {
        bracket.close();
        item.fn();
      }
    } else {
      bracket.abandon();  // crashed: never re-enter the bracket
    }
    active->fetch_sub(1, std::memory_order_release);
  };
  while (shard->pop_wait_consume(handle)) {
    close_batch();
  }
}

void ThreadNetwork::send_payload(const ProcessId& from, const ProcessId& to,
                                 Payload payload) {
  if (Mailbox* src = find(from);
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
  if (d == 0) {
    route(std::move(env));
    return;
  }
  MutexLock lock(sched_mu_);
  sched_queue_.push(Timed{now() + d, env.seq, std::move(env), ProcessId{}, nullptr});
  sched_cv_.notify_one();
}

void ThreadNetwork::route(net::Envelope env) {
  Mailbox* box = find(env.to);
  if (box == nullptr || box->crashed.load(std::memory_order_acquire)) return;
  // Unlike the socket transport, no byte ever left this address space:
  // every envelope was sealed by send_payload above over an immutable
  // refcounted payload, so re-verifying here is the identity check by
  // construction. Model the receiver-side verification as a debug
  // assertion instead of burning a SipHash pass per delivery.
  assert(auth_.verify(env.from, env.to, env.payload, env.mac));
  metrics_.on_deliver();
  net::IProcess* proc = box->process.load(std::memory_order_acquire);
  // shard_of runs on the sender's thread by contract (pure function of the
  // envelope); the modulo keeps a buggy override in range.
  uint32_t shard = 0;
  if (box->shards.size() > 1) {
    shard = proc->shard_of(env) % static_cast<uint32_t>(box->shards.size());
  }
  enqueue(box, shard, MailItem{proc, std::move(env), nullptr});
}

void ThreadNetwork::scheduler_loop() {
  MutexLock lock(sched_mu_);
  for (;;) {
    if (!running_.load(std::memory_order_acquire)) {
      // Shutting down: anything not yet due is dropped -- pending
      // post_after timers may be arbitrarily far in the future and must
      // not stall stop(), which joins this thread.
      while (!sched_queue_.empty() && sched_queue_.top().due <= now()) {
        Timed item = std::move(const_cast<Timed&>(sched_queue_.top()));
        sched_queue_.pop();
        lock.unlock();
        if (item.fn) {
          post(item.pid, std::move(item.fn));
        } else {
          route(std::move(item.env));
        }
        lock.lock();
      }
      return;
    }
    if (sched_queue_.empty()) {
      sched_cv_.wait(lock);
      continue;
    }
    const TimeNs due = sched_queue_.top().due;
    const TimeNs t = now();
    if (t < due) {
      sched_cv_.wait_for(lock, std::chrono::nanoseconds(due - t));
      continue;
    }
    Timed item = std::move(const_cast<Timed&>(sched_queue_.top()));
    sched_queue_.pop();
    lock.unlock();
    if (item.fn) {
      post(item.pid, std::move(item.fn));
    } else {
      route(std::move(item.env));
    }
    lock.lock();
  }
}

void ThreadNetwork::post(const ProcessId& pid, std::function<void()> fn) {
  // Tasks (client op starts, timer fires) always run on shard 0 so they
  // keep the single-context guarantee protocol clients rely on.
  if (Mailbox* box = find(pid)) {
    enqueue(box, 0, MailItem{nullptr, {}, std::move(fn)});
  }
}

void ThreadNetwork::post_after(const ProcessId& pid, TimeNs delta,
                               std::function<void()> fn) {
  if (delta == 0) {
    post(pid, std::move(fn));
    return;
  }
  MutexLock lock(sched_mu_);
  sched_queue_.push(Timed{now() + delta, next_seq_.fetch_add(1, std::memory_order_relaxed),
                          net::Envelope{}, pid, std::move(fn)});
  sched_cv_.notify_one();
}

void BlockingInvoker::run(
    const ProcessId& pid,
    const std::function<void(std::function<void()> done)>& start_fn) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> fut = promise->get_future();
  net_.post(pid, [start_fn, promise] {
    start_fn([promise] { promise->set_value(); });
  });
  fut.wait();
}

}  // namespace bftreg::runtime
