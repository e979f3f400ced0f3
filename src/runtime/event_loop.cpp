#include "runtime/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <latch>
#include <utility>

#include "net/transport.h"

namespace bftreg::runtime {

namespace {
constexpr int kMaxEvents = 128;
}  // namespace

// --- LoopShard -------------------------------------------------------------

LoopShard::LoopShard() {
  epoll_fd_ = ::epoll_create1(0);
  assert(epoll_fd_ >= 0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  assert(wake_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

LoopShard::~LoopShard() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

TimeNs LoopShard::mono_now() {
  return static_cast<TimeNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
/// The shard whose loop runs on this thread (null off the loop threads).
thread_local const LoopShard* tls_shard = nullptr;
}  // namespace

void LoopShard::start() {
  assert(!running_.load(std::memory_order_relaxed));
  fds_cleared_ = false;  // the thread is not running: nothing races this
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void LoopShard::stop() {
  request_stop();
  join();
}

void LoopShard::request_stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof(one));
}

void LoopShard::join() {
  if (!thread_.joinable()) return;
  assert(!on_loop_thread() && "join() from the loop thread would self-join");
  thread_.join();
  inbox_.discard();
}

bool LoopShard::on_loop_thread() const { return tls_shard == this; }

void LoopShard::wake() {
  // Only called when the inbox reported the loop parked (or parking) in
  // epoll_wait. Coalesce: one unconsumed eventfd write is enough.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof(one));
}

bool LoopShard::push(MailItem&& item) {
  const Inbox::Pushed pushed = inbox_.push(std::move(item));
  if (pushed.wake) wake();
  return pushed.spilled;
}

bool LoopShard::deliver(net::IProcess* proc, uint32_t shard,
                        net::Envelope&& env) {
  if (on_loop_thread()) {
    // Inside an fd callback that is still parsing its connection: a
    // context switch only closes the bracket. The deferred flushes wait
    // for the callback's end of turn, since a flush that fails a
    // connection destroys it.
    bracket_.deliver(proc, shard, env);
    return false;
  }
  return push(MailItem{proc, std::move(env), nullptr, shard});
}

void LoopShard::end_turn() {
  bracket_.close();
  run_deferred();
}

void LoopShard::defer(std::function<void()> fn) {
  assert(on_loop_thread());
  deferred_.push_back(std::move(fn));
}

void LoopShard::run_deferred() {
  // Index loop: a deferred closure may defer more (appending), and moving
  // each closure out before the call keeps it valid across a reallocation.
  for (size_t i = 0; i < deferred_.size(); ++i) {
    std::function<void()> fn = std::move(deferred_[i]);
    fn();
  }
  deferred_.clear();
}

void LoopShard::run_after(TimeNs delta_ns, std::function<void()> fn) {
  const TimeNs due = mono_now() + delta_ns;
  if (on_loop_thread()) {
    add_timer(due, std::move(fn));
    return;
  }
  // Through the inbox, so the loop's park check covers new timers too and
  // recomputes its epoll timeout against the new deadline.
  post([this, due, fn = std::move(fn)]() mutable { add_timer(due, std::move(fn)); });
}

void LoopShard::add_fd(int fd, uint32_t events, FdHandler handler) {
  assert(on_loop_thread());
  if (fds_cleared_) return;
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  [[maybe_unused]] int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  assert(rc == 0);
}

void LoopShard::mod_fd(int fd, uint32_t events) {
  assert(on_loop_thread());
  if (fds_cleared_) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  [[maybe_unused]] int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  assert(rc == 0);
}

void LoopShard::del_fd(int fd) {
  assert(on_loop_thread());
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

bool LoopShard::has_fd(int fd) const {
  assert(on_loop_thread());
  return handlers_.count(fd) != 0;
}

void LoopShard::clear_fds() {
  assert(on_loop_thread());
  for (const auto& [fd, handler] : handlers_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  handlers_.clear();
  fds_cleared_ = true;
}

size_t LoopShard::drain_inbox() {
  const size_t handled = inbox_.consume([this](MailItem& item) {
    if (item.proc != nullptr) {
      // A context switch ends the previous context's turn, so its replies
      // (sent from on_batch_end) flush before the next context runs.
      if (!bracket_.open_on(item.proc, item.shard)) end_turn();
      bracket_.deliver(item.proc, item.shard, item.env);
      return;
    }
    end_turn();
    if (item.fn) item.fn();
    run_deferred();
  });
  end_turn();
  return handled;
}

namespace {
/// Min-heap order on (due, seq) for std::push_heap/pop_heap.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.due != b.due ? a.due > b.due : a.seq > b.seq;
};
}  // namespace

void LoopShard::add_timer(TimeNs due, std::function<void()> fn) {
  heap_.push_back(Timer{due, ++timer_seq_, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
}

int64_t LoopShard::run_timers() {
  for (;;) {
    if (heap_.empty()) return -1;
    const TimeNs now = mono_now();
    if (heap_.front().due > now) {
      return static_cast<int64_t>(
          std::min<TimeNs>(heap_.front().due - now, 60'000'000'000));
    }
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    Timer t = std::move(heap_.back());
    heap_.pop_back();
    t.fn();
    run_deferred();
  }
}

void LoopShard::loop() {
  tls_shard = this;
  epoll_event evs[kMaxEvents];
  bool yielded = false;
  while (running_.load(std::memory_order_acquire)) {
    // Re-arm wake() BEFORE draining: a push that lands after this store is
    // either drained below (its wake was spurious) or arrives later and
    // issues a fresh eventfd write -- either way the loop cannot park with
    // work queued.
    wake_pending_.store(false, std::memory_order_release);
    const bool ran_items = drain_inbox() > 0;
    const int64_t timeout_ns = run_timers();
    // Non-blocking poll first: under load the next readiness is usually
    // already here and the park/wake machinery below never runs. A shard
    // with no registered fds (every shard of the in-memory transport) has
    // nothing to poll for; a wake left unread is consumed by its next park.
    int n = handlers_.empty() ? 0 : ::epoll_wait(epoll_fd_, evs, kMaxEvents, 0);
    if (n == 0 && !ran_items) {
      // Nothing at all this pass. Yield once before parking: on a loaded
      // box the thread about to feed us (another shard mid-write to one of
      // our sockets, or a client thread posting) is often runnable right
      // now, and letting it run turns a park + eventfd wake + context
      // switch into a plain reschedule.
      if (!yielded) {
        yielded = true;
        std::this_thread::yield();
        continue;
      }
      // Park protocol (runtime/mailbox.h): publish the intent to sleep and
      // re-check the inbox. A producer that pushed before the intent was
      // visible is seen here; one that pushes after sees it and wakes us.
      // Timers added on this thread were merged by run_timers above. The
      // timeout is exact to the nanosecond: the in-memory transport's
      // message delays are tens of microseconds.
      if (inbox_.try_park()) {
        timespec timeout{};
        timeout.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
        timeout.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
        n = ::epoll_pwait2(epoll_fd_, evs, kMaxEvents,
                           timeout_ns < 0 ? nullptr : &timeout, nullptr);
        inbox_.unpark();
      }
    }
    if (n != 0 || ran_items) yielded = false;
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = evs[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t v;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &v, sizeof(v));
        continue;
      }
      // Look the handler up per event: a handler earlier in this batch may
      // have del_fd()'d this one (e.g. closed a sibling connection).
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      // Keep the closure alive across the call even if it del_fd()s itself.
      std::shared_ptr<FdHandler> h = it->second;
      (*h)(evs[i].events);
      end_turn();
    }
  }
  // Final drain: run what is already queued, then exit. Timers are dropped
  // by contract.
  drain_inbox();
  heap_.clear();
  tls_shard = nullptr;
}

// --- EventLoop -------------------------------------------------------------

EventLoop::EventLoop(size_t shards) {
  shards_.reserve(std::max<size_t>(shards, 1));
  for (size_t i = 0; i < std::max<size_t>(shards, 1); ++i) {
    shards_.push_back(std::make_unique<LoopShard>());
  }
}

void EventLoop::start() {
  for (auto& s : shards_) s->start();
}

void EventLoop::stop(const std::function<void(size_t shard)>& rundown) {
  assert(!on_loop_thread() && "stop() from a loop thread would self-join");
  // Phase 1: quiesce the wire on every shard before any shard exits.
  size_t live = 0;
  for (const auto& s : shards_) live += s->running() ? 1 : 0;
  // Shared, not on this stack: a shard may still be inside count_down()
  // when the wait below returns.
  auto quiesced = std::make_shared<std::latch>(static_cast<std::ptrdiff_t>(live));
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->running()) continue;
    shards_[s]->post([this, s, &rundown, quiesced] {
      shards_[s]->clear_fds();
      rundown(s);
      quiesced->count_down();
    });
  }
  quiesced->wait();
  // Phases 2 and 3.
  for (auto& s : shards_) s->request_stop();
  for (auto& s : shards_) s->join();
}

size_t EventLoop::shard_of(const ProcessId& pid) const {
  // Stable under the endpoint's lifetime AND across runs: hash only the
  // identity, never a pointer or registration order (tests pin this).
  uint8_t key[5];
  key[0] = static_cast<uint8_t>(pid.role);
  key[1] = static_cast<uint8_t>(pid.index);
  key[2] = static_cast<uint8_t>(pid.index >> 8);
  key[3] = static_cast<uint8_t>(pid.index >> 16);
  key[4] = static_cast<uint8_t>(pid.index >> 24);
  return fnv1a64(key, sizeof(key)) % shards_.size();
}

bool EventLoop::on_loop_thread() const {
  for (const auto& s : shards_) {
    if (s->on_loop_thread()) return true;
  }
  return false;
}

}  // namespace bftreg::runtime
