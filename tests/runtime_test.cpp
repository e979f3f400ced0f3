// Tests for the in-memory real-time transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/delay.h"
#include "net/transport.h"
#include "runtime/event_loop.h"
#include "runtime/thread_network.h"

namespace bftreg::runtime {
namespace {

class Counter final : public net::IProcess {
 public:
  explicit Counter(ProcessId self, net::Transport* transport = nullptr)
      : self_(self), transport_(transport) {}

  void on_start() override { started_.store(true); }

  void on_message(const net::Envelope& env) override {
    count_.fetch_add(1);
    last_payload_size_.store(env.payload.size());
    if (transport_ != nullptr && !env.payload.empty() && env.payload[0] == 'P') {
      transport_->send(self_, env.from, Bytes{'R'});
    }
  }

  bool started() const { return started_.load(); }
  int count() const { return count_.load(); }
  size_t last_payload_size() const { return last_payload_size_.load(); }

 private:
  ProcessId self_;
  net::Transport* transport_;
  std::atomic<bool> started_{false};
  std::atomic<int> count_{0};
  std::atomic<size_t> last_payload_size_{0};
};

bool wait_for(const std::function<bool()>& pred, int timeout_ms = 3000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ThreadNetworkTest, StartsProcessesAndDeliversMessages) {
  ThreadNetwork net(RuntimeConfig{});
  Counter a(ProcessId::writer(0));
  Counter b(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &a);
  net.add_process(ProcessId::server(0), &b);
  net.start();

  EXPECT_TRUE(wait_for([&] { return a.started() && b.started(); }));
  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes(32, 7));
  EXPECT_TRUE(wait_for([&] { return b.count() == 1; }));
  EXPECT_EQ(b.last_payload_size(), 32u);
  net.stop();
}

TEST(ThreadNetworkTest, RequestReplyAcrossThreads) {
  ThreadNetwork net(RuntimeConfig{});
  Counter client(ProcessId::reader(0), &net);
  Counter server(ProcessId::server(0), &net);
  net.add_process(ProcessId::reader(0), &client);
  net.add_process(ProcessId::server(0), &server);
  net.start();

  net.send(ProcessId::reader(0), ProcessId::server(0), Bytes{'P'});
  EXPECT_TRUE(wait_for([&] { return client.count() == 1; }));
  net.stop();
}

TEST(ThreadNetworkTest, ManyMessagesAllDelivered) {
  ThreadNetwork net(RuntimeConfig{});
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &dst);
  net.start();
  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  }
  EXPECT_TRUE(wait_for([&] { return dst.count() == kCount; }));
  net.stop();
  EXPECT_EQ(net.metrics().snapshot().messages_delivered,
            static_cast<uint64_t>(kCount));
}

TEST(ThreadNetworkTest, DelayedDeliveryArrivesLater) {
  RuntimeConfig cfg;
  cfg.delay = std::make_unique<net::FixedDelay>(20'000'000);  // 20 ms
  ThreadNetwork net(std::move(cfg));
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &dst);
  net.start();

  const auto t0 = std::chrono::steady_clock::now();
  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  EXPECT_TRUE(wait_for([&] { return dst.count() == 1; }));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 15);
  net.stop();
}

TEST(ThreadNetworkTest, CrashedProcessStopsReceivingAndSending) {
  ThreadNetwork net(RuntimeConfig{});
  Counter a(ProcessId::server(0));
  Counter b(ProcessId::server(1));
  net.add_process(ProcessId::server(0), &a);
  net.add_process(ProcessId::server(1), &b);
  net.start();

  net.mark_crashed(ProcessId::server(0));
  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  net.send(ProcessId::server(0), ProcessId::server(1), Bytes{1});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(b.count(), 0);
  net.stop();
}

size_t thread_count() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ThreadNetworkTest, StartsOneThreadPerLoopShard) {
  // Handlers, tasks, timers and delays all run on the event-loop shards, so
  // the thread count is loop_shards however many processes are registered.
  ThreadNetwork net(RuntimeConfig{});
  std::deque<Counter> procs;
  for (uint32_t i = 0; i < 9; ++i) {
    procs.emplace_back(ProcessId::server(i));
    net.add_process(ProcessId::server(i), &procs.back());
  }
  // A first thread spawn lets a sanitizer runtime start its own helper
  // thread now, outside the counted window.
  std::thread([] {}).join();
  const size_t before = thread_count();
  net.start();
  EXPECT_TRUE(wait_for([&] {
    return std::all_of(procs.begin(), procs.end(),
                       [](const Counter& p) { return p.started(); });
  }));
  EXPECT_EQ(thread_count() - before,
            net::TransportOptions{}.resolved().loop_shards);
  net.stop();
  EXPECT_EQ(thread_count(), before);
}

/// Payload byte 1 of the churn test's messages.
enum : uint8_t { kHold = 1, kPlain = 2, kLate = 3 };

/// Holds kLate messages 1 s; everything else goes at once.
class LateDelay final : public net::DelayModel {
 public:
  TimeNs delay(const net::Envelope& env, Rng&) override {
    return env.payload[1] == kLate ? 1'000'000'000 : 0;
  }
};

/// A process with four delivery contexts (payload byte 0 picks one). A
/// kHold message blocks its handler until release() so a crash can land
/// mid-batch. Records which threads ran each context, every call made after
/// the test retired the object, and every on_batch_end after the crash.
class ChurnSink final : public net::IProcess {
 public:
  static constexpr uint32_t kContexts = 4;

  uint32_t delivery_shards() const override { return kContexts; }
  uint32_t shard_of(const net::Envelope& env) const override {
    return env.payload[0] % kContexts;
  }

  void on_batch_begin(uint32_t c) override {
    note();
    if (ctx_[c].open) bad_brackets_.fetch_add(1);
    ctx_[c].open = true;
  }
  void on_batch_end(uint32_t c) override {
    note();
    if (!ctx_[c].open) bad_brackets_.fetch_add(1);
    if (crashed_.load()) ends_after_crash_.fetch_add(1);
    ctx_[c].open = false;
  }
  void on_message(const net::Envelope& env) override {
    note();
    Context& c = ctx_[shard_of(env)];
    if (!c.open) bad_brackets_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      c.threads.insert(std::this_thread::get_id());
    }
    if (env.payload[1] == kHold) {
      held_.fetch_add(1);
      while (!release_.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    if (env.payload[1] == kLate) late_.fetch_add(1);
  }

  void mark_crashed() { crashed_.store(true); }
  void release() { release_.store(true); }
  void retire() { retired_.store(true); }

  int held() const { return held_.load(); }
  int late() const { return late_.load(); }
  int late_calls() const { return late_calls_.load(); }
  int ends_after_crash() const { return ends_after_crash_.load(); }
  int bad_brackets() const { return bad_brackets_.load(); }
  std::set<std::thread::id> threads(uint32_t c) {
    std::lock_guard<std::mutex> lock(threads_mu_);
    return ctx_[c].threads;
  }

 private:
  struct Context {
    bool open{false};  // the context's own handlers only
    std::set<std::thread::id> threads;
  };
  void note() {
    if (retired_.load()) late_calls_.fetch_add(1);
  }

  Context ctx_[kContexts];
  std::mutex threads_mu_;
  std::atomic<bool> crashed_{false}, release_{false}, retired_{false};
  std::atomic<int> held_{0}, late_{0}, late_calls_{0};
  std::atomic<int> ends_after_crash_{0}, bad_brackets_{0};
};

TEST(ThreadNetworkTest, CrashMidBatchQuiesceAndReplaceAcrossShards) {
  const size_t shards = net::TransportOptions{}.resolved().loop_shards;
  // The network's shard hash, computed on an idle pool of the same size.
  EventLoop layout(shards);
  const ProcessId sink_id = ProcessId::server(0);
  const size_t home = layout.shard_of(sink_id);

  RuntimeConfig cfg;
  cfg.delay = std::make_unique<LateDelay>();
  ThreadNetwork net(std::move(cfg));
  ChurnSink old_sink;
  ChurnSink new_sink;
  net.add_process(sink_id, &old_sink);
  // One idle probe per shard: a task posted to it runs on that shard's
  // thread, which names the thread.
  std::deque<Counter> probes;
  std::vector<ProcessId> probe_of(shards);
  std::vector<bool> found(shards, false);
  for (uint32_t i = 0; std::count(found.begin(), found.end(), true) <
                       static_cast<long>(shards);
       ++i) {
    const ProcessId pid = ProcessId::reader(i);
    const size_t s = layout.shard_of(pid);
    if (found[s]) continue;
    found[s] = true;
    probe_of[s] = pid;
    probes.emplace_back(pid);
    net.add_process(pid, &probes.back());
  }
  net.start();
  std::vector<std::thread::id> shard_thread(shards);
  for (size_t s = 0; s < shards; ++s) {
    std::promise<std::thread::id> id;
    net.post(probe_of[s], [&id] { id.set_value(std::this_thread::get_id()); });
    auto fut = id.get_future();
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    shard_thread[s] = fut.get();
  }

  // Per context: one message that holds its handler and a backlog behind
  // it. Contexts that share a shard queue behind the one holding it, so
  // one handler per distinct shard is held: the crash lands mid-batch on
  // each.
  const ProcessId from = ProcessId::writer(0);
  constexpr int kBacklog = 50;
  constexpr int kLateMsgs = 20;
  for (uint8_t c = 0; c < ChurnSink::kContexts; ++c) {
    net.send(from, sink_id, Bytes{c, kHold});
    for (int k = 0; k < kBacklog; ++k) net.send(from, sink_id, Bytes{c, kPlain});
  }
  const int distinct = static_cast<int>(std::min<size_t>(ChurnSink::kContexts, shards));
  ASSERT_TRUE(wait_for([&] { return old_sink.held() == distinct; }));
  // Messages still in flight (1 s) when the process is replaced.
  for (uint8_t c = 0; c < ChurnSink::kContexts; ++c) {
    for (int k = 0; k < kLateMsgs; ++k) net.send(from, sink_id, Bytes{c, kLate});
  }

  net.mark_crashed(sink_id);
  old_sink.mark_crashed();
  auto quiesced = std::async(std::launch::async, [&] { net.quiesce(sink_id); });
  // The held handlers are old-object code still running: quiesce waits.
  EXPECT_EQ(quiesced.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  old_sink.release();
  ASSERT_EQ(quiesced.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  old_sink.retire();
  net.replace_process(sink_id, &new_sink);
  net.revive(sink_id);

  // The in-flight backlog reaches the replacement, on every context.
  EXPECT_TRUE(wait_for([&] {
    return new_sink.late() == static_cast<int>(ChurnSink::kContexts) * kLateMsgs;
  }));
  net.stop();

  EXPECT_EQ(old_sink.late_calls(), 0);  // nothing of the old object ran
  EXPECT_EQ(old_sink.ends_after_crash(), 0);  // its open brackets were dropped
  EXPECT_EQ(old_sink.bad_brackets(), 0);
  EXPECT_EQ(new_sink.bad_brackets(), 0);
  for (uint32_t c = 0; c < ChurnSink::kContexts; ++c) {
    // Context c runs on shard (home + c) % N, old object and new alike.
    const std::thread::id owner = shard_thread[layout.context_shard(home, c)];
    for (ChurnSink* sink : {&old_sink, &new_sink}) {
      for (const std::thread::id& t : sink->threads(c)) {
        EXPECT_EQ(t, owner) << "context " << c;
      }
    }
    EXPECT_EQ(new_sink.threads(c).size(), 1u) << "context " << c;
  }
}

TEST(ThreadNetworkTest, StopIsIdempotentAndJoinsCleanly) {
  ThreadNetwork net(RuntimeConfig{});
  Counter a(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &a);
  net.start();
  net.stop();
  net.stop();  // no deadlock, no crash
}

}  // namespace
}  // namespace bftreg::runtime
