// Lost-wakeup stress for the event-loop park handshake: external threads
// post() tasks to loop shards that keep parking in epoll_wait, and every
// task must run promptly. A missed wake leaves a task stranded in a parked
// shard's inbox until some later post happens to wake it -- or forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "socknet/tcp_network.h"

namespace bftreg::socknet {
namespace {

class Idle final : public net::IProcess {
 public:
  void on_message(const net::Envelope&) override {}
};

TEST(LoopShardWakeStress, EveryPostToAParkedShardRunsWithinOneSecond) {
  using Clock = std::chrono::steady_clock;
  constexpr uint32_t kEndpoints = 8;
  constexpr int kPosters = 4;
  constexpr int kPostsPerPoster = 20000;
  constexpr int64_t kLimitUs = 1'000'000;

  TcpConfig cfg;
  cfg.options.loop_shards = 4;
  TcpNetwork net(cfg);
  std::deque<Idle> procs(kEndpoints);
  for (uint32_t i = 0; i < kEndpoints; ++i) {
    net.add_process(ProcessId::reader(i), &procs[i], /*listen=*/false);
  }
  net.start();

  std::atomic<int> ran{0};
  std::atomic<int64_t> worst_us{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < kPosters; ++t) {
    posters.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int k = 0; k < kPostsPerPoster; ++k) {
        const auto posted = Clock::now();
        net.post(ProcessId::reader(static_cast<uint32_t>(rng.uniform(kEndpoints))),
                 [&ran, &worst_us, posted] {
                   const int64_t us =
                       std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - posted)
                           .count();
                   int64_t seen = worst_us.load();
                   while (us > seen && !worst_us.compare_exchange_weak(seen, us)) {
                   }
                   ran.fetch_add(1);
                 });
        // Mostly back-to-back posts (busy loops, coalesced wakes), with
        // pauses long enough for every shard to yield and park.
        if (rng.uniform(16) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(rng.uniform(400)));
        }
      }
    });
  }
  for (auto& t : posters) t.join();

  constexpr int kTotal = kPosters * kPostsPerPoster;
  const auto deadline = Clock::now() + std::chrono::microseconds(kLimitUs);
  while (ran.load() < kTotal && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), kTotal);
  EXPECT_LT(worst_us.load(), kLimitUs);
  net.stop();
}

}  // namespace
}  // namespace bftreg::socknet
