// Transport data-plane throughput: loopback TCP and the in-memory thread
// runtime under a credit-windowed fan-in echo workload.
//
//   bench_transport                 human-readable table over the full grid
//   bench_transport --json=PATH     machine-readable snapshot
//                   [--quick]       shorter per-point message budget
//                   [--mailbox]     only the shard-count sweep (the CI
//                                   mailbox-bench quick gate)
//                   [--filter=STR]  only points whose "net/size/fanin[/sN]"
//                                   key contains STR (dev iteration)
//
// The common flags (--json/--quick/--seed/--duration) parse through
// bench::BenchArgs like every other bench binary; --mailbox/--filter are
// this binary's extras.
//
// Workload: `fanin - 1` source processes each keep a window of messages of
// `size` bytes in flight toward one sink; the sink acknowledges every
// message with an 8-byte credit, and a source refills its window as credits
// return. Throughput is counted at the sink (one-way payload bytes), so the
// numbers measure the data plane the registers actually ride: many clients
// converging on one server, full-duplex sockets, handlers firing on the
// event-loop shard that owns the destination's delivery context (both
// transports run on the same runtime::EventLoop shards).
//
// The shard sweep re-runs the small-payload points with the sink split
// into 1/2/4/8 delivery shards (IProcess::delivery_shards) to expose how
// the MPSC-ring control plane scales when a hot process spreads its
// contexts over the loop shards; rows carry a "shards" field so bench_regress keys them apart.
//
// The JSON snapshot (schema bftreg-bench-transport-v1, points keyed by
// (transport, size, fanin[, shards])) is diffed against the checked-in
// BENCH_transport.json by tools/bench_regress in CI; a >20% drop in
// msgs_per_sec or mbps on any point fails the gate. docs/PERF.md records
// the before/after tables for the writev-coalescing and lock-free-mailbox
// rewrites.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/transport.h"
#include "runtime/thread_network.h"
#include "socknet/tcp_network.h"

namespace bftreg::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Sink: counts arrivals and returns an 8-byte credit per message. With
/// `shards > 1` it opts into parallel delivery: envelopes round-robin
/// across shards by send sequence, handlers for different shards run
/// concurrently, so the counter is relaxed-atomic and the credit reply
/// rides the thread-safe send path.
class EchoSink final : public net::IProcess {
 public:
  EchoSink(ProcessId self, net::Transport* transport, uint32_t shards)
      : self_(self), transport_(transport), shards_(shards) {}

  void on_message(const net::Envelope& env) override {
    received_.fetch_add(1, std::memory_order_relaxed);
    transport_->send_payload(self_, env.from, credit_);
  }

  uint32_t delivery_shards() const override { return shards_; }
  uint32_t shard_of(const net::Envelope& env) const override {
    return static_cast<uint32_t>(env.seq % shards_);
  }

  uint64_t received() const { return received_.load(std::memory_order_relaxed); }

 private:
  const ProcessId self_;
  net::Transport* const transport_;
  const uint32_t shards_;
  // One refcounted credit shared by every reply (zero-copy send path).
  const Payload credit_{Bytes(8, 0xAC)};
  std::atomic<uint64_t> received_{0};
};

/// Source: keeps `window` payloads in flight; every credit refills the
/// window until `total` messages have been sent and acknowledged.
class CreditSource final : public net::IProcess {
 public:
  CreditSource(ProcessId self, ProcessId sink, net::Transport* transport,
               Payload payload, uint64_t total, uint64_t window)
      : self_(self),
        sink_(sink),
        transport_(transport),
        payload_(std::move(payload)),
        total_(total),
        window_(window) {}

  /// Runs on the source's loop shard (posted by the driver).
  void pump() {
    while (sent_ < total_ && sent_ - acked_ < window_) {
      transport_->send_payload(self_, sink_, payload_);
      ++sent_;
    }
  }

  void on_message(const net::Envelope&) override {
    ++acked_;
    done_.fetch_add(1, std::memory_order_relaxed);
    pump();
  }

  uint64_t acked() const { return done_.load(std::memory_order_relaxed); }

 private:
  const ProcessId self_;
  const ProcessId sink_;
  net::Transport* const transport_;
  // Refcounted: all in-flight messages share this one buffer, exercising
  // the transports' zero-copy fan-out path.
  const Payload payload_;
  const uint64_t total_;
  const uint64_t window_;
  // sent_/acked_ are touched only on the source's loop shard; done_ mirrors
  // acked_ for the driver's completion poll.
  uint64_t sent_{0};
  uint64_t acked_{0};
  std::atomic<uint64_t> done_{0};
};

struct RunResult {
  double msgs_per_sec{0};
  double mbps{0};
  bool completed{true};
};

/// Builds a fresh `NetT`, attaches one sink + `fanin - 1` sources, runs the
/// workload to completion and returns sink-side rates. NetT is TcpNetwork
/// or ThreadNetwork; both expose the same add_process/start/stop surface.
template <typename NetT, typename... Args>
RunResult run_point(size_t fanin, size_t size, uint64_t per_source,
                    uint32_t sink_shards, Args&&... args) {
  NetT net(std::forward<Args>(args)...);
  const size_t sources = fanin - 1;
  const ProcessId sink_pid = ProcessId::server(0);
  constexpr uint64_t kWindow = 32;

  EchoSink sink(sink_pid, &net, sink_shards);
  net.add_process(sink_pid, &sink);

  Bytes payload(size);
  for (size_t i = 0; i < size; ++i) payload[i] = static_cast<uint8_t>(i * 131);

  std::vector<std::unique_ptr<CreditSource>> srcs;
  for (size_t i = 0; i < sources; ++i) {
    const ProcessId pid = ProcessId::writer(static_cast<uint32_t>(i));
    srcs.push_back(std::make_unique<CreditSource>(pid, sink_pid, &net, payload,
                                                  per_source, kWindow));
    net.add_process(pid, srcs.back().get());
  }

  net.start();
  const auto t0 = Clock::now();
  for (size_t i = 0; i < sources; ++i) {
    CreditSource* s = srcs[i].get();
    net.post(ProcessId::writer(static_cast<uint32_t>(i)), [s] { s->pump(); });
  }

  const uint64_t expect = per_source * sources;
  const auto deadline = t0 + std::chrono::seconds(120);
  auto all_acked = [&] {
    uint64_t acked = 0;
    for (const auto& s : srcs) acked += s->acked();
    return acked >= expect;
  };
  bool completed = true;
  while (!all_acked()) {
    if (Clock::now() > deadline) {
      completed = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  net.stop();

  RunResult out;
  out.completed = completed;
  const double delivered = static_cast<double>(sink.received());
  out.msgs_per_sec = delivered / secs;
  out.mbps = delivered * static_cast<double>(size) / (secs * 1024.0 * 1024.0);
  return out;
}

struct GridPoint {
  size_t fanin;
  size_t size;
  uint64_t per_source;  // full-mode budget; quick mode divides by 4
  /// 0 = base grid (no "shards" JSON field, sink uses 1 shard);
  /// >0 = shard-sweep row.
  uint32_t shards{0};
};

/// (fanin, size) grid: the payload-size sweep at the paper's smallest BSR
/// cluster (n = 5), plus a fan-in sweep at the 512 B serving sweet spot.
constexpr GridPoint kGrid[] = {
    {5, 64, 20000},      {5, 512, 20000},     {5, 4096, 8000},
    {5, 65536, 1200},    {5, 1 << 20, 96},    {11, 512, 8000},
    {21, 512, 4000},
};

/// Shard-count sweep at the small-payload points where the control plane
/// (not memcpy) is the cost: how does the sink scale as its delivery fans
/// out over 1/2/4/8 MPSC rings?
constexpr GridPoint kShardSweep[] = {
    {5, 64, 20000, 1},  {5, 64, 20000, 2},  {5, 64, 20000, 4},
    {5, 64, 20000, 8},  {5, 512, 20000, 1}, {5, 512, 20000, 2},
    {5, 512, 20000, 4}, {5, 512, 20000, 8},
};

RunResult run_transport(const std::string& transport, const GridPoint& p,
                        uint64_t per_source) {
  const uint32_t sink_shards = p.shards == 0 ? 1 : p.shards;
  if (transport == "tcp") {
    return run_point<socknet::TcpNetwork>(p.fanin, p.size, per_source,
                                          sink_shards, socknet::TcpConfig{});
  }
  runtime::RuntimeConfig cfg;
  cfg.seed = 1;
  return run_point<runtime::ThreadNetwork>(p.fanin, p.size, per_source,
                                           sink_shards, std::move(cfg));
}

int run_grid(const std::string& json_path, bool quick, bool mailbox_only,
             const std::string& filter) {
  FILE* out = nullptr;
  if (!json_path.empty()) {
    out = std::fopen(json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "bench_transport: cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"schema\": \"bftreg-bench-transport-v1\",\n");
    std::fprintf(out, "  \"quick\": %s,\n  \"results\": [", quick ? "true" : "false");
  }

  std::fprintf(stderr, "%-7s %8s %6s %7s %14s %10s\n", "net", "size", "fanin",
               "shards", "msgs/s", "MB/s");
  bool first = true;
  int failures = 0;
  for (const char* transport : {"tcp", "thread"}) {
    std::vector<GridPoint> points;
    if (!mailbox_only) {
      points.insert(points.end(), std::begin(kGrid), std::end(kGrid));
    }
    points.insert(points.end(), std::begin(kShardSweep), std::end(kShardSweep));
    for (const auto& p : points) {
      char key[96];
      if (p.shards == 0) {
        std::snprintf(key, sizeof(key), "%s/%zu/%zu", transport, p.size, p.fanin);
      } else {
        std::snprintf(key, sizeof(key), "%s/%zu/%zu/s%u", transport, p.size,
                      p.fanin, p.shards);
      }
      if (!filter.empty() && std::strstr(key, filter.c_str()) == nullptr) {
        continue;
      }
      const uint64_t per_source =
          quick ? std::max<uint64_t>(p.per_source / 4, 16) : p.per_source;
      const RunResult r = run_transport(transport, p, per_source);
      if (!r.completed) ++failures;
      std::fprintf(stderr, "%-7s %8zu %6zu %7u %14.0f %10.1f%s\n", transport,
                   p.size, p.fanin, p.shards == 0 ? 1 : p.shards,
                   r.msgs_per_sec, r.mbps, r.completed ? "" : "  [TIMEOUT]");
      if (out) {
        std::fprintf(out,
                     "%s\n    {\"transport\": \"%s\", \"size\": %zu, "
                     "\"fanin\": %zu, ",
                     first ? "" : ",", transport, p.size, p.fanin);
        if (p.shards != 0) std::fprintf(out, "\"shards\": %u, ", p.shards);
        std::fprintf(out, "\"msgs_per_sec\": %.0f, \"mbps\": %.1f}",
                     r.msgs_per_sec, r.mbps);
        first = false;
      }
    }
  }
  if (out) {
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::fprintf(stderr, "bench_transport: wrote %s\n", json_path.c_str());
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace bftreg::bench

int main(int argc, char** argv) {
  std::string filter;
  bool mailbox_only = false;
  const auto args = bftreg::bench::BenchArgs::parse(
      argc, argv, "[--mailbox] [--filter=STR]", [&](const char* a) {
        if (std::strncmp(a, "--filter=", 9) == 0) {
          filter = a + 9;
          return true;
        }
        if (std::strcmp(a, "--mailbox") == 0) {
          mailbox_only = true;
          return true;
        }
        return false;
      });
  if (!args) return 2;
  return bftreg::bench::run_grid(args->json_path, args->quick, mailbox_only,
                                 filter);
}
