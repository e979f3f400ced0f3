// Self-tests of the benchmark's own machinery: the open-loop clock, the
// percentile rule, window scoring, the max-rate search, the frame peek and
// the ledger's blocking-path cut.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "ledger.h"
#include "loadgen.h"
#include "registers/messages.h"
#include "trace.h"

namespace bftreg::e2e {
namespace {

/// A transport whose post() runs the task inline, except that one chosen
/// call first stalls (a blocked socket, a descheduled sender).
class StallingTransport final : public net::Transport {
 public:
  StallingTransport(uint64_t stall_at, std::chrono::milliseconds stall)
      : stall_at_(stall_at), stall_(stall) {}
  void send_payload(const ProcessId&, const ProcessId&, Payload) override {}
  TimeNs now() const override { return static_cast<TimeNs>(now_ns()); }
  void post(const ProcessId&, std::function<void()> fn) override {
    if (calls_++ == stall_at_) {
      std::this_thread::sleep_for(stall_);
      stall_end_ = now_ns();
    }
    fn();
  }
  void post_after(const ProcessId&, TimeNs, std::function<void()> fn) override {
    fn();
  }
  net::NetworkMetrics& metrics() override { return metrics_; }
  int64_t stall_end() const { return stall_end_; }

 private:
  uint64_t calls_{0};
  uint64_t stall_at_;
  std::chrono::milliseconds stall_;
  int64_t stall_end_{0};
  net::NetworkMetrics metrics_;
};

TEST(OpenLoop, StallIsChargedToEveryQueuedOperation) {
  constexpr uint64_t kStallAt = 20;
  StallingTransport net(kStallAt, std::chrono::milliseconds(40));
  std::vector<int64_t> intended;
  std::vector<int64_t> latency;
  const OpenLoopStats stats = run_open_loop(
      /*rate=*/2000, /*seconds=*/0.1, [&](uint64_t, int64_t due) {
        intended.push_back(due);
        net.post(ProcessId::reader(0),
                 [&, due] { latency.push_back(now_ns() - due); });
      });
  ASSERT_EQ(stats.issued, 200u);
  ASSERT_EQ(latency.size(), 200u);
  // Every op due while the transport was stalled completes only after the
  // stall, and its latency counts from when it was due -- not from when
  // the generator got round to it.
  size_t queued = 0;
  for (size_t i = kStallAt; i < intended.size(); ++i) {
    if (intended[i] >= net.stall_end()) break;
    EXPECT_GE(latency[i], net.stall_end() - intended[i]) << "op " << i;
    // The generator reports itself late by the same amount for every op
    // queued behind the stall.
    if (i > kStallAt) {
      EXPECT_GE(stats.lag_us[i] * 1e3,
                static_cast<double>(net.stall_end() - intended[i]))
          << "op " << i;
    }
    ++queued;
  }
  EXPECT_GE(queued, 60u);  // 40 ms at 2000 ops/s: ~80 ops were queued
  EXPECT_GE(latency[kStallAt + 1], 35'000'000);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(supported_percentile(19), 0);
  EXPECT_EQ(supported_percentile(20), 50);
  EXPECT_EQ(supported_percentile(99), 50);
  EXPECT_EQ(supported_percentile(100), 90);
  EXPECT_EQ(supported_percentile(999), 90);
  EXPECT_EQ(supported_percentile(1000), 99);
  EXPECT_EQ(supported_percentile(1000000), 99);  // capped at p99 by default
  EXPECT_EQ(supported_percentile(10000, 99.99), 99.9);
  EXPECT_EQ(supported_percentile(100000, 99.99), 99.99);

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  EXPECT_EQ(percentile(v, 50), 500);
  EXPECT_EQ(percentile(v, 99), 990);  // exactly ten samples lie beyond
  size_t beyond = 0;
  for (double x : v) beyond += x > 990 ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
}

TEST(Percentile, RobustTailIgnoresOneStalledSlice) {
  std::vector<std::vector<double>> slices(5);
  for (auto& s : slices) {
    for (int i = 0; i < 1000; ++i) s.push_back(i % 100 + 1);
  }
  // A 50 ms stall lands in one slice only.
  for (int i = 0; i < 100; ++i) slices[2][i] = 50000;
  const Tail t = robust_tail(slices);
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.us, 99);

  // Slices too small for a p99 each: pooled, at the highest supported
  // percentile (2000 samples pooled support p99).
  std::vector<std::vector<double>> small(20);
  for (auto& s : small) {
    for (int i = 0; i < 100; ++i) s.push_back(i + 1);
  }
  const Tail pooled = robust_tail(small);
  EXPECT_EQ(pooled.pct, 99);
  EXPECT_EQ(pooled.us, 99);
  EXPECT_EQ(robust_tail({{1, 2, 3}}).pct, 0);
}

/// A window whose read latencies follow an M/M/1-like curve in the rate.
Window synthetic_window(double rate, double lag_us = 5) {
  constexpr double kBaseUs = 100;
  constexpr double kCapacity = 50000;
  const double scale = kBaseUs / (1.0 - std::min(rate, kCapacity - 1) / kCapacity);
  Window w;
  w.rate = rate;
  // Every consecutive quarter holds the same spread of latencies.
  for (int i = 0; i < 2000; ++i) w.read_us.push_back(scale * (i % 100 + 1) / 100.0);
  for (int i = 0; i < 200; ++i) w.write_us.push_back(scale * (i % 100 + 1) / 100.0);
  w.lag_us.assign(2200, lag_us);
  w.attempted = 2200;
  return w;
}

TEST(Search, FindsTheKneeOfASyntheticLatencyCurve) {
  const Limits limits{900, 2000, 0.001};
  // p99 of the reads is 0.99 * 100 / (1 - r / 50000) <= 900 us, so the
  // highest passing rate is 50000 * (1 - 99 / 900) = 44500 ops/s.
  const double knee = 44500;
  const SearchResult r = search_max_rate(20000, 9, [&](double rate) {
    const Score s = score_window(synthetic_window(rate), limits);
    return s.valid && s.pass;
  });
  EXPECT_LE(r.max_rate, knee);
  EXPECT_GE(r.max_rate, 0.97 * knee);
  EXPECT_EQ(r.probes.size(), 9u);

  // Starting above the knee searches downwards to the same answer.
  const SearchResult down = search_max_rate(90000, 9, [&](double rate) {
    const Score s = score_window(synthetic_window(rate), limits);
    return s.valid && s.pass;
  });
  EXPECT_LE(down.max_rate, knee);
  EXPECT_GE(down.max_rate, 0.95 * knee);
}

TEST(Score, LaggingGeneratorIsInvalidNotScored) {
  const Limits limits{1000, 2000, 0.001};
  const Score fine = score_window(synthetic_window(1000), limits);
  EXPECT_TRUE(fine.valid);
  EXPECT_TRUE(fine.pass);

  // Same latencies, but the generator ran 1.5 ms late: the window never
  // offered its rate, so it is invalid and neither passes nor is scored.
  const Score late = score_window(synthetic_window(1000, 1500), limits);
  EXPECT_FALSE(late.valid);
  EXPECT_FALSE(late.pass);

  // A search never claims a rate whose window was invalid.
  const SearchResult r = search_max_rate(1000, 6, [&](double rate) {
    const Score s =
        score_window(synthetic_window(rate, rate > 3000 ? 1500 : 5), limits);
    return s.valid && s.pass;
  });
  EXPECT_LE(r.max_rate, 3000);
  EXPECT_GT(r.max_rate, 0);
}

TEST(Score, FailuresAndGrowingBacklogFail) {
  const Limits limits{1000, 2000, 0.001};
  Window w = synthetic_window(1000);
  w.failed = 10;
  EXPECT_FALSE(score_window(w, limits).pass);
  // Outstanding ops climbing 50 per second at 1000 ops/s offered: the
  // cluster serves 5 % less than offered, so the window fails.
  w = synthetic_window(1000);
  for (int i = 0; i < 100; ++i) w.backlog.emplace_back(i / 100.0, 10 + i / 2.0);
  EXPECT_NEAR(backlog_growth(w.backlog), 50, 1e-6);
  EXPECT_FALSE(score_window(w, limits).pass);
  // A flat backlog with one spike passes.
  w = synthetic_window(1000);
  for (int i = 0; i < 100; ++i) w.backlog.emplace_back(i / 100.0, i == 50 ? 200 : 10);
  EXPECT_TRUE(score_window(w, limits).pass);
}

TEST(Peek, MatchesRegisterMessageParse) {
  using registers::MsgType;
  for (const MsgType type : {MsgType::kQueryData, MsgType::kDataResp,
                             MsgType::kQueryTag, MsgType::kPutData,
                             MsgType::kAck}) {
    registers::RegisterMessage m;
    m.type = type;
    m.op_id = 0x0123456789abcdefULL;
    m.object = 77;
    m.value = Bytes(40, 9);
    const Bytes wire = m.encode();
    const auto parsed = registers::RegisterMessage::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    const FrameHeader h = peek_frame(wire);
    EXPECT_EQ(h.msg, static_cast<uint8_t>(parsed->type));
    EXPECT_EQ(h.op_id, parsed->op_id);
  }
}

TEST(Ledger, RowsSumToTheMeasuredLatencyAndCountFrames) {
  using registers::MsgType;
  constexpr size_t n = 5;
  const uint32_t client = pack(ProcessId::reader(0));
  const uint64_t op = 42;
  auto span = [](SpanKind kind, uint32_t self, uint32_t peer, MsgType t,
                 int64_t start, int64_t end) {
    Span s;
    s.kind = kind;
    s.self = self;
    s.peer = peer;
    s.msg = static_cast<uint8_t>(t);
    s.op_id = 42;
    s.start = start;
    s.end = end;
    return s;
  };
  std::vector<Span> spans;
  Span issue = span(SpanKind::kIssue, client, 0, MsgType{}, 100, 200);
  issue.msg = 0;
  issue.aux = 50;  // intended start
  issue.child_ns = 50;
  spans.push_back(issue);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t server = pack(ProcessId::server(i));
    spans.push_back(span(SpanKind::kSend, client, server, MsgType::kQueryData,
                         110 + 10 * i, 115 + 10 * i));
    spans.push_back(span(SpanKind::kServerRecv, server, client,
                         MsgType::kQueryData, 300 + 10 * i, 320 + 10 * i));
    spans.push_back(span(SpanKind::kSend, server, client, MsgType::kDataResp,
                         310 + 10 * i, 312 + 10 * i));
    spans.push_back(span(SpanKind::kClientRecv, client, server,
                         MsgType::kDataResp, 400 + 10 * i, 405 + 10 * i));
  }
  Span cb = span(SpanKind::kCallback, client, 0, MsgType{}, 432, 434);
  cb.msg = 0;
  spans.push_back(cb);
  (void)op;

  const TraceReport r = analyze(spans, n, 1, pack(ProcessId::server(4)));
  EXPECT_EQ(r.reads, 1u);
  EXPECT_EQ(r.round_violations, 0u);
  EXPECT_EQ(r.read_frames, 2.0 * n);
  ASSERT_EQ(r.read_ledger.ops, 1u);
  EXPECT_DOUBLE_EQ(r.read_ledger.total_ns(), 432 - 50);
  EXPECT_DOUBLE_EQ(r.read_ledger.ns[kQueue], 50);
  // Server 0 replies first; its frame left at 110 and was handled at 300.
  EXPECT_DOUBLE_EQ(r.read_ledger.ns[kIssue], 10);
  EXPECT_DOUBLE_EQ(r.read_ledger.ns[kRequestLeg], 190);
  EXPECT_DOUBLE_EQ(r.read_ledger.ns[kServer], 10);       // 300 -> reply 310
  EXPECT_DOUBLE_EQ(r.read_ledger.ns[kReplyLeg], 90);     // 310 -> 400
  EXPECT_DOUBLE_EQ(r.read_ledger.ns[kQuorumWait], 32);   // 400 -> 432
  EXPECT_DOUBLE_EQ(r.issue_us, 0.05);

  // Drop one reply frame: the round structure check must flag it.
  std::vector<Span> short_spans;
  bool dropped = false;
  for (const Span& s : spans) {
    if (!dropped && s.kind == SpanKind::kSend && unpack(s.self).is_server()) {
      dropped = true;
      continue;
    }
    short_spans.push_back(s);
  }
  EXPECT_EQ(analyze(short_spans, n, 1, pack(ProcessId::server(4))).round_violations, 1u);
}

}  // namespace
}  // namespace bftreg::e2e
