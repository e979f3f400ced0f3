// Tests for the RB-based baseline register (n >= 3f+1) -- the comparator
// whose latency cost motivates the paper (Section I-B, Section VI / [15]).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "checker/consistency.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using adversary::StrategyKind;
using checker::CheckOptions;
using checker::check_safety;

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

ClusterOptions rb_options(size_t n, size_t f, uint64_t seed = 1) {
  ClusterOptions o;
  o.protocol = Protocol::kRb;
  o.config.n = n;
  o.config.f = f;
  o.num_writers = 2;
  o.num_readers = 2;
  o.seed = seed;
  return o;
}

TEST(RbRegisterTest, WorksWithOnly3fPlus1Servers) {
  // The whole point of assuming RB: fewer servers than BSR's 4f+1.
  SimCluster cluster(rb_options(4, 1));
  cluster.write(0, val("rb"));
  EXPECT_EQ(cluster.read(0).value, val("rb"));
}

TEST(RbRegisterTest, ReadBeforeWriteReturnsInitial) {
  SimCluster cluster(rb_options(4, 1));
  EXPECT_EQ(cluster.read(0).value, Bytes{});
}

TEST(RbRegisterTest, SequentialWorkloadReadsLatest) {
  SimCluster cluster(rb_options(7, 2, 3));
  for (int i = 0; i < 8; ++i) {
    cluster.write(i % 2, val("q" + std::to_string(i)));
    EXPECT_EQ(cluster.read(i % 2).value, val("q" + std::to_string(i)));
  }
  CheckOptions copts;
  copts.strict_validity = true;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << res.violation;
}

TEST(RbRegisterTest, SurvivesFSilentServers) {
  SimCluster cluster(rb_options(7, 2, 5));
  cluster.set_byzantine(1, StrategyKind::kSilent);
  cluster.set_byzantine(4, StrategyKind::kSilent);
  cluster.write(0, val("still-works"));
  EXPECT_EQ(cluster.read(0).value, val("still-works"));
}

TEST(RbRegisterTest, WriteLatencyIncludesRbPropagation) {
  // With fixed one-way delay d, a BSR write is 4d (two rounds). An RB write
  // pays get-tag (2d) + PUT (d) + ECHO (d) + READY (d) + ACK (d) = 6d: the
  // 1.5x blowup of Section I-B, measured end to end.
  ClusterOptions bsr;
  bsr.protocol = Protocol::kBsr;
  bsr.config.n = 5;
  bsr.config.f = 1;
  bsr.delay_lo = bsr.delay_hi = 1000;
  SimCluster bsr_cluster(bsr);
  const auto wb = bsr_cluster.write(0, val("x"));
  const TimeNs bsr_latency = wb.completed_at - wb.invoked_at;
  EXPECT_EQ(bsr_latency, 4000u);

  ClusterOptions rb = rb_options(4, 1);
  rb.delay_lo = rb.delay_hi = 1000;
  SimCluster rb_cluster(rb);
  const auto wr = rb_cluster.write(0, val("x"));
  const TimeNs rb_latency = wr.completed_at - wr.invoked_at;
  EXPECT_EQ(rb_latency, 6000u);
  EXPECT_EQ(rb_latency, bsr_latency * 3 / 2);  // exactly 1.5x
}

TEST(RbRegisterTest, ReaderWaitsOutPropagationWhenServersLag) {
  // Delay the Bracha READY messages toward two servers so they apply the
  // write late; the reader must keep waiting (via DATA-UPDATE pushes)
  // instead of returning a verified-stale answer.
  SimCluster cluster(rb_options(4, 1, 9));
  cluster.start();
  cluster.write(0, val("first"));
  cluster.sim().run_until_idle();

  auto& delay = cluster.sim().delay_model();
  delay.set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    // Slow all server-to-server frames toward servers 2 and 3.
    if (env.from.is_server() && env.to.is_server() &&
        (env.to.index == 2 || env.to.index == 3)) {
      return TimeNs{400'000};
    }
    return std::nullopt;
  });
  cluster.write(0, val("second"));

  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, val("second"));
}

TEST(RbRegisterTest, ConcurrentWritersBothLand) {
  SimCluster cluster(rb_options(4, 1, 11));
  const auto w0 = cluster.start_write(0, val("a"));
  const auto w1 = cluster.start_write(1, val("b"));
  cluster.await(w0);
  cluster.await(w1);
  EXPECT_NE(cluster.write_result(w0).tag, cluster.write_result(w1).tag);
  const auto r = cluster.read(0);
  EXPECT_TRUE(r.value == val("a") || r.value == val("b"));
}

TEST(RbRegisterTest, ReadDoneOvertakingItsQueryLeavesNoSubscription) {
  // Channels need not be FIFO: server 3 gets the read's READ-DONE before
  // its QUERY-DATA. The late query must not subscribe the finished read,
  // or every later write would push DATA-UPDATEs to it.
  ClusterOptions o = rb_options(4, 1, 13);
  o.delay_lo = o.delay_hi = 100;
  SimCluster cluster(o);
  int pushes = 0;
  cluster.sim().delay_model().set_hook(
      [&](const net::Envelope& env) -> std::optional<TimeNs> {
        const auto msg = registers::RegisterMessage::parse(env.payload);
        if (!msg) return std::nullopt;
        if (msg->type == registers::MsgType::kDataUpdate) ++pushes;
        if (msg->type == registers::MsgType::kQueryData &&
            env.to == ProcessId::server(3)) {
          return TimeNs{5'000};
        }
        return std::nullopt;
      });
  EXPECT_EQ(cluster.read(0).value, Bytes{});
  cluster.sim().run_until_idle();  // the late query lands at server 3
  cluster.write(0, val("later"));
  cluster.sim().run_until_idle();
  EXPECT_EQ(pushes, 0);
}

class RbRandomScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbRandomScheduleTest, RandomExecutionIsSafe) {
  const uint64_t seed = GetParam();
  Rng rng(seed + 1000);
  const size_t f = 1 + rng.uniform(2);
  const size_t n = 3 * f + 1 + rng.uniform(2);
  SimCluster cluster(rb_options(n, f, seed));
  // Byzantine servers in the RB baseline: silent only -- an RbServer that
  // fabricates Bracha frames attacks the broadcast layer, whose resilience
  // bracha_test covers; here we exercise the register layer.
  for (size_t i = 0; i < f; ++i) {
    cluster.set_byzantine(rng.uniform(n), StrategyKind::kSilent);
  }

  std::vector<std::optional<uint64_t>> writer_op(2), reader_op(2);
  uint64_t counter = 0;
  for (int step = 0; step < 50; ++step) {
    for (auto& s : writer_op) {
      if (s && cluster.op_done(*s)) s.reset();
    }
    for (auto& s : reader_op) {
      if (s && cluster.op_done(*s)) s.reset();
    }
    const size_t c = rng.uniform(2);
    if (rng.bernoulli(0.4)) {
      if (!writer_op[c]) {
        writer_op[c] =
            cluster.start_write(c, workload::make_value(seed, counter++, 16));
      }
    } else if (!reader_op[c]) {
      reader_op[c] = cluster.start_read(c);
    }
    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3000));
  }
  for (auto& s : writer_op) {
    if (s) cluster.await(*s);
  }
  for (auto& s : reader_op) {
    if (s) cluster.await(*s);
  }

  CheckOptions copts;
  copts.strict_validity = true;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << "seed=" << seed << ": " << res.violation << "\n"
                      << cluster.recorder().dump();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbRandomScheduleTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace bftreg::harness
