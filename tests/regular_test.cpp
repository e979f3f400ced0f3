// Tests for the Section III-C regularity extensions (history reads and
// two-round reads), centered on the Theorem 3 counterexample: the schedule
// under which plain BSR is provably NOT regular, and both extensions are.
#include <gtest/gtest.h>

#include <string>

#include "checker/consistency.h"
#include "harness/scenarios.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using adversary::StrategyKind;
using checker::CheckOptions;
using checker::check_regularity;
using checker::check_safety;

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

ClusterOptions options_for(Protocol p, size_t n, size_t f, uint64_t seed = 1,
                           size_t writers = 2, size_t readers = 2) {
  ClusterOptions o;
  o.protocol = p;
  o.config.n = n;
  o.config.f = f;
  o.num_writers = writers;
  o.num_readers = readers;
  o.seed = seed;
  return o;
}

// ------------------------------------------------------- Theorem 3 schedule

TEST(Theorem3Test, PlainBsrViolatesRegularity) {
  SimCluster cluster(options_for(Protocol::kBsr, 5, 1, 42, 5, 1));
  const auto r = run_theorem3_schedule(cluster);

  // The read finds no pair with f+1 = 2 witnesses and slides back to v0.
  EXPECT_EQ(r.value, Bytes{});
  EXPECT_FALSE(r.fresh);

  CheckOptions copts;
  EXPECT_TRUE(check_safety(cluster.recorder().ops(), copts).ok)
      << "BSR stays SAFE under the schedule (Def. 1(ii))";
  const auto reg = check_regularity(cluster.recorder().ops(), copts);
  EXPECT_FALSE(reg.ok) << "but it is NOT regular (Theorem 3)";
}

TEST(Theorem3Test, HistoryReaderStaysRegular) {
  SimCluster cluster(options_for(Protocol::kBsrHistory, 5, 1, 42, 5, 1));
  const auto r = run_theorem3_schedule(cluster);
  // v1 is in every honest server's history: 2+ witnesses, returned.
  EXPECT_EQ(r.value, val("v1"));
  CheckOptions copts;
  const auto reg = check_regularity(cluster.recorder().ops(), copts);
  EXPECT_TRUE(reg.ok) << reg.violation;
}

TEST(Theorem3Test, TwoRoundReaderStaysRegular) {
  SimCluster cluster(options_for(Protocol::kBsr2R, 5, 1, 42, 5, 1));
  const auto r = run_theorem3_schedule(cluster);
  EXPECT_EQ(r.value, val("v1"));
  EXPECT_EQ(r.rounds, 2);
  CheckOptions copts;
  const auto reg = check_regularity(cluster.recorder().ops(), copts);
  EXPECT_TRUE(reg.ok) << reg.violation;
}

// ----------------------------------------------------------- basic behavior

class RegularVariantTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(RegularVariantTest, ReadAfterWriteReturnsWrittenValue) {
  SimCluster cluster(options_for(GetParam(), 5, 1));
  cluster.write(0, val("hello"));
  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, val("hello"));
}

TEST_P(RegularVariantTest, ReadBeforeAnyWriteReturnsInitial) {
  SimCluster cluster(options_for(GetParam(), 5, 1));
  EXPECT_EQ(cluster.read(0).value, Bytes{});
}

TEST_P(RegularVariantTest, SurvivesFCrashedServers) {
  SimCluster cluster(options_for(GetParam(), 9, 2));
  cluster.start();
  cluster.crash_server(1);
  cluster.crash_server(6);
  cluster.write(0, val("alive"));
  EXPECT_EQ(cluster.read(0).value, val("alive"));
}

TEST_P(RegularVariantTest, SequentialWorkloadIsRegularUnderByzantine) {
  SimCluster cluster(options_for(GetParam(), 9, 2, 7));
  cluster.set_byzantine(2, StrategyKind::kFabricate);
  cluster.set_byzantine(5, StrategyKind::kStale);
  for (int i = 0; i < 8; ++i) {
    cluster.write(i % 2, val("r" + std::to_string(i)));
    EXPECT_EQ(cluster.read(i % 2).value, val("r" + std::to_string(i)));
  }
  CheckOptions copts;
  const auto res = check_regularity(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << res.violation;
}

INSTANTIATE_TEST_SUITE_P(Variants, RegularVariantTest,
                         ::testing::Values(Protocol::kBsrHistory, Protocol::kBsr2R),
                         [](const auto& info) {
                           return info.param == Protocol::kBsrHistory
                                      ? std::string("History")
                                      : std::string("TwoRound");
                         });

// Two-round reads really take two rounds; history reads stay one-shot.
TEST(RegularVariantTest, RoundCounts) {
  SimCluster h(options_for(Protocol::kBsrHistory, 5, 1));
  h.write(0, val("x"));
  EXPECT_EQ(h.read(0).rounds, 1);

  SimCluster t(options_for(Protocol::kBsr2R, 5, 1));
  t.write(0, val("x"));
  EXPECT_EQ(t.read(0).rounds, 2);
}

// The history read's bandwidth grows with history length -- the cost knob
// the paper trades against BSR's constant-size responses.
TEST(RegularVariantTest, HistoryReadBandwidthGrowsWithWrites) {
  SimCluster cluster(options_for(Protocol::kBsrHistory, 5, 1));
  cluster.write(0, val("aaaaaaaaaaaaaaaa"));
  cluster.sim().run_until_idle();
  const auto before1 = cluster.sim().metrics().snapshot().bytes_sent;
  cluster.read(0);
  cluster.sim().run_until_idle();
  const auto read1_bytes = cluster.sim().metrics().snapshot().bytes_sent - before1;

  for (int i = 0; i < 10; ++i) cluster.write(0, val("bbbbbbbbbbbbbbb" + std::to_string(i)));
  cluster.sim().run_until_idle();
  const auto before2 = cluster.sim().metrics().snapshot().bytes_sent;
  cluster.read(0);
  cluster.sim().run_until_idle();
  const auto read2_bytes = cluster.sim().metrics().snapshot().bytes_sent - before2;

  EXPECT_GT(read2_bytes, read1_bytes * 2);
}

// Randomized concurrent schedules must stay regular for both variants.
struct RegularRandomParam {
  Protocol protocol;
  /// Fills the bytes that would otherwise be padding after the enum. The
  /// name generator sets only the ctest name's prefix; gtest appends
  /// "# GetParam() = " and the case's raw bytes, so every byte must be
  /// initialized for a case to have the same ctest name in every build.
  uint32_t unused{0};
  uint64_t seed;
};

class RegularRandomScheduleTest
    : public ::testing::TestWithParam<RegularRandomParam> {};

TEST_P(RegularRandomScheduleTest, RandomExecutionIsRegular) {
  const auto [protocol, unused, seed] = GetParam();
  Rng rng(seed * 17 + 3);
  const size_t f = 1 + rng.uniform(2);
  const size_t n = 4 * f + 1 + rng.uniform(2);
  SimCluster cluster(options_for(protocol, n, f, seed, 2, 2));
  for (size_t i = 0; i < f; ++i) {
    // Regularity variants rely on honest servers retaining history; the
    // adversaries may do anything.
    const auto kind = adversary::kAllStrategyKinds[rng.uniform(
        std::size(adversary::kAllStrategyKinds))];
    cluster.set_byzantine(rng.uniform(n), kind);
  }

  std::vector<std::optional<uint64_t>> writer_op(2), reader_op(2);
  uint64_t counter = 0;
  auto reap = [&](std::vector<std::optional<uint64_t>>& slots) {
    for (auto& s : slots) {
      if (s && cluster.op_done(*s)) s.reset();
    }
  };
  for (int step = 0; step < 60; ++step) {
    reap(writer_op);
    reap(reader_op);
    const size_t c = rng.uniform(2);
    if (rng.bernoulli(0.4)) {
      if (!writer_op[c]) {
        writer_op[c] =
            cluster.start_write(c, workload::make_value(seed, counter++, 20));
      }
    } else if (!reader_op[c]) {
      reader_op[c] = cluster.start_read(c);
    }
    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3500));
  }
  for (auto& s : writer_op) {
    if (s) cluster.await(*s);
  }
  for (auto& s : reader_op) {
    if (s) cluster.await(*s);
  }

  CheckOptions copts;
  const auto res = check_regularity(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << to_string(protocol) << " seed=" << seed << ": "
                      << res.violation << "\n" << cluster.recorder().dump();
}

std::vector<RegularRandomParam> regular_random_params() {
  std::vector<RegularRandomParam> out;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    out.push_back({Protocol::kBsrHistory, 0, seed});
    out.push_back({Protocol::kBsr2R, 0, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegularRandomScheduleTest,
                         ::testing::ValuesIn(regular_random_params()),
                         [](const auto& info) {
                           return std::string(info.param.protocol ==
                                                      Protocol::kBsrHistory
                                                  ? "History"
                                                  : "TwoRound") +
                                  "_s" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace bftreg::harness
