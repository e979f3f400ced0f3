// Integration and property tests for BSR (Section III): the MWMR
// replicated safe register with one-shot reads, n >= 4f+1.
#include <gtest/gtest.h>

#include <string>

#include "checker/consistency.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using adversary::StrategyKind;
using checker::CheckOptions;
using checker::check_regularity;
using checker::check_safety;

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

ClusterOptions bsr_options(size_t n, size_t f, uint64_t seed = 1,
                           size_t writers = 2, size_t readers = 2) {
  ClusterOptions o;
  o.protocol = Protocol::kBsr;
  o.config.n = n;
  o.config.f = f;
  o.num_writers = writers;
  o.num_readers = readers;
  o.seed = seed;
  return o;
}

CheckOptions bsr_check() {
  CheckOptions c;
  c.strict_validity = true;  // BSR guarantees validity via f+1 witnesses
  return c;
}

TEST(BsrTest, ReadBeforeAnyWriteReturnsInitialValue) {
  SimCluster cluster(bsr_options(5, 1));
  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, Bytes{});
  EXPECT_EQ(r.tag, Tag::initial());
  EXPECT_FALSE(r.fresh);
}

TEST(BsrTest, ReadAfterWriteReturnsWrittenValue) {
  SimCluster cluster(bsr_options(5, 1));
  const auto w = cluster.write(0, val("hello"));
  EXPECT_EQ(w.tag.num, 1u);
  EXPECT_EQ(w.tag.writer, ProcessId::writer(0));
  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, val("hello"));
  EXPECT_EQ(r.tag, w.tag);
  EXPECT_TRUE(r.fresh);
}

TEST(BsrTest, WriteTakesTwoRoundsReadTakesOne) {
  // Definition 3 / Section I-D: the headline one-shot-read property.
  SimCluster cluster(bsr_options(5, 1));
  const auto w = cluster.write(0, val("x"));
  EXPECT_EQ(w.rounds, 2);
  const auto r = cluster.read(0);
  EXPECT_EQ(r.rounds, 1);
}

TEST(BsrTest, OneShotReadMessageComplexity) {
  // One-shot read = n requests + at most n replies, nothing else.
  SimCluster cluster(bsr_options(5, 1));
  cluster.write(0, val("x"));
  cluster.sim().run_until_idle();
  const auto before = cluster.sim().metrics().snapshot();
  cluster.read(0);
  cluster.sim().run_until_idle();
  const auto after = cluster.sim().metrics().snapshot();
  EXPECT_EQ(after.messages_sent - before.messages_sent, 2 * 5u);
}

TEST(BsrTest, SequentialWritesGetStrictlyIncreasingTags) {
  // Lemma 2, Case 1.
  SimCluster cluster(bsr_options(5, 1));
  Tag prev = Tag::initial();
  for (int i = 0; i < 10; ++i) {
    const auto w = cluster.write(i % 2, val("v" + std::to_string(i)));
    EXPECT_GT(w.tag, prev);
    prev = w.tag;
  }
}

TEST(BsrTest, ReadsAlwaysSeeLatestCompletedWrite) {
  SimCluster cluster(bsr_options(9, 2));
  for (int i = 0; i < 8; ++i) {
    cluster.write(i % 2, val("gen" + std::to_string(i)));
    const auto r = cluster.read(i % 2);
    EXPECT_EQ(r.value, val("gen" + std::to_string(i)));
  }
  const auto res = check_safety(cluster.recorder().ops(), bsr_check());
  EXPECT_TRUE(res.ok) << res.violation;
}

TEST(BsrTest, ConcurrentWritersGetDistinctTags) {
  // Lemma 2, Case 2: concurrent writes are ordered, ties broken by id.
  SimCluster cluster(bsr_options(5, 1, 7));
  const uint64_t w0 = cluster.start_write(0, val("from-w0"));
  const uint64_t w1 = cluster.start_write(1, val("from-w1"));
  cluster.await(w0);
  cluster.await(w1);
  EXPECT_NE(cluster.write_result(w0).tag, cluster.write_result(w1).tag);
}

TEST(BsrTest, LivenessWithFCrashedServers) {
  // Theorem 1: everything completes with n-f live servers.
  SimCluster cluster(bsr_options(5, 1));
  cluster.start();
  cluster.crash_server(4);
  const auto w = cluster.write(0, val("survives"));
  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, val("survives"));
  EXPECT_EQ(w.rounds, 2);
}

TEST(BsrTest, LivenessWithFByzantineAndWorkload) {
  SimCluster cluster(bsr_options(9, 2, 3));
  cluster.set_byzantine(0, StrategyKind::kSilent);
  cluster.set_byzantine(5, StrategyKind::kFabricate);
  for (int i = 0; i < 6; ++i) {
    cluster.write(0, val("w" + std::to_string(i)));
    EXPECT_EQ(cluster.read(1).value, val("w" + std::to_string(i)));
  }
}

TEST(BsrTest, FabricatedTagsCannotInflateWriterTags) {
  // The (f+1)-th highest selection caps tag growth at honest reality.
  SimCluster cluster(bsr_options(5, 1, 11));
  cluster.set_byzantine(2, StrategyKind::kFabricate);  // reports tags ~1e9
  Tag prev = Tag::initial();
  for (uint64_t i = 1; i <= 5; ++i) {
    const auto w = cluster.write(0, val("x"));
    EXPECT_EQ(w.tag.num, i) << "tag must advance by exactly 1 per write";
    EXPECT_GT(w.tag, prev);
    prev = w.tag;
  }
}

TEST(BsrTest, ColludingServersCannotForgeAValue) {
  // f colluders answer reads with an identical fabricated pair; with the
  // f+1 witness threshold the lie never wins (Lemma 5 rationale).
  SimCluster cluster(bsr_options(9, 2, 13));
  cluster.set_byzantine(1, std::make_unique<adversary::ColludeStrategy>(555));
  cluster.set_byzantine(7, std::make_unique<adversary::ColludeStrategy>(555));
  cluster.write(0, val("truth"));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster.read(0).value, val("truth"));
  }
  const auto res = check_safety(cluster.recorder().ops(), bsr_check());
  EXPECT_TRUE(res.ok) << res.violation;
}

TEST(BsrTest, ReaderLocalStateIsMonotone) {
  // Fig. 2 line 7: the reader never goes backward across its own reads.
  SimCluster cluster(bsr_options(5, 1, 17));
  cluster.set_byzantine(3, StrategyKind::kStale);
  Tag prev = Tag::initial();
  for (int i = 0; i < 6; ++i) {
    cluster.write(0, val("m" + std::to_string(i)));
    const auto r = cluster.read(0);
    EXPECT_GE(r.tag, prev);
    prev = r.tag;
  }
}

// The checker assumes the paper's well-formed clients, so the harness
// refuses a second operation on a client whose first is still in flight.
TEST(SimClusterDeathTest, SecondReadOnBusyReaderTripsIdleAssert) {
  EXPECT_DEATH(
      {
        SimCluster cluster(bsr_options(5, 1));
        cluster.start_read(0);
        cluster.start_read(0);
        cluster.sim().run_until_idle();
      },
      "one operation at a time");
}

TEST(BsrTest, MalformedRepliesAreSurvived) {
  SimCluster cluster(bsr_options(5, 1, 19));
  cluster.set_byzantine(0, StrategyKind::kMalformed);
  cluster.write(0, val("ok"));
  EXPECT_EQ(cluster.read(0).value, val("ok"));
}

TEST(BsrTest, DoubleRepliesAreDeduplicated) {
  SimCluster cluster(bsr_options(5, 1, 23));
  cluster.set_byzantine(1, StrategyKind::kDoubleReply);
  cluster.write(0, val("dd"));
  EXPECT_EQ(cluster.read(0).value, val("dd"));
  const auto res = check_safety(cluster.recorder().ops(), bsr_check());
  EXPECT_TRUE(res.ok) << res.violation;
}

// ---------------------------------------------------------------- sweeps

struct AdversarySweepParam {
  StrategyKind kind;
  /// Fills the bytes that would otherwise be padding after the enum. The
  /// name generator sets only the ctest name's prefix; gtest appends
  /// "# GetParam() = " and the case's raw bytes, so every byte must be
  /// initialized for a case to have the same ctest name in every build.
  uint32_t unused{0};
  size_t n;
  size_t f;
};

class BsrAdversarySweep : public ::testing::TestWithParam<AdversarySweepParam> {};

TEST_P(BsrAdversarySweep, SequentialWorkloadStaysSafeUnderFByzantine) {
  const auto [kind, unused, n, f] = GetParam();
  SimCluster cluster(bsr_options(n, f, 31 + n * 3 + f));
  // Place f Byzantine servers at spread positions.
  for (size_t i = 0; i < f; ++i) {
    cluster.set_byzantine((i * 4 + 1) % n, kind);
  }
  for (int i = 0; i < 10; ++i) {
    cluster.write(i % 2, val("s" + std::to_string(i)));
    const auto r = cluster.read(i % 2);
    // No concurrency: safety forces the exact latest value.
    EXPECT_EQ(r.value, val("s" + std::to_string(i)))
        << to_string(kind) << " n=" << n << " f=" << f;
  }
  const auto res = check_safety(cluster.recorder().ops(), bsr_check());
  EXPECT_TRUE(res.ok) << res.violation << "\n" << cluster.recorder().dump();
}

std::vector<AdversarySweepParam> adversary_sweep_params() {
  std::vector<AdversarySweepParam> out;
  for (StrategyKind kind : adversary::kAllStrategyKinds) {
    out.push_back({kind, 0, 5, 1});
    out.push_back({kind, 0, 9, 2});
    out.push_back({kind, 0, 13, 3});
    out.push_back({kind, 0, 17, 4});
    out.push_back({kind, 0, 23, 5});  // n > 4f+1: slack beyond the bound
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BsrAdversarySweep,
                         ::testing::ValuesIn(adversary_sweep_params()),
                         [](const auto& info) {
                           std::string name = to_string(info.param.kind);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name + "_n" + std::to_string(info.param.n);
                         });

// Randomized concurrent executions, checked for safety. This is the
// workhorse property test: random interleavings of reads and writes with
// random Byzantine strategies and random network delays, all deterministic
// in the seed.
class BsrRandomScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BsrRandomScheduleTest, RandomConcurrentExecutionIsSafe) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t f = 1 + rng.uniform(2);
  const size_t n = 4 * f + 1 + rng.uniform(3);
  ClusterOptions opts = bsr_options(n, f, seed, /*writers=*/3, /*readers=*/3);
  SimCluster cluster(opts);
  for (size_t i = 0; i < f; ++i) {
    const auto kind = adversary::kAllStrategyKinds[rng.uniform(
        std::size(adversary::kAllStrategyKinds))];
    cluster.set_byzantine(rng.uniform(n), kind);  // may overlap; still <= f
  }

  // Per-client outstanding op (the model allows one op per client).
  std::vector<std::optional<uint64_t>> writer_op(3), reader_op(3);
  uint64_t write_counter = 0;
  auto reap = [&](std::vector<std::optional<uint64_t>>& slots) {
    for (auto& slot : slots) {
      if (slot && cluster.op_done(*slot)) slot.reset();
    }
  };
  for (int step = 0; step < 80; ++step) {
    reap(writer_op);
    reap(reader_op);
    const size_t client = rng.uniform(3);
    if (rng.bernoulli(0.4)) {
      if (!writer_op[client]) {
        writer_op[client] = cluster.start_write(
            client, workload::make_value(seed, write_counter++, 24));
      }
    } else if (!reader_op[client]) {
      reader_op[client] = cluster.start_read(client);
    }
    // Advance virtual time a random amount so ops interleave mid-flight.
    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(4000));
  }
  for (auto& slot : writer_op) {
    if (slot) cluster.await(*slot);
  }
  for (auto& slot : reader_op) {
    if (slot) cluster.await(*slot);
  }

  CheckOptions copts = bsr_check();
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << "seed=" << seed << ": " << res.violation << "\n"
                      << cluster.recorder().dump();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BsrRandomScheduleTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace bftreg::harness
