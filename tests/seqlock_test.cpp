// Concurrency tests for the lock-free control-plane primitives: the
// double-buffered seqlock (common/seqlock.h) behind the server's newest-
// entry cache, and the bounded MPSC ring (common/mpsc_ring.h) behind the
// mailbox shards. Labeled `slow`: the sanitizer CI jobs include it (`ctest
// --preset tsan`), quick local runs skip it (`ctest -LE slow`).
//
// The seqlock tests follow the standard validation trio for published
// snapshots: correlated fields expose torn reads under constant flips,
// versions must never run backwards within a reader, and back-to-back reads
// must observe same-or-newer snapshots.
//
// Torn snapshots and backward versions are counted apart because they have
// different causes. A tear would be a broken sequence protocol. A backward
// version came from this interleaving, which the reader's re-check of
// `active` (common/seqlock.h) now rejects: a reader loads `active` = X; the
// writer flips to Y, rebuilds X with a newer version and stalls before
// flipping back; the reader validates X's newer snapshot, and its next
// read follows `active` to Y and the older one. Without the re-check, four
// concurrent copies of ManyConcurrentReaders saw no tears but dozens of
// backward versions per 1200 repeats; ctest runs that stress as
// seqlock_concurrent_copies. The ring tests drive N producers
// against the single consumer and check the two properties the mailbox
// depends on: nothing is lost or duplicated, and each producer's items
// arrive in its push order (per-producer FIFO).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/mpsc_ring.h"
#include "common/seqlock.h"

namespace bftreg {
namespace {

/// Correlated fields make any torn read obvious: b must always equal ~a,
/// and the tail word pins the struct size above one cache line so a tear
/// cannot hide inside a single atomic word.
struct Snapshot {
  uint64_t a{0};
  uint64_t b{0};
  uint64_t pad[14]{};
};
static_assert(std::is_trivially_copyable_v<Snapshot>);

/// Spins until the writer thread has published at least once, so the
/// readers below never fail for the benign "nothing published" reason.
void prime_first_publish(const common::Seqlock<Snapshot>& lock) {
  Snapshot s;
  while (!lock.read(&s)) std::this_thread::yield();
}

TEST(SeqlockTest, ReadBeforeFirstPublishFails) {
  common::Seqlock<Snapshot> lock;
  Snapshot s;
  EXPECT_FALSE(lock.read(&s));
  lock.publish(Snapshot{1, ~uint64_t{1}, {}});
  uint64_t version = 0;
  ASSERT_TRUE(lock.read(&s, &version));
  EXPECT_EQ(s.a, 1u);
  EXPECT_EQ(version, 1u);
}

TEST(SeqlockTest, CoherentUnderConstantFlips) {
  common::Seqlock<Snapshot> lock;
  std::atomic<bool> run{true};
  std::thread writer([&] {
    uint64_t i = 0;
    while (run.load(std::memory_order_relaxed)) {
      lock.publish(Snapshot{i, ~i, {}});
      ++i;
    }
  });
  prime_first_publish(lock);

  for (int k = 0; k < 50000; ++k) {
    Snapshot s;
    ASSERT_TRUE(lock.read(&s));
    ASSERT_EQ(s.b, ~s.a) << "torn read at iteration " << k;
  }
  run.store(false, std::memory_order_relaxed);
  writer.join();
}

TEST(SeqlockTest, VersionsMonotonicPerReader) {
  common::Seqlock<Snapshot> lock;
  std::atomic<bool> run{true};
  std::thread writer([&] {
    uint64_t i = 0;
    while (run.load(std::memory_order_relaxed)) {
      lock.publish(Snapshot{i, ~i, {}});
      ++i;
    }
  });
  prime_first_publish(lock);

  uint64_t last_version = 0;
  for (int k = 0; k < 20000; ++k) {
    Snapshot s;
    uint64_t version = 0;
    ASSERT_TRUE(lock.read(&s, &version));
    ASSERT_GE(version, last_version) << "version ran backwards at " << k;
    last_version = version;
    ASSERT_EQ(s.b, ~s.a) << "torn read at iteration " << k;
  }
  run.store(false, std::memory_order_relaxed);
  writer.join();
}

TEST(SeqlockTest, DoubleReadStability) {
  common::Seqlock<Snapshot> lock;
  std::atomic<bool> run{true};
  std::thread writer([&] {
    uint64_t i = 0;
    while (run.load(std::memory_order_relaxed)) {
      lock.publish(Snapshot{i, ~i, {}});
      ++i;
    }
  });
  prime_first_publish(lock);

  for (int k = 0; k < 20000; ++k) {
    Snapshot s1, s2;
    uint64_t v1 = 0, v2 = 0;
    ASSERT_TRUE(lock.read(&s1, &v1));
    ASSERT_TRUE(lock.read(&s2, &v2));
    // Immediate re-read sees the same snapshot or a newer one, never older
    // and never torn.
    ASSERT_GE(v2, v1) << "second read older at iteration " << k;
    ASSERT_EQ(s1.b, ~s1.a);
    ASSERT_EQ(s2.b, ~s2.a);
    if (v1 == v2) ASSERT_EQ(s1.a, s2.a);
  }
  run.store(false, std::memory_order_relaxed);
  writer.join();
}

TEST(SeqlockTest, ManyConcurrentReaders) {
  common::Seqlock<Snapshot> lock;
  std::atomic<bool> run{true};
  std::thread writer([&] {
    uint64_t i = 0;
    while (run.load(std::memory_order_relaxed)) {
      lock.publish(Snapshot{i, ~i, {}});
      ++i;
    }
  });
  prime_first_publish(lock);

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  std::atomic<int> failed_reads{0};
  std::atomic<int> torn{0};
  std::atomic<int> backward{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      for (int k = 0; k < 10000; ++k) {
        Snapshot s;
        uint64_t version = 0;
        if (!lock.read(&s, &version)) {
          failed_reads.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (s.b != ~s.a) torn.fetch_add(1, std::memory_order_relaxed);
        if (version < last_version) backward.fetch_add(1, std::memory_order_relaxed);
        last_version = version;
      }
    });
  }
  for (auto& t : readers) t.join();
  run.store(false, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(failed_reads.load(), 0);
  EXPECT_EQ(torn.load(), 0) << "torn snapshots";
  EXPECT_EQ(backward.load(), 0) << "versions that ran backwards";
}

// --- MPSC ring --------------------------------------------------------------

struct RingItem {
  uint32_t producer{0};
  uint32_t seq{0};
};

TEST(MpscRingTest, FifoPerProducerNoLossNoDuplication) {
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kPerProducer = 50000;
  common::MpscRing<RingItem> ring(256);  // small: forces wraps + full backoff

  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (uint32_t i = 0; i < kPerProducer; ++i) {
        RingItem item{p, i};
        while (!ring.try_push(item)) std::this_thread::yield();
      }
    });
  }

  // Single consumer: drain until every producer's full run arrived,
  // checking per-producer order as items appear.
  std::vector<uint32_t> next_seq(kProducers, 0);
  uint64_t total = 0;
  uint64_t order_violations = 0;
  while (total < uint64_t{kProducers} * kPerProducer) {
    const size_t n = ring.consume_batch(
        [&](RingItem& item) {
          if (item.seq != next_seq[item.producer]) ++order_violations;
          ++next_seq[item.producer];
          ++total;
        },
        64);
    if (n == 0) std::this_thread::yield();
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(order_violations, 0u);
  EXPECT_EQ(total, uint64_t{kProducers} * kPerProducer);
  for (uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer) << "producer " << p;
  }
  // Fully drained: nothing invented, nothing retained.
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRingTest, FullRingRejectsWithoutClobbering) {
  common::MpscRing<RingItem> ring(4);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push(RingItem{0, i}));
  }
  RingItem rejected{0, 99};
  EXPECT_FALSE(ring.try_push(rejected));
  EXPECT_EQ(rejected.seq, 99u);  // full push leaves the item untouched

  uint32_t expect = 0;
  ring.consume_batch([&](RingItem& item) { EXPECT_EQ(item.seq, expect++); }, 4);
  EXPECT_EQ(expect, 4u);
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace bftreg
