// Differential and concurrency tests for the compact object store
// (src/registers/object_store.h): the flat-hash + slab + log-ring layout is
// checked against the std::map reference model it replaced, under the same
// policy/GC semantics the servers rely on (Fig. 3 line 5, max_history GC),
// plus the paper-shaped histories -- Lemma 4's f garbage tags above every
// honest one, and Theorem 3's max_history=1 semi-fast schedule. A TSan
// stress drives the seqlock publish path of the new layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "registers/object_store.h"
#include "workload/workload.h"

namespace bftreg::registers {
namespace {

Bytes value_of(uint64_t seed, uint64_t i, size_t size) {
  return workload::make_value(seed, i, size);
}

/// The layout this store replaced, reduced to its semantics: one Tag-keyed
/// sorted map per object, seeded {t0, initial}, same policy + GC.
class ReferenceModel {
 public:
  ReferenceModel(Bytes initial, StorePolicy policy, size_t max_history)
      : initial_(std::move(initial)),
        policy_(policy),
        max_history_(max_history) {}

  /// Mirrors CompactObjectStore::apply; returns (added, bytes_delta).
  std::pair<bool, long long> apply(uint32_t object, const Tag& tag,
                                   const Bytes& value) {
    long long delta = 0;
    auto [it, inserted] = objects_.try_emplace(object);
    auto& log = it->second;
    if (inserted) {
      log.emplace(Tag::initial(), initial_);
      delta += static_cast<long long>(initial_.size());
    }
    bool added = false;
    switch (policy_) {
      case StorePolicy::kMaxOnly:
        if (log.rbegin()->first < tag) {
          log.emplace(tag, value);
          added = true;
        }
        break;
      case StorePolicy::kAll:
        added = log.emplace(tag, value).second;
        break;
    }
    if (added) {
      delta += static_cast<long long>(value.size());
      if (max_history_ > 0) {
        while (log.size() > max_history_) {
          delta -= static_cast<long long>(log.begin()->second.size());
          log.erase(log.begin());
        }
      }
    }
    return {added, delta};
  }

  const std::map<Tag, Bytes>* find(uint32_t object) const {
    const auto it = objects_.find(object);
    return it == objects_.end() ? nullptr : &it->second;
  }
  const std::map<uint32_t, std::map<Tag, Bytes>>& objects() const {
    return objects_;
  }

 private:
  Bytes initial_;
  StorePolicy policy_;
  size_t max_history_;
  std::map<uint32_t, std::map<Tag, Bytes>> objects_;
};

/// Every record's log must match the reference entry for entry, the
/// published newest pair must match the reference maximum, and collect()
/// must name exactly the reference's objects.
void expect_equal(const CompactObjectStore& store, const ReferenceModel& ref) {
  ASSERT_EQ(store.size(), ref.objects().size());
  std::vector<uint32_t> ids;
  store.collect(&ids);
  std::sort(ids.begin(), ids.end());
  std::vector<uint32_t> ref_ids;
  for (const auto& entry : ref.objects()) ref_ids.push_back(entry.first);
  ASSERT_EQ(ids, ref_ids);
  for (const auto& [object, log] : ref.objects()) {
    const auto* rec = store.find(object);
    ASSERT_NE(rec, nullptr) << "object " << object;
    ASSERT_EQ(rec->log.size(), log.size()) << "object " << object;
    auto it = log.begin();
    for (const LogEntry& e : rec->log) {
      EXPECT_EQ(e.tag, it->first) << "object " << object;
      const BytesView v = e.val.view();
      EXPECT_EQ(Bytes(v.begin(), v.end()), it->second) << "object " << object;
      ++it;
    }
    Tag newest_tag;
    Payload newest_value;
    ASSERT_TRUE(rec->newest.read(&newest_tag, &newest_value));
    EXPECT_EQ(newest_tag, log.rbegin()->first);
    EXPECT_EQ(newest_value, log.rbegin()->second);
  }
}

struct DifferentialCase {
  StorePolicy policy;
  size_t max_history;
};

/// Names the case in test listings ("all_h3"). Without it gtest prints the
/// struct's raw bytes, padding included, and the test names change from
/// one build to the next.
void PrintTo(const DifferentialCase& c, std::ostream* os) {
  *os << (c.policy == StorePolicy::kAll ? "all_h" : "maxonly_h")
      << c.max_history;
}

class ObjectStoreDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

/// Random apply/publish/lookup rounds against the reference model. Round r
/// writes object id_of(k) for a random k < keys; lookups of id_of(k) for
/// k >= keys must miss without materializing anything.
template <typename IdOf>
void run_differential(StorePolicy policy, size_t max_history, uint32_t keys,
                      IdOf id_of) {
  const Bytes initial = value_of(7, 0, 16);
  CompactObjectStore store(initial, policy, max_history);
  ReferenceModel ref(initial, policy, max_history);
  long long stored = static_cast<long long>(0);
  Rng rng(0xd1ff + max_history * 31 + static_cast<uint64_t>(policy));

  // Value sizes straddle every representation boundary: empty, inline
  // (<= 16), slab small, slab large, and the > 32 B oversize publish path.
  const size_t kSizes[] = {0, 1, 8, 16, 17, 33, 40, 200, 2048};
  for (int round = 0; round < 4000; ++round) {
    const uint32_t object = id_of(static_cast<uint32_t>(rng.uniform(keys)));
    const Tag tag{rng.uniform(24),
                  ProcessId::writer(static_cast<uint32_t>(rng.uniform(3)))};
    const Bytes value =
        value_of(11, rng.next_u64() % 97,
                 kSizes[rng.uniform(std::size(kSizes))]);

    const auto res = store.apply(object, tag, BytesView(value));
    if (res.added) store.publish(*res.rec);
    stored += res.bytes_delta;
    const auto [ref_added, ref_delta] = ref.apply(object, tag, value);
    ASSERT_EQ(res.added, ref_added) << "round " << round;
    ASSERT_EQ(res.bytes_delta, ref_delta) << "round " << round;

    // Random negative lookups must not materialize state.
    EXPECT_EQ(store.find(id_of(keys + static_cast<uint32_t>(rng.uniform(100)))),
              nullptr);
    if (round % 400 == 399) {
      expect_equal(store, ref);
      EXPECT_EQ(static_cast<long long>(store.walk_value_bytes()), stored);
    }
  }
  expect_equal(store, ref);
  // The incremental deltas must reconcile with a full walk -- the check the
  // servers' NDEBUG-gated stored_bytes() audit performs.
  EXPECT_EQ(static_cast<long long>(store.walk_value_bytes()), stored);
}

TEST_P(ObjectStoreDifferential, RandomizedInsertGcLookupMatchesReference) {
  const auto [policy, max_history] = GetParam();
  run_differential(policy, max_history, 160, [](uint32_t k) { return k; });
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndBudgets, ObjectStoreDifferential,
    ::testing::Values(DifferentialCase{StorePolicy::kAll, 0},
                      DifferentialCase{StorePolicy::kAll, 1},
                      DifferentialCase{StorePolicy::kAll, 3},
                      DifferentialCase{StorePolicy::kMaxOnly, 0},
                      DifferentialCase{StorePolicy::kMaxOnly, 1},
                      DifferentialCase{StorePolicy::kMaxOnly, 4}));

// The object table under id streams that defeat a weak hash: sequential
// ids, and ids strided by 2^16 (a client namespace in the high bits), which
// an identity hash would send to one home slot. 1200 objects take the
// table from 16 slots through seven doublings while the rounds run.
enum class IdStream { kSequential, kStrided };

struct IdStreamCase {
  IdStream stream;
  StorePolicy policy;
  size_t max_history;
};

/// Names the case ("strided_all_h3"), in test names and listings alike;
/// like DifferentialCase, the struct has padding that gtest would print.
void PrintTo(const IdStreamCase& c, std::ostream* os) {
  *os << (c.stream == IdStream::kSequential ? "sequential" : "strided")
      << (c.policy == StorePolicy::kAll ? "_all_h" : "_maxonly_h")
      << c.max_history;
}

class ObjectStoreIdStreams : public ::testing::TestWithParam<IdStreamCase> {};

TEST_P(ObjectStoreIdStreams, DifferentialSurvivesTableGrowth) {
  const auto [stream, policy, max_history] = GetParam();
  if (stream == IdStream::kSequential) {
    run_differential(policy, max_history, 1200, [](uint32_t k) { return k; });
  } else {
    run_differential(policy, max_history, 1200,
                     [](uint32_t k) { return k << 16; });
  }
}

INSTANTIATE_TEST_SUITE_P(
    SequentialAndStrided, ObjectStoreIdStreams,
    ::testing::Values(
        IdStreamCase{IdStream::kSequential, StorePolicy::kAll, 3},
        IdStreamCase{IdStream::kSequential, StorePolicy::kMaxOnly, 1},
        IdStreamCase{IdStream::kStrided, StorePolicy::kAll, 3},
        IdStreamCase{IdStream::kStrided, StorePolicy::kMaxOnly, 1}),
    ::testing::PrintToStringParamName());

// Every id in a 2^16-strided stream shares its low 16 bits, so masking the
// raw id (std::hash's identity) would give all of them one home slot and
// one probe run as long as the stream. Placing 4096 ids of every power-of-
// two stride into 8192 slots the way the table does (linear probing from
// home_slot()) must keep every lookup short -- random keys average about
// 1.5 probes with a longest run past 10 -- and a dense id range must need
// no probing at all.
TEST(ObjectStoreTest, HomeSlotsKeepStridedAndDenseIdsOnShortProbes) {
  constexpr uint32_t kIds = 4096;
  constexpr unsigned kBits = 13;
  constexpr size_t kMask = (size_t{1} << kBits) - 1;
  for (unsigned stride = 0; stride <= 19; ++stride) {
    std::vector<bool> used(kMask + 1, false);
    size_t total = 0;
    size_t longest = 0;
    for (uint32_t k = 0; k < kIds; ++k) {
      size_t i = CompactObjectStore::home_slot(k << stride, 64 - kBits);
      ASSERT_LE(i, kMask);
      size_t probes = 1;
      for (; used[i]; i = (i + 1) & kMask) ++probes;
      used[i] = true;
      total += probes;
      longest = std::max(longest, probes);
    }
    EXPECT_LE(total, 2 * kIds) << "stride 2^" << stride;
    EXPECT_LE(longest, 8u) << "stride 2^" << stride;
    if (stride == 0) {
      EXPECT_EQ(total, kIds);
    }
  }
}

// Lemma 4's adversarial history: f Byzantine servers can contribute at most
// f garbage tags above every honest one. The store must keep them (it
// cannot authenticate), keep them SORTED above the honest prefix, and GC
// must evict oldest-first so the garbage does not displace the newest
// honest entry ordering.
TEST(ObjectStoreTest, LemmaFourGarbageTagsStaySortedAndGcOldestFirst) {
  const Bytes initial = value_of(1, 0, 8);
  CompactObjectStore store(initial, StorePolicy::kAll, 6);
  ReferenceModel ref(initial, StorePolicy::kAll, 6);

  // Honest history: tags 1..8 from writer 0 (some arriving out of order).
  const uint64_t order[] = {2, 1, 4, 3, 8, 6, 5, 7};
  for (const uint64_t num : order) {
    const Bytes v = value_of(2, num, 24);
    const auto res =
        store.apply(9, Tag{num, ProcessId::writer(0)}, BytesView(v));
    EXPECT_TRUE(res.added);
    store.publish(*res.rec);
    ref.apply(9, Tag{num, ProcessId::writer(0)}, v);
  }
  // f = 2 garbage tags far above anything honest.
  for (const uint64_t num : {1u << 20, 1u << 21}) {
    const Bytes v = value_of(3, num, 40);
    const auto res =
        store.apply(9, Tag{num, ProcessId::writer(2)}, BytesView(v));
    EXPECT_TRUE(res.added);
    store.publish(*res.rec);
    ref.apply(9, Tag{num, ProcessId::writer(2)}, v);
  }
  expect_equal(store, ref);

  const auto* rec = store.find(9);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->log.size(), 6u);
  EXPECT_EQ(rec->log.newest().tag.num, 1u << 21);
  // A reader that consults history below the garbage still finds the
  // honest tags the GC spared.
  EXPECT_NE(rec->log.find(Tag{7, ProcessId::writer(0)}), nullptr);
  EXPECT_EQ(rec->log.find(Tag{1, ProcessId::writer(0)}), nullptr);  // GC'd
}

// Theorem 3's semi-fast regime needs only the newest pair per object:
// max_history = 1 must behave as an atomic register cell -- every accepted
// write replaces the cell, storage stays O(1), and the slab recycles the
// evicted value blocks instead of leaking them.
TEST(ObjectStoreTest, MaxHistoryOneKeepsExactlyTheNewestPair) {
  const Bytes initial = value_of(4, 0, 8);
  CompactObjectStore store(initial, StorePolicy::kMaxOnly, 1);
  long long stored = 0;

  for (uint64_t num = 1; num <= 200; ++num) {
    const size_t size = 20 + (num % 5) * 30;  // all past the inline cap
    const Bytes v = value_of(5, num, size);
    const auto res =
        store.apply(3, Tag{num, ProcessId::writer(0)}, BytesView(v));
    ASSERT_TRUE(res.added);
    store.publish(*res.rec);
    stored += res.bytes_delta;

    const auto* rec = store.find(3);
    ASSERT_EQ(rec->log.size(), 1u);
    EXPECT_EQ(rec->log.newest().tag.num, num);
    EXPECT_EQ(static_cast<size_t>(stored), size);
    // A stale tag (Theorem 3's schedule: an old writer's put arriving
    // late) must be rejected, not resurrected.
    const auto stale =
        store.apply(3, Tag{num, ProcessId::writer(0)}, BytesView(v));
    EXPECT_FALSE(stale.added);
    EXPECT_EQ(stale.bytes_delta, 0);
  }
  EXPECT_EQ(store.walk_value_bytes(), static_cast<size_t>(stored));
  // 200 evictions of ~20-140 B blocks through a recycling slab: the arena
  // must stay within a couple of chunks, not grow per write.
  EXPECT_LT(store.resident_bytes(), 1u << 20);
}

// The seqlock publish path of the new layout under real concurrency: one
// owner thread applies + publishes monotonically-tagged self-describing
// values while readers hammer NewestCache::read through the lock-free
// object table. Readers must never see a torn pair (value must match its
// tag) nor a tag moving backwards. Run under -preset tsan this also proves the
// data-race freedom of the 192-byte (unaligned-slot) record layout.
TEST(ObjectStoreTest, SeqlockPublishPathUnderConcurrentReaders) {
  CompactObjectStore store(value_of(6, 0, 16), StorePolicy::kMaxOnly, 2);
  constexpr uint32_t kObject = 17;
  constexpr uint64_t kWrites = 20000;
  // Sizes alternate across the inline boundary so readers cross between
  // the seqlock-inline and oversize shared_ptr representations.
  auto value_for = [](uint64_t num) {
    return value_of(8, num, num % 2 == 0 ? 16 : 48);
  };

  {
    const auto res = store.apply(kObject, Tag{1, ProcessId::writer(0)},
                                 BytesView(value_for(1)));
    store.publish(*res.rec);
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      const auto* rec = store.find(kObject);
      ASSERT_NE(rec, nullptr);
      const NewestCache* cache = &rec->newest;
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        Tag tag;
        Payload value;
        if (!cache->read(&tag, &value)) continue;
        if (tag.num < last) ++torn;
        last = tag.num;
        if (value != value_for(tag.num)) ++torn;
      }
    });
  }
  for (uint64_t num = 2; num <= kWrites; ++num) {
    const auto res = store.apply(kObject, Tag{num, ProcessId::writer(0)},
                                 BytesView(value_for(num)));
    ASSERT_TRUE(res.added);
    store.publish(*res.rec);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);

  Tag tag;
  Payload value;
  ASSERT_TRUE(store.find(kObject)->newest.read(&tag, &value));
  EXPECT_EQ(tag.num, kWrites);
  EXPECT_EQ(value, value_for(kWrites));
}

// A bulk value read from the cache is the published pair itself, lent out:
// no copy, and a newer publish swaps the pointer without touching the
// bytes a reader still holds.
TEST(ObjectStoreTest, NewestReadLendsThePublishedPair) {
  NewestCache cache;
  const Bytes first(NewestCache::kInlineValueCap + 100, 0xAB);
  const Tag t1{1, ProcessId::writer(0)};
  cache.publish(t1, first);

  Tag tag;
  Payload held;
  ASSERT_TRUE(cache.read(&tag, &held));
  EXPECT_EQ(tag, t1);
  Payload again;
  ASSERT_TRUE(cache.read(&tag, &again));
  EXPECT_EQ(again.data(), held.data());  // both alias one published pair

  const Tag t2{2, ProcessId::writer(0)};
  cache.publish(t2, Bytes(first.size(), 0xCD));
  EXPECT_EQ(held, first);  // the held view outlives its replacement intact
  Payload newer;
  ASSERT_TRUE(cache.read(&tag, &newer));
  EXPECT_EQ(tag, t2);
  EXPECT_NE(newer.data(), held.data());

  // Inline values are copied out of the seqlock slot.
  cache.publish(Tag{3, ProcessId::writer(0)}, Bytes{1, 2, 3});
  Payload small;
  ASSERT_TRUE(cache.read(&tag, &small));
  EXPECT_EQ(small, (Bytes{1, 2, 3}));
}

}  // namespace
}  // namespace bftreg::registers
