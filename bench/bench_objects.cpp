// Object-count scale benchmark of the storage layer (no network): the
// compact store (registers/object_store.h: flat-hash object table, ObjectRec
// pool, slab-allocated values, small-vector log rings) against a faithful
// in-bench replica of the layout it replaced (std::map<uint32_t,
// ObjectState> per shard, std::map<Tag, Bytes> list L per object, 256-byte
// inline NewestCache slots).
//
//   bench_objects                 1M-object footprint + YCSB throughput table
//   bench_objects --json=PATH     machine-readable snapshot (schema
//                                 bftreg-bench-objects-v1, rows keyed
//                                 store/workload/dist/keys/size; metrics
//                                 bytes_per_object -- gated as a CEILING by
//                                 tools/bench_regress -- and ops_per_sec,
//                                 gated as a floor)
//                 [--quick]       same key count, smaller op budgets
//                 [--keys=N]      object count (default 1,000,000)
//
// Two claims are enforced in-binary (exit 1), independent of any baseline
// file, so the comparison cannot drift as hosts change:
//   * resident bytes/object (malloc-level, mallinfo2 delta across the load
//     phase) of the compact store is >= 3x smaller than the legacy layout
//     at the headline 16-byte value size;
//   * YCSB-B/zipfian ops/s on the compact store is no worse than the legacy
//     store (with 15% measurement slack).
//
// Throughput drives the stores through the same per-op sequence the server
// uses uncoalesced -- update = apply + publish, read = newest log entry,
// RMW = read then apply -- so a regression in either the hash path or the
// seqlock publish path lands in these numbers.
//
// One more row (store "server", workload "query_data") times the server's
// real read path: RegisterServer::on_message(QUERY-DATA) -- parse, object
// table probe, seqlock snapshot, reply encode -- over the same key count
// preloaded through on_message(PUT-DATA), with a transport that drops
// every reply. Its ops/s is a floor like the YCSB rows, so a newest-pair
// lookup whose cost grows with the object count fails the gate.
#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/seqlock.h"
#include "common/types.h"
#include "registers/object_store.h"
#include "registers/server.h"
#include "workload.h"

namespace bftreg::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kDefaultKeys = 1'000'000;
constexpr size_t kMaxHistory = 4;
constexpr double kZipfTheta = 0.99;
/// In-binary acceptance: compact footprint must beat legacy by this factor.
constexpr double kRequiredShrink = 3.0;
/// YCSB-B/zipfian throughput slack (wall-clock noise, not a contract).
constexpr double kOpsSlack = 0.85;

/// Heap bytes currently handed out by malloc (arena + mmapped blocks).
/// 0 when the libc cannot report it; memory rows are then skipped.
size_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<size_t>(mi.uordblks) + static_cast<size_t>(mi.hblkhd);
#else
  return 0;
#endif
}

// --- the pre-compaction layout, replicated byte for byte ------------------
// This is the storage half of registers/server.h as it stood before the
// compact store: the point of keeping it here (and nowhere else) is that
// the "before" column of docs/PERF.md stays measurable at any commit.

/// The common::Seqlock of the pre-compaction era, which still carried
/// alignas(64) on each slot: with the 272-byte inline entry that rounds the
/// pair of slots to 640 bytes and the whole lock to 704 -- padding the
/// current Seqlock no longer pays. Same publish protocol, so the measured
/// publish cost is the old one too.
template <typename T>
class LegacySeqlock {
 public:
  void publish(const T& value) {
    const uint32_t next = 1 - active_.load(std::memory_order_relaxed);
    Slot& slot = slots_[next];
    const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.version.store(++next_version_, std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
    active_.store(next, std::memory_order_release);
  }

  bool read(T* out) const {
    for (;;) {
      const uint32_t idx = active_.load(std::memory_order_acquire);
      const Slot& slot = slots_[idx];
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0) return false;
      if ((s1 & 1) != 0) continue;
      uint64_t words[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      std::memcpy(out, words, sizeof(T));
      return true;
    }
  }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;

  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> words[kWords]{};
  };

  Slot slots_[2];
  std::atomic<uint32_t> active_{0};
  uint64_t next_version_{0};
};

class LegacyNewestCache {
 public:
  static constexpr size_t kInlineValueCap = 256;

  void publish(const Tag& tag, const Bytes& value) {
    InlineEntry e;
    e.tag_num = tag.num;
    e.writer_index = tag.writer.index;
    e.writer_role = static_cast<uint8_t>(tag.writer.role);
    if (value.size() <= kInlineValueCap) {
      e.len = static_cast<uint16_t>(value.size());
      std::memcpy(e.data, value.data(), value.size());
    } else {
      oversize_.store(std::make_shared<const registers::TaggedValue>(
                          registers::TaggedValue{tag, value}),
                      std::memory_order_release);
      e.oversize = 1;
    }
    inline_.publish(e);
  }

  bool read(Tag* tag, Bytes* value) const {
    InlineEntry e;
    if (!inline_.read(&e)) return false;
    if (e.oversize != 0) {
      const auto tv = oversize_.load(std::memory_order_acquire);
      *tag = tv->tag;
      if (value != nullptr) *value = tv->value;
      return true;
    }
    *tag = Tag{e.tag_num, ProcessId{static_cast<Role>(e.writer_role),
                                     e.writer_index}};
    if (value != nullptr) value->assign(e.data, e.data + e.len);
    return true;
  }

 private:
  struct InlineEntry {
    uint64_t tag_num{0};
    uint32_t writer_index{0};
    uint8_t writer_role{0};
    uint8_t oversize{0};
    uint16_t len{0};
    uint8_t data[kInlineValueCap]{};
  };

  LegacySeqlock<InlineEntry> inline_;
  std::atomic<std::shared_ptr<const registers::TaggedValue>> oversize_;
};

class LegacyStore {
 public:
  LegacyStore(Bytes initial, registers::StorePolicy policy, size_t max_history)
      : initial_(std::move(initial)),
        policy_(policy),
        max_history_(max_history) {}

  bool apply(uint32_t object, const Tag& tag, Bytes value) {
    ObjectState& state = materialize(object);
    auto& store = state.log;
    bool added = false;
    switch (policy_) {
      case registers::StorePolicy::kMaxOnly:
        if (tag > store.rbegin()->first) {
          store.emplace(tag, std::move(value));
          added = true;
        }
        break;
      case registers::StorePolicy::kAll:
        added = store.emplace(tag, std::move(value)).second;
        break;
    }
    if (!added) return false;
    if (max_history_ > 0) {
      while (store.size() > max_history_) store.erase(store.begin());
    }
    const auto newest = store.rbegin();
    state.newest.publish(newest->first, newest->second);
    return true;
  }

  /// Newest (tag, value) from the owner-shard path (the log itself).
  std::pair<Tag, const Bytes*> newest(uint32_t object) const {
    const auto it = objects_.find(object);
    const auto entry = it->second.log.rbegin();
    return {entry->first, &entry->second};
  }

 private:
  struct ObjectState {
    std::map<Tag, Bytes> log;
    LegacyNewestCache newest;
  };

  ObjectState& materialize(uint32_t object) {
    auto [it, inserted] = objects_.try_emplace(object);
    if (inserted) {
      it->second.log.emplace(Tag::initial(), initial_);
      it->second.newest.publish(Tag::initial(), initial_);
    }
    return it->second;
  }

  Bytes initial_;
  registers::StorePolicy policy_;
  size_t max_history_;
  std::map<uint32_t, ObjectState> objects_;
};

/// Uniform driving surface over the two stores. Updates run the full
/// uncoalesced server sequence (apply + seqlock publish); reads return the
/// newest log entry, folded into `sink` so the loop cannot be elided.
struct CompactAdapter {
  static constexpr const char* kName = "compact";

  registers::CompactObjectStore store;
  uint64_t tag_seq{1};

  CompactAdapter(Bytes initial, size_t /*keys*/)
      : store(std::move(initial), registers::StorePolicy::kMaxOnly,
              kMaxHistory) {}

  void put(uint32_t key, BytesView value) {
    const Tag tag{++tag_seq, ProcessId::writer(0)};
    const auto res = store.apply(key, tag, value);
    if (res.added) store.publish(*res.rec);
  }
  uint64_t read(uint32_t key) const {
    const auto* rec = store.find(key);
    const auto& e = rec->log.newest();
    return e.tag.num ^ e.val.view().size();
  }
};

struct LegacyAdapter {
  static constexpr const char* kName = "legacy";

  LegacyStore store;
  uint64_t tag_seq{1};

  LegacyAdapter(Bytes initial, size_t /*keys*/)
      : store(std::move(initial), registers::StorePolicy::kMaxOnly,
              kMaxHistory) {}

  void put(uint32_t key, BytesView value) {
    const Tag tag{++tag_seq, ProcessId::writer(0)};
    store.apply(key, tag, Bytes(value.begin(), value.end()));
  }
  uint64_t read(uint32_t key) const {
    const auto [tag, value] = store.newest(key);
    return tag.num ^ value->size();
  }
};

/// Accepts and drops every message: the server's reply path runs in full
/// (epoch stamp, encode) but nothing is delivered.
class NullTransport final : public net::Transport {
 public:
  void send_payload(const ProcessId&, const ProcessId&, Payload) override {}
  TimeNs now() const override { return 0; }
  void post(const ProcessId&, std::function<void()>) override {}
  void post_after(const ProcessId&, TimeNs, std::function<void()>) override {}
  net::NetworkMetrics& metrics() override { return metrics_; }

 private:
  net::NetworkMetrics metrics_;
};

struct MixPoint {
  const YcsbMix* mix;
  KeyDist dist;
};

struct Row {
  const char* store;
  const char* workload;  // "resident" for footprint rows
  const char* dist;
  size_t keys;
  size_t value_size;
  double bytes_per_object{-1};
  double ops_per_sec{-1};
};

/// One update-value per slot, reused round-robin: value generation must not
/// show up in the measured op cost (both stores would pay it equally, but
/// it would flatten the difference between them).
std::vector<Bytes> value_pool(uint64_t seed, size_t value_size) {
  std::vector<Bytes> pool;
  pool.reserve(64);
  for (uint64_t i = 0; i < 64; ++i) {
    pool.push_back(workload::make_value(seed, i + 1, value_size));
  }
  return pool;
}

template <typename Adapter>
double run_mix(Adapter& a, const MixPoint& point, size_t keys, size_t ops,
               size_t value_size, uint64_t seed, uint64_t* sink) {
  YcsbWorkload wl(*point.mix, point.dist, keys, seed, kZipfTheta);
  const std::vector<Bytes> pool = value_pool(seed, value_size);
  const auto t0 = Clock::now();
  for (size_t i = 0; i < ops; ++i) {
    const YcsbOp op = wl.next();
    const auto key = static_cast<uint32_t>(op.key);
    switch (op.kind) {
      case YcsbOpKind::kRead:
        *sink ^= a.read(key);
        break;
      case YcsbOpKind::kUpdate:
        a.put(key, pool[i % pool.size()]);
        break;
      case YcsbOpKind::kReadModifyWrite:
        *sink ^= a.read(key);
        a.put(key, pool[i % pool.size()]);
        break;
    }
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(ops) / secs;
}

/// Loads `keys` objects (one put each on top of the {t0, initial} seed) and
/// runs every mix point, appending one row per measurement.
template <typename Adapter>
void run_store(const std::vector<MixPoint>& points, size_t keys, size_t ops,
               size_t value_size, uint64_t seed, std::vector<Row>* rows,
               uint64_t* sink) {
  const size_t heap_before = heap_in_use();
  Adapter a(workload::make_value(seed, 0, value_size), keys);
  {
    const std::vector<Bytes> pool = value_pool(seed, value_size);
    for (size_t key = 0; key < keys; ++key) {
      a.put(static_cast<uint32_t>(key), pool[key % pool.size()]);
    }
  }
  const size_t heap_after = heap_in_use();

  Row mem{Adapter::kName, "resident", "none", keys, value_size, -1, -1};
  if (heap_after > heap_before) {
    mem.bytes_per_object =
        static_cast<double>(heap_after - heap_before) /
        static_cast<double>(keys);
    rows->push_back(mem);
  }
  for (const MixPoint& p : points) {
    Row r{Adapter::kName, p.mix->name, to_string(p.dist), keys, value_size,
          -1, -1};
    r.ops_per_sec = run_mix(a, p, keys, ops, value_size, seed, sink);
    rows->push_back(r);
    std::fprintf(stderr, "%-8s %-8s %-8s keys=%zu size=%zu %14.0f ops/s\n",
                 r.store, r.workload, r.dist, keys, value_size, r.ops_per_sec);
  }
}

/// QUERY-DATA through RegisterServer::on_message over `keys` objects, each
/// preloaded by one PUT-DATA; uniform keys, so every lookup is as likely
/// to miss the cache as the object count makes it.
Row run_server_query(size_t keys, size_t ops, size_t value_size,
                     uint64_t seed) {
  NullTransport transport;
  registers::SystemConfig config;
  config.n = 5;
  config.f = 1;
  config.store_policy = registers::StorePolicy::kMaxOnly;
  config.max_history = kMaxHistory;
  const ProcessId client = ProcessId::reader(0);
  registers::RegisterServer server(ProcessId::server(0), config, &transport,
                                   workload::make_value(seed, 0, value_size));
  auto envelope = [&client](const registers::RegisterMessage& msg) {
    net::Envelope env;
    env.from = client;
    env.to = ProcessId::server(0);
    env.payload = Payload(msg.encode());
    return env;
  };
  {
    const std::vector<Bytes> pool = value_pool(seed, value_size);
    registers::RegisterMessage put;
    put.type = registers::MsgType::kPutData;
    for (size_t key = 0; key < keys; ++key) {
      put.object = static_cast<uint32_t>(key);
      put.tag = Tag{2, ProcessId::writer(0)};
      put.value = pool[key % pool.size()];
      server.on_message(envelope(put));
    }
  }
  // Requests are encoded up front so the timed loop is the server's work.
  std::vector<net::Envelope> queries;
  queries.reserve(1 << 16);
  Rng rng(seed);
  registers::RegisterMessage q;
  q.type = registers::MsgType::kQueryData;
  for (size_t i = 0; i < (1 << 16); ++i) {
    q.op_id = i + 1;
    q.object = static_cast<uint32_t>(rng.uniform(keys));
    queries.push_back(envelope(q));
  }
  const auto t0 = Clock::now();
  for (size_t i = 0; i < ops; ++i) server.on_message(queries[i & 0xffff]);
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();

  Row r{"server", "query_data", "uniform", keys, value_size, -1, -1};
  r.ops_per_sec = static_cast<double>(ops) / secs;
  std::fprintf(stderr, "%-8s %-8s %-8s keys=%zu size=%zu %14.0f ops/s\n",
               r.store, r.workload, r.dist, keys, value_size, r.ops_per_sec);
  return r;
}

const Row* find_row(const std::vector<Row>& rows, const char* store,
                    const char* workload, const char* dist, size_t value_size) {
  for (const Row& r : rows) {
    if (std::strcmp(r.store, store) == 0 &&
        std::strcmp(r.workload, workload) == 0 &&
        std::strcmp(r.dist, dist) == 0 && r.value_size == value_size) {
      return &r;
    }
  }
  return nullptr;
}

int run(const BenchArgs& args, size_t keys) {
  const size_t ops = args.quick ? 250'000 : 2'000'000;
  // The headline grid: footprint at two value sizes (16 B rides inline in
  // both the log entry and the seqlock slot; 64 B forces the slab and the
  // oversize publish path), throughput mixes at the headline size.
  const std::vector<MixPoint> mixes{{&kYcsbB, KeyDist::kZipfian},
                                    {&kYcsbB, KeyDist::kUniform},
                                    {&kYcsbC, KeyDist::kZipfian},
                                    {&kYcsbA, KeyDist::kZipfian},
                                    {&kYcsbF, KeyDist::kZipfian}};
  const std::vector<MixPoint> no_mixes;

  std::vector<Row> rows;
  uint64_t sink = 0;
  run_store<LegacyAdapter>(mixes, keys, ops, 16, args.seed, &rows, &sink);
  run_store<LegacyAdapter>(no_mixes, keys, ops, 64, args.seed, &rows, &sink);
  run_store<CompactAdapter>(mixes, keys, ops, 16, args.seed, &rows, &sink);
  run_store<CompactAdapter>(no_mixes, keys, ops, 64, args.seed, &rows, &sink);
  rows.push_back(run_server_query(keys, ops, 16, args.seed));

  std::fprintf(stderr, "(sink %llu)\n", static_cast<unsigned long long>(sink));
  for (const Row& r : rows) {
    if (r.bytes_per_object >= 0) {
      std::fprintf(stderr, "%-8s size=%-3zu keys=%zu %10.1f bytes/object\n",
                   r.store, r.value_size, r.keys, r.bytes_per_object);
    }
  }

  if (!args.json_path.empty()) {
    FILE* out = std::fopen(args.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_objects: cannot open %s for writing\n",
                   args.json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"schema\": \"bftreg-bench-objects-v1\",\n");
    std::fprintf(out, "  \"quick\": %s,\n  \"results\": [",
                 args.quick ? "true" : "false");
    bool first = true;
    for (const Row& r : rows) {
      std::fprintf(out,
                   "%s\n    {\"store\": \"%s\", \"workload\": \"%s\", "
                   "\"dist\": \"%s\", \"keys\": %zu, \"size\": %zu",
                   first ? "" : ",", r.store, r.workload, r.dist, r.keys,
                   r.value_size);
      if (r.bytes_per_object >= 0) {
        std::fprintf(out, ", \"bytes_per_object\": %.1f", r.bytes_per_object);
      }
      if (r.ops_per_sec >= 0) {
        std::fprintf(out, ", \"ops_per_sec\": %.0f", r.ops_per_sec);
      }
      std::fprintf(out, "}");
      first = false;
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::fprintf(stderr, "bench_objects: wrote %s\n", args.json_path.c_str());
  }

  // In-binary acceptance, host-independent (ratios of two same-host runs).
  int failures = 0;
  const Row* legacy_mem = find_row(rows, "legacy", "resident", "none", 16);
  const Row* compact_mem = find_row(rows, "compact", "resident", "none", 16);
  if (legacy_mem != nullptr && compact_mem != nullptr) {
    const double shrink =
        legacy_mem->bytes_per_object / compact_mem->bytes_per_object;
    std::fprintf(stderr,
                 "footprint: %.1f -> %.1f bytes/object (%.2fx, need %.1fx)\n",
                 legacy_mem->bytes_per_object, compact_mem->bytes_per_object,
                 shrink, kRequiredShrink);
    if (shrink < kRequiredShrink) {
      std::fprintf(stderr, "FAIL: compact store shrinks footprint only %.2fx\n",
                   shrink);
      ++failures;
    }
  }
  const Row* legacy_b = find_row(rows, "legacy", "ycsb_b", "zipfian", 16);
  const Row* compact_b = find_row(rows, "compact", "ycsb_b", "zipfian", 16);
  if (legacy_b != nullptr && compact_b != nullptr &&
      compact_b->ops_per_sec < kOpsSlack * legacy_b->ops_per_sec) {
    std::fprintf(stderr,
                 "FAIL: YCSB-B/zipfian %.0f ops/s on compact vs %.0f legacy\n",
                 compact_b->ops_per_sec, legacy_b->ops_per_sec);
    ++failures;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace bftreg::bench

int main(int argc, char** argv) {
  size_t keys = bftreg::bench::kDefaultKeys;
  const auto args = bftreg::bench::BenchArgs::parse(
      argc, argv, "[--keys=N]", [&keys](const char* a) {
        if (std::strncmp(a, "--keys=", 7) != 0) return false;
        keys = std::strtoull(a + 7, nullptr, 10);
        return keys > 0;
      });
  if (!args) return 2;
  return bftreg::bench::run(*args, keys);
}
