#include "driver.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "workload/workload.h"

namespace bftreg::e2e {

namespace {

uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Bytes digest_bytes(const Digest& d) {
  Bytes out(sizeof(d));
  std::memcpy(out.data(), d.data(), sizeof(d));
  return out;
}

/// Reads whose safety verdict is decided together: the checker is
/// quadratic in the history it is handed, so each object's history is fed
/// to it as chunks of reads plus every write that could matter to them.
constexpr size_t kReadsPerCheck = 64;

}  // namespace

Digest digest_of(BytesView bytes) {
  uint64_t a = 0x9e3779b97f4a7c15ULL ^ bytes.size();
  uint64_t b = 0xc2b2ae3d27d4eb4fULL;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    a = (a ^ w) * 0x100000001b3ULL;
    a = (a << 29) | (a >> 35);
    b = (b + w) * 0xff51afd7ed558ccdULL;
    b ^= b >> 31;
  }
  uint64_t tail = 0;
  for (size_t j = 0; i + j < bytes.size(); ++j) {
    tail |= static_cast<uint64_t>(bytes[i + j]) << (8 * j);
  }
  return {mix64(a ^ tail), mix64(b + tail + 1)};
}

LoadDriver::LoadDriver(Cluster& cluster, const WorkloadSpec& spec,
                       uint64_t seed)
    : cluster_(cluster),
      spec_(spec),
      seed_(seed),
      mix_(spec.mix, bench::KeyDist::kZipfian, spec.keys, seed) {}

OpRecord& LoadDriver::push(bool write, uint32_t key, const ProcessId& client,
                           int64_t intended) {
  OpRecord& rec = recs_.emplace_back();
  rec.write = write;
  rec.key = key;
  rec.client = client;
  rec.intended_ns = intended;
  return rec;
}

void LoadDriver::finish(OpRecord* rec, const registers::OpResult& r,
                        const Tag& tag, const Bytes* value) {
  Tracer::Scope span(SpanKind::kCallback, pack(rec->client), 0, FrameHeader{});
  rec->done_ns = now_ns();
  rec->invoked = r.invoked_at;
  rec->responded = r.completed_at;
  rec->tag = tag;
  if (value != nullptr) rec->digest = digest_of(*value);
  rec->state.store(r.timed_out ? OpRecord::kTimedOut : OpRecord::kDone,
                   std::memory_order_release);
  completed_.fetch_add(1, std::memory_order_release);
}

void LoadDriver::issue(OpRecord* rec, Bytes value) {
  registers::RegisterClient* c = nullptr;
  for (auto& client : cluster_.clients()) {
    if (client.id() == rec->client) c = &client;
  }
  cluster_.transport().post(rec->client, [this, rec, c,
                                          value = std::move(value)]() mutable {
    Tracer::Scope span(SpanKind::kIssue, pack(c->id()), 0, FrameHeader{}, 0,
                       static_cast<uint64_t>(rec->intended_ns));
    if (rec->write) {
      c->write(rec->key, std::move(value),
               [this, rec](const registers::WriteResult& r) {
                 finish(rec, r, r.tag, nullptr);
               });
    } else {
      c->read(rec->key, [this, rec](const registers::ReadResult& r) {
        finish(rec, r, r.tag, &r.value);
      });
    }
  });
}

bool LoadDriver::drain(double timeout_s) {
  const int64_t deadline = now_ns() + static_cast<int64_t>(timeout_s * 1e9);
  while (completed() < recs_.size()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

void LoadDriver::warm_up() {
  for (auto& c : cluster_.clients()) {
    issue(&push(false, 0, c.id(), now_ns()), Bytes{});
  }
  drain(10.0);
}

void LoadDriver::preload() {
  // Values are built here so the pumps only move them; each writer keeps
  // a window of writes in flight, refilled from its completions.
  constexpr size_t kWindow = 128;
  pumps_.assign(spec_.writers, Pump{});
  for (size_t w = 0; w < spec_.writers; ++w) pumps_[w].client = &cluster_.writer(w);
  for (uint32_t k = 0; k < spec_.keys; ++k) {
    Pump& p = pumps_[k % spec_.writers];
    OpRecord& rec = push(true, k, p.client->id(), now_ns());
    Bytes value = workload::make_value(seed_, ++write_index_, spec_.value_size);
    rec.digest = digest_of(value);
    p.work.emplace_back(&rec, std::move(value));
  }
  for (auto& p : pumps_) {
    cluster_.transport().post(p.client->id(), [this, pp = &p] {
      for (size_t i = 0; i < kWindow; ++i) pump(pp);
    });
  }
  drain(120.0);
}

void LoadDriver::pump(Pump* p) {
  if (p->next >= p->work.size()) return;
  auto& [rec, value] = p->work[p->next++];
  p->client->write(rec->key, std::move(value),
                   [this, p, rec = rec](const registers::WriteResult& r) {
                     pump(p);
                     finish(rec, r, r.tag, nullptr);
                   });
}

Window LoadDriver::run_window(double rate, double seconds) {
  Window w;
  w.rate = rate;
  const size_t first = recs_.size();
  auto stats = run_open_loop(
      rate, seconds,
      [&](uint64_t, int64_t intended) {
        const bench::YcsbOp op = mix_.next();
        const auto key = static_cast<uint32_t>(op.key);
        if (op.kind == bench::YcsbOpKind::kRead) {
          const ProcessId c = cluster_.reader(next_reader_++ % spec_.readers).id();
          issue(&push(false, key, c, intended), Bytes{});
        } else {
          const ProcessId c = cluster_.writer(next_writer_++ % spec_.writers).id();
          OpRecord& rec = push(true, key, c, intended);
          Bytes value =
              workload::make_value(seed_, ++write_index_, spec_.value_size);
          rec.digest = digest_of(value);
          issue(&rec, std::move(value));
        }
      },
      [&] { return recs_.size() - completed(); });
  // Deadlines bound every op to two 2 s attempts; the rest is counted
  // failed below.
  drain(6.5);
  // Samples stay in issue order: robust_tail() slices them by time.
  for (size_t i = first; i < recs_.size(); ++i) {
    const OpRecord& rec = recs_[i];
    if (rec.state.load(std::memory_order_acquire) != OpRecord::kDone) {
      ++w.failed;
      continue;
    }
    const double us = static_cast<double>(rec.done_ns - rec.intended_ns) / 1e3;
    (rec.write ? w.write_us : w.read_us).push_back(us);
  }
  w.attempted = recs_.size() - first;
  w.lag_us = std::move(stats.lag_us);
  w.backlog = std::move(stats.backlog);
  w.generator_cpu_s = stats.cpu_s;
  return w;
}

uint64_t LoadDriver::failed() const {
  uint64_t n = 0;
  for (const auto& rec : recs_) {
    if (rec.state.load(std::memory_order_acquire) != OpRecord::kDone) ++n;
  }
  return n;
}

checker::CheckResult LoadDriver::check_safety() const {
  checker::CheckOptions opts;
  opts.initial_value = digest_bytes(digest_of(cluster_.config().initial_value));
  opts.strict_validity = !spec_.coded;
  opts.reads_report_tags = !spec_.coded;

  std::vector<std::vector<const OpRecord*>> by_key(spec_.keys);
  for (const auto& rec : recs_) by_key[rec.key].push_back(&rec);

  uint64_t id = 0;
  auto to_checker = [&](const OpRecord* rec) {
    checker::OpRecord op;
    op.kind = rec->write ? checker::OpRecord::Kind::kWrite
                         : checker::OpRecord::Kind::kRead;
    op.client = rec->client;
    op.id = ++id;
    op.invoked_at = rec->invoked;
    op.completed = rec->state.load(std::memory_order_acquire) == OpRecord::kDone;
    if (op.completed) op.responded_at = rec->responded;
    op.value = digest_bytes(rec->digest);
    op.tag = rec->tag;
    return op;
  };

  for (uint32_t key = 0; key < spec_.keys; ++key) {
    std::vector<checker::OpRecord> writes;
    std::vector<checker::OpRecord> reads;
    for (const OpRecord* rec : by_key[key]) {
      // A write that never reached its first attempt has no invocation.
      if (rec->write && rec->state.load() == OpRecord::kPending) {
        checker::OpRecord op = to_checker(rec);
        op.invoked_at = 0;
        writes.push_back(std::move(op));
        continue;
      }
      checker::OpRecord op = to_checker(rec);
      if (rec->write) {
        writes.push_back(std::move(op));
      } else if (op.completed) {
        reads.push_back(std::move(op));
      }
    }
    std::sort(writes.begin(), writes.end(), [](const auto& a, const auto& b) {
      return a.invoked_at < b.invoked_at;
    });
    std::sort(reads.begin(), reads.end(), [](const auto& a, const auto& b) {
      return a.responded_at < b.responded_at;
    });
    // A write invoked after a read responded can neither precede nor
    // overlap it, so each chunk of reads needs only the writes invoked
    // before its last response.
    for (size_t i = 0; i < reads.size(); i += kReadsPerCheck) {
      const size_t end = std::min(reads.size(), i + kReadsPerCheck);
      const TimeNs horizon = reads[end - 1].responded_at;
      std::vector<checker::OpRecord> ops(reads.begin() + static_cast<ptrdiff_t>(i),
                                         reads.begin() + static_cast<ptrdiff_t>(end));
      for (const auto& w : writes) {
        if (w.invoked_at >= horizon) break;
        ops.push_back(w);
      }
      checker::CheckResult res = checker::check_safety(ops, opts);
      if (!res.ok) {
        res.violation = "object " + std::to_string(key) + ": " + res.violation;
        return res;
      }
    }
  }
  return checker::CheckResult::pass();
}

}  // namespace bftreg::e2e
