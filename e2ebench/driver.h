// Drives a Cluster: warm-up, preload, open-loop windows, and the record of
// every operation (invocation, response, value digest, tag) that the
// safety checker replays afterwards.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <string>

#include "checker/consistency.h"
#include "cluster.h"

namespace bftreg::e2e {

/// 128-bit fingerprint standing in for a value in the recorded history
/// (64 KiB values would otherwise cost gigabytes of history).
using Digest = std::array<uint64_t, 2>;
Digest digest_of(BytesView bytes);

struct OpRecord {
  enum State : uint8_t { kPending = 0, kDone = 1, kTimedOut = 2 };
  int64_t intended_ns{0};
  int64_t done_ns{0};
  TimeNs invoked{0};
  TimeNs responded{0};
  Tag tag{};
  Digest digest{};
  ProcessId client{};
  uint32_t key{0};
  bool write{false};
  std::atomic<uint8_t> state{kPending};
};

class LoadDriver {
 public:
  LoadDriver(Cluster& cluster, const WorkloadSpec& spec, uint64_t seed);

  /// One read per client, so every connection is dialed before timing.
  void warm_up();
  /// Writes every key once at full value size, from the workload's
  /// writers, keeping a window of writes in flight per writer.
  void preload();

  /// One open-loop window at `rate` ops/s for `seconds`, drained.
  Window run_window(double rate, double seconds);

  /// Waits until every issued operation completed or `timeout_s` passed.
  bool drain(double timeout_s);

  uint64_t attempted() const { return recs_.size(); }
  uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  /// Operations that timed out or never completed.
  uint64_t failed() const;

  /// Definition 1 per object over every recorded operation; BSR also with
  /// strict validity (no fabricated value is ever returned).
  checker::CheckResult check_safety() const;

 private:
  OpRecord& push(bool write, uint32_t key, const ProcessId& client,
                 int64_t intended);
  void issue(OpRecord* rec, Bytes value);
  void finish(OpRecord* rec, const registers::OpResult& r, const Tag& tag,
              const Bytes* value);
  /// One preloading writer: its share of the keys with their values.
  /// Touched only on that writer's thread once preload() has posted it.
  struct Pump {
    registers::RegisterClient* client{nullptr};
    std::vector<std::pair<OpRecord*, Bytes>> work;
    size_t next{0};
  };
  void pump(Pump* p);

  Cluster& cluster_;
  const WorkloadSpec& spec_;
  const uint64_t seed_;
  bench::YcsbWorkload mix_;
  /// Grows on the generator (or main) thread only; completion callbacks
  /// write into elements they were handed, never into the container.
  std::deque<OpRecord> recs_;
  std::atomic<uint64_t> completed_{0};
  uint64_t write_index_{0};
  size_t next_reader_{0};
  size_t next_writer_{0};
  std::vector<Pump> pumps_;
};

}  // namespace bftreg::e2e
