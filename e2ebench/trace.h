// Span tracing from outside the library: decorators for net::Transport and
// net::IProcess that time every call into a protocol object's public
// surface, so the per-layer ledger needs no change under src/.
//
// A span is (kind, start, end, parent, op id). Spans live in per-thread
// buffers owned by the Tracer (they outlive the transport's threads) and
// are collected once the network has stopped. Self time is computed
// online: a closing span adds its duration to its parent's child time, so
// self = (end - start) - child_ns.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.h"

namespace bftreg::e2e {

int64_t now_ns();

enum class SpanKind : uint8_t {
  kIssue,       // bench -> RegisterClient::read()/write() (aux = bench op)
  kSend,        // any process -> Transport::send_payload
  kClientRecv,  // transport -> RegisterClient::on_message
  kServerRecv,  // transport -> server on_message (honest or Byzantine)
  kBatchEnd,    // transport -> server on_batch_end (publish + ack flush)
  kCallback,    // the bench's own completion callback (excluded from self)
};

struct Span {
  uint64_t id{0};      // unique per span: thread tag | per-thread counter
  uint64_t parent{0};  // id of the enclosing span on the same thread, or 0
  int64_t start{0};
  int64_t end{0};
  int64_t child_ns{0};
  uint64_t op_id{0};
  uint64_t aux{0};
  uint32_t self{0};  // packed ProcessId of the process doing the work
  uint32_t peer{0};  // packed ProcessId of the other end (sends/recvs)
  uint32_t bytes{0};
  SpanKind kind{SpanKind::kIssue};
  uint8_t msg{0};  // registers::MsgType of the frame, 0 when none

  int64_t self_ns() const { return end - start - child_ns; }
};

const char* to_string(SpanKind kind);

uint32_t pack(const ProcessId& pid);
ProcessId unpack(uint32_t packed);

/// Header peek of a RegisterMessage frame: type byte and op id, read at
/// their fixed wire offsets without parsing (and copying) the value.
struct FrameHeader {
  uint8_t msg{0};
  uint64_t op_id{0};
};
FrameHeader peek_frame(BytesView payload);

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, across threads. Call only when no thread
  /// can be recording (the network is stopped).
  std::vector<Span> collect();
  void clear();

  /// RAII span on the calling thread. Inert when tracing is disabled at
  /// construction.
  class Scope {
   public:
    Scope(SpanKind kind, uint32_t self, uint32_t peer, FrameHeader hdr,
          uint32_t bytes = 0, uint64_t aux = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_{false};
  };

 private:
  struct ThreadBuf {
    std::deque<Span> done;  // grows without copying what is recorded
    std::vector<Span> open;  // stack of spans not yet closed
    uint64_t tag{0};         // high bits of this thread's span ids
    uint64_t next_id{0};
  };
  ThreadBuf& local();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

/// Transport decorator: every send_payload becomes a kSend span.
class TracingTransport final : public net::Transport {
 public:
  explicit TracingTransport(net::Transport& inner) : inner_(inner) {}

  void send_payload(const ProcessId& from, const ProcessId& to,
                    Payload payload) override;
  TimeNs now() const override { return inner_.now(); }
  void post(const ProcessId& pid, std::function<void()> fn) override {
    inner_.post(pid, std::move(fn));
  }
  void post_after(const ProcessId& pid, TimeNs delta,
                  std::function<void()> fn) override {
    inner_.post_after(pid, delta, std::move(fn));
  }
  net::NetworkMetrics& metrics() override { return inner_.metrics(); }

 private:
  net::Transport& inner_;
};

/// Process decorator: on_message becomes a kClientRecv/kServerRecv span,
/// on_batch_end a kBatchEnd span; everything else forwards unchanged.
class TracingProcess final : public net::IProcess {
 public:
  TracingProcess(net::IProcess& inner, ProcessId self, bool server)
      : inner_(inner), self_(pack(self)), server_(server) {}

  void on_start() override { inner_.on_start(); }
  void on_message(const net::Envelope& env) override;
  uint32_t delivery_shards() const override { return inner_.delivery_shards(); }
  uint32_t shard_of(const net::Envelope& env) const override {
    return inner_.shard_of(env);
  }
  void on_batch_begin(uint32_t shard) override {
    inner_.on_batch_begin(shard);
  }
  void on_batch_end(uint32_t shard) override;

 private:
  net::IProcess& inner_;
  const uint32_t self_;
  const bool server_;
};

}  // namespace bftreg::e2e
