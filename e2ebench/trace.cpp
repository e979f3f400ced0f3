#include "trace.h"

#include <chrono>

namespace bftreg::e2e {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIssue: return "issue";
    case SpanKind::kSend: return "send";
    case SpanKind::kClientRecv: return "client_recv";
    case SpanKind::kServerRecv: return "server_recv";
    case SpanKind::kBatchEnd: return "batch_end";
    case SpanKind::kCallback: return "callback";
  }
  return "?";
}

uint32_t pack(const ProcessId& pid) {
  return (static_cast<uint32_t>(pid.role) << 24) | (pid.index & 0xFFFFFFu);
}

ProcessId unpack(uint32_t packed) {
  return ProcessId{static_cast<Role>(packed >> 24), packed & 0xFFFFFFu};
}

FrameHeader peek_frame(BytesView payload) {
  // RegisterMessage::encode: [u8 type][u64 op_id LE][u32 object LE]...
  FrameHeader h;
  if (payload.size() < 9) return h;
  h.msg = payload[0];
  for (size_t i = 0; i < 8; ++i) {
    h.op_id |= static_cast<uint64_t>(payload[1 + i]) << (8 * i);
  }
  return h;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    buf = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    owned->tag = static_cast<uint64_t>(bufs_.size() + 1) << 40;
    bufs_.push_back(std::move(owned));
  }
  return *buf;
}

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : bufs_) out.insert(out.end(), b->done.begin(), b->done.end());
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : bufs_) {
    b->done.clear();
    b->open.clear();
  }
}

Tracer::Scope::Scope(SpanKind kind, uint32_t self, uint32_t peer,
                     FrameHeader hdr, uint32_t bytes, uint64_t aux) {
  Tracer& t = instance();
  if (!t.enabled()) return;
  active_ = true;
  Span s;
  s.kind = kind;
  s.self = self;
  s.peer = peer;
  s.msg = hdr.msg;
  s.op_id = hdr.op_id;
  s.bytes = bytes;
  s.aux = aux;
  ThreadBuf& buf = t.local();
  s.id = buf.tag | ++buf.next_id;
  s.parent = buf.open.empty() ? 0 : buf.open.back().id;
  s.start = now_ns();
  buf.open.push_back(s);
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  const int64_t end = now_ns();
  ThreadBuf& buf = instance().local();
  Span s = buf.open.back();
  buf.open.pop_back();
  s.end = end;
  if (!buf.open.empty()) {
    Span& parent = buf.open.back();
    parent.child_ns += end - s.start;
    // An issue learns its wire op id from its first frame; a completion
    // callback from the reply that completed the operation.
    if (parent.kind == SpanKind::kIssue && parent.op_id == 0) {
      parent.op_id = s.op_id;
    }
    if (s.kind == SpanKind::kCallback) s.op_id = parent.op_id;
  }
  buf.done.push_back(s);
}

void TracingTransport::send_payload(const ProcessId& from, const ProcessId& to,
                                    Payload payload) {
  Tracer::Scope span(SpanKind::kSend, pack(from), pack(to),
                     peek_frame(payload.view()),
                     static_cast<uint32_t>(payload.size()));
  inner_.send_payload(from, to, std::move(payload));
}

void TracingProcess::on_message(const net::Envelope& env) {
  Tracer::Scope span(server_ ? SpanKind::kServerRecv : SpanKind::kClientRecv,
                     self_, pack(env.from), peek_frame(env.payload.view()),
                     static_cast<uint32_t>(env.payload.size()));
  inner_.on_message(env);
}

void TracingProcess::on_batch_end(uint32_t shard) {
  Tracer::Scope span(SpanKind::kBatchEnd, self_, 0, FrameHeader{});
  inner_.on_batch_end(shard);
}

}  // namespace bftreg::e2e
