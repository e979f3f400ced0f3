#include "registers/rb_register.h"

#include <cassert>
#include <optional>
#include <vector>

#include "common/serde.h"

namespace bftreg::registers {

namespace {

/// RB blob: the (writer, op_id, object, tag, value) tuple a PUT-DATA
/// carries.
Bytes encode_blob(const ProcessId& writer, uint64_t op_id, uint32_t object,
                  const Tag& tag, BytesView value) {
  Serializer s;
  s.put_process_id(writer);
  s.put_u64(op_id);
  s.put_u32(object);
  s.put_tag(tag);
  s.put_bytes(value);
  return s.take();
}

struct Blob {
  ProcessId writer;
  uint64_t op_id;
  uint32_t object;
  Tag tag;
  Bytes value;
};

std::optional<Blob> decode_blob(const Bytes& bytes) {
  Deserializer d(bytes);
  Blob b;
  b.writer = d.get_process_id();
  b.op_id = d.get_u64();
  b.object = d.get_u32();
  b.tag = d.get_tag();
  b.value = d.get_bytes();
  if (!d.done()) return std::nullopt;
  return b;
}

}  // namespace

// --------------------------------------------------------------- RbServer

RbServer::RbServer(ProcessId self, SystemConfig config, net::Transport* transport,
                   Bytes initial)
    : self_(self),
      config_(std::move(config)),
      transport_(transport),
      initial_(std::move(initial)),
      store_(initial_, StorePolicy::kAll, config_.max_history) {
  assert(config_.valid_for_rb());
  stored_bytes_ += store_.materialize(0).second;
  bracha_ = std::make_unique<broadcast::BrachaPeer>(
      self_, config_.servers(), config_.f,
      [this](const ProcessId& to, Bytes frame) {
        transport_->send(self_, to, std::move(frame));
      },
      [this](Bytes blob) { on_rb_deliver(blob); });
}

std::vector<TaggedValue> RbServer::store(uint32_t object) const {
  std::vector<TaggedValue> out;
  const auto* rec = store_.find(object);
  if (rec == nullptr) {
    out.push_back(TaggedValue{Tag::initial(), initial_});
    return out;
  }
  out.reserve(rec->log.size());
  for (const LogEntry& e : rec->log) {
    const BytesView v = e.val.view();
    out.push_back(TaggedValue{e.tag, Bytes(v.begin(), v.end())});
  }
  return out;
}

void RbServer::reply(const ProcessId& to, const RegisterMessage& msg) {
  transport_->send(self_, to, msg.encode());
}

void RbServer::on_message(const net::Envelope& env) {
  // Server-to-server Bracha frames first (they are not RegisterMessages).
  if (env.from.is_server() && bracha_->on_frame(env.from, env.payload)) return;

  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  switch (msg->type) {
    case MsgType::kQueryTag: {
      RegisterMessage resp;
      resp.type = MsgType::kTagResp;
      resp.op_id = msg->op_id;
      resp.object = msg->object;
      const auto* rec = store_.find(msg->object);
      resp.tag = rec != nullptr ? rec->log.newest().tag : Tag::initial();
      reply(env.from, resp);
      break;
    }
    case MsgType::kPutData:
      handle_put_data(env.from, *msg);
      break;
    case MsgType::kQueryData:
      handle_query(env.from, *msg);
      break;
    case MsgType::kReadDone:
      if (subscribers_.erase({env.from, msg->op_id}) == 0) {
        done_before_query_.insert({env.from, msg->op_id});
      }
      break;
    default:
      break;
  }
}

void RbServer::handle_put_data(const ProcessId& from, const RegisterMessage& msg) {
  if (!from.is_client()) return;  // writers only; servers speak Bracha
  // The writer's PUT-DATA is the SEND step of the reliable broadcast; the
  // apply + ACK happen in on_rb_deliver once ECHO/READY complete.
  bracha_->on_external_send(
      encode_blob(from, msg.op_id, msg.object, msg.tag, msg.value));
}

void RbServer::on_rb_deliver(const Bytes& blob) {
  auto b = decode_blob(blob);
  if (!b) return;

  const auto res = store_.apply(b->object, b->tag, b->value);
  stored_bytes_ = static_cast<size_t>(static_cast<long long>(stored_bytes_) +
                                      res.bytes_delta);
  const bool added = res.added;
  if (added) store_.publish(*res.rec);

  RegisterMessage ack;
  ack.type = MsgType::kAck;
  ack.op_id = b->op_id;
  ack.object = b->object;
  ack.tag = b->tag;
  reply(b->writer, ack);

  if (added) {
    RegisterMessage update;
    update.type = MsgType::kDataUpdate;
    update.object = b->object;
    update.tag = b->tag;
    update.value = b->value;
    for (const auto& [sub, object] : subscribers_) {
      if (object != b->object) continue;
      update.op_id = sub.second;
      reply(sub.first, update);
    }
  }
}

void RbServer::handle_query(const ProcessId& from, const RegisterMessage& msg) {
  if (done_before_query_.erase({from, msg.op_id}) == 0) {
    subscribers_[{from, msg.op_id}] = msg.object;
  }
  RegisterMessage resp;
  resp.type = MsgType::kDataResp;
  resp.op_id = msg.op_id;
  resp.object = msg.object;
  // Answer for unknown objects as the lazy initialization without
  // materializing state (a reader probing random ids must not balloon us).
  if (const auto* rec = store_.find(msg.object)) {
    const LogEntry& newest = rec->log.newest();
    resp.tag = newest.tag;
    const BytesView v = newest.val.view();
    resp.value = Bytes(v.begin(), v.end());
  } else {
    resp.tag = Tag::initial();
    resp.value = initial_;
  }
  reply(from, resp);
}

}  // namespace bftreg::registers
