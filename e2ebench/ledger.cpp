#include "ledger.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_map>

#include "registers/messages.h"

namespace bftreg::e2e {

namespace {

using registers::MsgType;

constexpr uint8_t msg(MsgType t) { return static_cast<uint8_t>(t); }

bool is_server(uint32_t packed) { return unpack(packed).is_server(); }

struct OpSpans {
  const Span* issue{nullptr};
  const Span* callback{nullptr};
  std::vector<const Span*> requests;  // client -> server frames
  std::vector<const Span*> replies;   // server -> client frames
  std::vector<const Span*> server_recvs;
  std::vector<const Span*> client_recvs;
};

/// One request/response round: the request type and its reply type.
struct Round {
  uint8_t query;
  uint8_t reply;
};
constexpr Round kReadRounds[] = {{msg(MsgType::kQueryData), msg(MsgType::kDataResp)}};
constexpr Round kWriteRounds[] = {{msg(MsgType::kQueryTag), msg(MsgType::kTagResp)},
                                  {msg(MsgType::kPutData), msg(MsgType::kAck)}};

const Span* find_span(const std::vector<const Span*>& v, uint32_t self,
                      uint8_t type) {
  for (const Span* s : v) {
    if (s->self == self && s->msg == type) return s;
  }
  return nullptr;
}

/// Cuts one operation along the path of each round's first reply; false
/// when a span on that path is missing (the op is then left out).
bool cut_path(const OpSpans& op, const Round* rounds, size_t n_rounds,
              double* rows) {
  double out[kLedgerRows] = {};
  const int64_t t0 = static_cast<int64_t>(op.issue->aux);
  out[kQueue] = static_cast<double>(op.issue->start - t0);
  int64_t round_start = op.issue->start;
  for (size_t r = 0; r < n_rounds; ++r) {
    const Round& rd = rounds[r];
    const Span* reply_recv = nullptr;
    for (const Span* s : op.client_recvs) {
      if (s->msg == rd.reply && (!reply_recv || s->start < reply_recv->start)) {
        reply_recv = s;
      }
    }
    if (!reply_recv) return false;
    const uint32_t server = reply_recv->peer;
    const Span* request = nullptr;
    for (const Span* s : op.requests) {
      if (s->peer == server && s->msg == rd.query) request = s;
    }
    const Span* handler = find_span(op.server_recvs, server, rd.query);
    const Span* reply_send = find_span(op.replies, server, rd.reply);
    if (!request || !handler || !reply_send) return false;

    int64_t round_end = 0;
    if (r + 1 < n_rounds) {
      // The next round is sent from inside the handler that completed
      // this one; its first frame ends this round's wait.
      int64_t next = INT64_MAX;
      for (const Span* s : op.requests) {
        if (s->msg == rounds[r + 1].query) next = std::min(next, s->start);
      }
      if (next == INT64_MAX) return false;
      round_end = next;
    } else {
      round_end = op.callback->start;
    }
    // Issue runs until the frame to the first replier leaves; frames to
    // the other servers are off this path (if they delay the client, that
    // shows up as reply leg).
    out[kIssue] += static_cast<double>(request->start - round_start);
    out[kRequestLeg] += static_cast<double>(handler->start - request->start);
    if (rd.reply == msg(MsgType::kAck)) {
      out[kServer] += static_cast<double>(handler->end - handler->start);
      out[kBatchEnd] += static_cast<double>(reply_send->start - handler->end);
    } else {
      out[kServer] += static_cast<double>(reply_send->start - handler->start);
    }
    out[kReplyLeg] += static_cast<double>(reply_recv->start - reply_send->start);
    out[kQuorumWait] += static_cast<double>(round_end - reply_recv->start);
    round_start = round_end;
  }
  std::copy(std::begin(out), std::end(out), rows);
  return true;
}

void add_to(Ledger& l, const double* rows) {
  // Running mean over ops.
  ++l.ops;
  for (int i = 0; i < kLedgerRows; ++i) {
    l.ns[i] += (rows[i] - l.ns[i]) / static_cast<double>(l.ops);
  }
}

double mean(double sum, uint64_t count) {
  return count == 0 ? 0 : sum / static_cast<double>(count);
}

}  // namespace

const char* ledger_row_name(int row) {
  static const char* const kNames[kLedgerRows] = {
      "queue", "issue", "request_leg", "server", "batch_end", "reply_leg",
      "quorum_wait"};
  return kNames[row];
}

double Ledger::total_ns() const {
  double t = 0;
  for (double v : ns) t += v;
  return t;
}

TraceReport analyze(const std::vector<Span>& spans, size_t n, size_t f,
                    uint32_t byzantine) {
  TraceReport rep;
  std::unordered_map<uint64_t, OpSpans> ops;
  double send_ns = 0;
  uint64_t sends = 0;
  double req_bytes = 0, rep_bytes = 0;
  uint64_t req_frames = 0, rep_frames = 0;
  double query_ns = 0, put_ns = 0, batch_ns = 0;
  uint64_t queries = 0, puts = 0, batches = 0, honest_msgs = 0;
  size_t sample_every = std::max<size_t>(1, spans.size() / 20000);
  size_t seen_sends = 0;

  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kIssue:
        if (s.op_id != 0) ops[s.op_id].issue = &s;
        break;
      case SpanKind::kCallback:
        if (s.op_id != 0) ops[s.op_id].callback = &s;
        break;
      case SpanKind::kSend:
        send_ns += static_cast<double>(s.end - s.start);
        ++sends;
        if (seen_sends++ % sample_every == 0) rep.frame_sizes.push_back(s.bytes);
        if (is_server(s.self)) {
          ops[s.op_id].replies.push_back(&s);
          rep_bytes += s.bytes;
          ++rep_frames;
        } else {
          ops[s.op_id].requests.push_back(&s);
          req_bytes += s.bytes;
          ++req_frames;
        }
        break;
      case SpanKind::kServerRecv:
        ops[s.op_id].server_recvs.push_back(&s);
        if (s.self == byzantine) break;
        ++honest_msgs;
        if (s.msg == msg(MsgType::kPutData)) {
          put_ns += static_cast<double>(s.self_ns());
          ++puts;
        } else if (s.msg == msg(MsgType::kQueryData) ||
                   s.msg == msg(MsgType::kQueryTag)) {
          query_ns += static_cast<double>(s.self_ns());
          ++queries;
        }
        break;
      case SpanKind::kClientRecv:
        ops[s.op_id].client_recvs.push_back(&s);
        break;
      case SpanKind::kBatchEnd:
        if (s.self == byzantine) break;
        batch_ns += static_cast<double>(s.end - s.start);
        ++batches;
        break;
    }
  }

  double issue_ns = 0, reply_ns = 0, req_wait = 0, rep_wait = 0;
  uint64_t counted = 0, replies = 0, rounds = 0, req_n = 0, rep_n = 0;
  double read_frames = 0, write_frames = 0;
  for (const auto& [op_id, op] : ops) {
    if (!op.issue || !op.callback) continue;
    bool is_read = false;
    bool is_write = false;
    for (const Span* s : op.requests) {
      is_read |= s->msg == msg(MsgType::kQueryData);
      is_write |= s->msg == msg(MsgType::kQueryTag);
    }
    if (is_read == is_write) continue;  // not a read or write of this bench
    ++counted;

    // The paper's round structure: n requests and n replies per round.
    std::set<std::tuple<uint32_t, uint32_t, uint8_t>> distinct;
    for (const Span* s : op.requests) distinct.emplace(s->self, s->peer, s->msg);
    for (const Span* s : op.replies) distinct.emplace(s->self, s->peer, s->msg);
    const size_t frames = op.requests.size() + op.replies.size();
    rep.retransmitted_frames += frames - distinct.size();
    const size_t expected = (is_read ? 2 : 4) * n;
    if (distinct.size() != expected) {
      if (rep.round_violations++ == 0) {
        rep.first_violation = std::string(is_read ? "read" : "write") +
                              " op " + std::to_string(op_id) + " used " +
                              std::to_string(distinct.size()) +
                              " distinct frames, expected " +
                              std::to_string(expected);
      }
    }
    if (is_read) {
      ++rep.reads;
      read_frames += static_cast<double>(distinct.size());
    } else {
      ++rep.writes;
      write_frames += static_cast<double>(distinct.size());
    }

    issue_ns += static_cast<double>(op.issue->self_ns());
    for (const Span* s : op.client_recvs) reply_ns += static_cast<double>(s->self_ns());
    replies += op.client_recvs.size();
    rounds += is_read ? 1 : 2;

    for (const Span* s : op.requests) {
      if (const Span* h = find_span(op.server_recvs, s->peer, s->msg)) {
        req_wait += static_cast<double>(h->start - s->start);
        ++req_n;
      }
    }
    for (const Span* s : op.replies) {
      for (const Span* c : op.client_recvs) {
        if (c->peer == s->self && c->msg == s->msg) {
          rep_wait += static_cast<double>(c->start - s->start);
          ++rep_n;
          break;
        }
      }
    }

    if (frames != distinct.size()) continue;  // retransmitted: path ambiguous
    double rows[kLedgerRows];
    const bool ok = is_read ? cut_path(op, kReadRounds, 1, rows)
                            : cut_path(op, kWriteRounds, 2, rows);
    if (!ok) continue;
    add_to(is_read ? rep.read_ledger : rep.write_ledger, rows);
    add_to(rep.all_ledger, rows);
  }

  rep.issue_us = mean(issue_ns, counted) / 1e3;
  rep.reply_us = mean(reply_ns, counted) / 1e3;
  rep.quorum_wait_us = rep.all_ledger.ns[kQuorumWait] / 1e3;
  rep.replies_per_op = mean(static_cast<double>(replies), counted);
  rep.useful_reply_ratio =
      replies == 0 ? 0
                   : static_cast<double>((n - f) * rounds) / static_cast<double>(replies);
  rep.send_us = mean(send_ns, sends) / 1e3;
  rep.request_bytes = mean(req_bytes, req_frames);
  rep.reply_bytes = mean(rep_bytes, rep_frames);
  rep.request_wait_us = mean(req_wait, req_n) / 1e3;
  rep.reply_wait_us = mean(rep_wait, rep_n) / 1e3;
  rep.query_us = mean(query_ns, queries) / 1e3;
  rep.put_us = mean(put_ns, puts) / 1e3;
  rep.batch_end_us = mean(batch_ns, batches) / 1e3;
  rep.msgs_per_batch = mean(static_cast<double>(honest_msgs), batches);
  rep.read_frames = mean(read_frames, rep.reads);
  rep.write_frames = mean(write_frames, rep.writes);
  return rep;
}

}  // namespace bftreg::e2e
