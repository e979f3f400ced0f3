// The paper's client protocols, one class per operation kind, run by the
// operation multiplexer.
//
// Each class is one in-flight operation of one protocol flavor: the
// request it sends, the witness/decode logic that tallies responses, and
// the fallback it completes with on timeout. Operation bookkeeping (ids,
// routing, deadlines, retransmission) lives in OpMux; everything here is a
// direct transcription of the corresponding figure of the paper.
// RegisterClient (client.h) picks the op for its ProtocolVariant.
//
// Why multiplexing preserves the paper's guarantees: the witness rule
// (f+1 identical reports pin an honest server, Lemma 1/Lemma 5) and the
// quorum bound (n-f responses, Lemma 6) are counted *per operation* over
// that operation's own QuorumTracker and response map. Concurrent
// operations of one client never share tallies -- they are
// indistinguishable, on the wire and in the proofs, from operations of
// that many distinct well-formed clients. The only cross-operation state
// is the monotone local pair (Fig. 2 line 1), which is per object and only
// ever advances, and the writer's tag floor (below), which exists to keep
// a client's concurrent writes on distinct tags.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "codec/mds_code.h"
#include "registers/op_mux.h"
#include "registers/quorum.h"
#include "registers/results.h"

namespace bftreg::registers {

/// Per-(client, object) state persisting across operations.
struct LocalState {
  /// The reader's monotone local pair (t_local, v_local) of Fig. 2 line 1.
  TaggedValue local;
  /// BCSR: the last successfully decoded value (Fig. 5's fallback).
  Bytes last_decoded;
  uint64_t decode_failures{0};
  /// Highest tag number this client has issued a write under for this
  /// object. A client pipelining writes to one object must not reuse a tag
  /// (two concurrent get-tag phases could otherwise both pick the same
  /// base); each write takes max(base.num, floor) + 1 and raises the floor.
  uint64_t last_issued_num{0};

  static LocalState initial(const SystemConfig& config) {
    return LocalState{TaggedValue{Tag::initial(), config.initial_value},
                      config.initial_value, 0, 0};
  }
};

using ReadCallback = std::function<void(const ReadResult&)>;
using WriteCallback = std::function<void(const WriteResult&)>;
using BatchReadCallback = std::function<void(const BatchReadResult&)>;

/// BSR one-shot read (Fig. 2).
///
/// A single get-data phase: QUERY-DATA to all servers, wait for n-f
/// DATA-RESPs, build P = the set of (tag, value) pairs reported identically
/// by at least f+1 servers (the "witness" rule of Section III: f+1 matching
/// reports pin at least one honest server behind the pair). Return the
/// highest pair of P if it beats the reader's local pair, else the local
/// pair (initially (t0, v0)). One round of client-to-server communication --
/// Definition 3's one-shot read, the paper's headline property.
class BsrReadOp final : public PendingOp {
 public:
  BsrReadOp(const SystemConfig& config, LocalState* state, ReadCallback cb)
      : state_(state), cb_(std::move(cb)), responded_(config.quorum()) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  void finish();
  void complete(bool fresh);

  LocalState* const state_;
  ReadCallback cb_;
  QuorumTracker responded_;
  std::map<ProcessId, TaggedValue> responses_;
};

/// BCSR one-shot coded read (Section IV, Fig. 5).
///
/// BCSR stores [n, k] MDS coded elements, k = n - 5f. The read collects n-f
/// coded elements and runs the error-correcting decoder Phi^{-1}; among the
/// received elements at most (n-f) - (n-3f) = 2f are erroneous (Byzantine-
/// corrupted or stale), which is exactly the decoder's budget (Lemma 4).
///
/// The emulation is single-writer; it tolerates multiple writers as long as
/// their writes are never concurrent (paper, footnote 2). Concurrent writes
/// may cause a decode failure, in which case the read falls back to the
/// reader's last decoded value (initially v0) -- consistent with
/// Definition 1(ii).
class BcsrReadOp final : public PendingOp {
 public:
  BcsrReadOp(const SystemConfig& config, const codec::MdsCode* code,
             LocalState* state, ReadCallback cb)
      : code_(code),
        state_(state),
        cb_(std::move(cb)),
        responded_(config.quorum()),
        elements_(config.n) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  void complete(bool fresh);

  const codec::MdsCode* const code_;
  LocalState* const state_;
  ReadCallback cb_;
  QuorumTracker responded_;
  /// Index = server position; empty = no response yet. Each aliases the
  /// frame it arrived in (RegisterMessage::value), pinning that receive
  /// buffer until the read completes.
  std::vector<Payload> elements_;
};

/// History-based regular read (Section III-C, option 1).
///
/// "We change line 9 of Algorithm 3 to send the entire history of writes (L)
/// instead of just the locally available (t, v) pair." The read stays
/// one-shot (a single QUERY-HISTORY round), but a server now *witnesses*
/// every pair in its history, not just its newest. In the Theorem 3
/// counterexample this is what rescues regularity: the four concurrent
/// writers each reached only one server with their PUT-DATA, so no new pair
/// has f+1 witnesses -- but the previously completed write is in every
/// honest server's history and wins, instead of the read sliding back to
/// v0. Server-to-reader bandwidth grows with the history length
/// (bench_regularity and bench_storage_comm quantify this against BSR).
class HistoryReadOp final : public PendingOp {
 public:
  HistoryReadOp(const SystemConfig& config, LocalState* state, ReadCallback cb)
      : state_(state), cb_(std::move(cb)), responded_(config.quorum()) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  void finish();
  void complete(bool fresh);

  LocalState* const state_;
  ReadCallback cb_;
  QuorumTracker responded_;
  std::map<TaggedValue, size_t> witnesses_;
};

/// Two-round regular read (Section III-C, option 2).
///
/// Phase get-tag: QUERY-TAG-HISTORY to all servers; wait for n-f
///   TAG-HISTORY-RESPs; the candidate tags are those present in at least
///   f+1 histories (so at least one honest server vouches the tag belongs
///   to a real write -- a fabricated Byzantine tag can collect at most f).
///   Choose the largest candidate t*.
/// Phase get-data: QUERY-DATA-AT(t*) to all servers; complete when f+1
///   servers return the identical pair (t*, v); return v.
///
/// Liveness note (documented deviation): servers answer QUERY-DATA-AT
/// lazily -- if they have not yet received t*'s PUT-DATA they reply
/// DATA-AT-MISSING and answer again once it arrives (reliable channels
/// guarantee it will, since the writer multicasts PUT-DATA to all n
/// servers). The single schedule this does not cover is a writer crashing
/// *mid-multicast* after reaching f+1 servers but before the message to
/// some honest server was placed in its channel; the paper's own Remark 1
/// identifies exactly this all-or-none gap as the price of dropping
/// reliable broadcast, and defers the full treatment to a technical
/// report. bench_regularity exercises the non-crashing schedules.
class TwoRoundReadOp final : public PendingOp {
 public:
  TwoRoundReadOp(const SystemConfig& config, LocalState* state, ReadCallback cb)
      : state_(state), cb_(std::move(cb)), responded_(config.quorum()) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  enum class Phase { kGetTag, kGetData };

  void on_tag_history(const ProcessId& from, const RegisterMessage& msg);
  void on_data_at(const ProcessId& from, const RegisterMessage& msg);
  void begin_get_data();
  void send_read_done();
  void complete(bool fresh);

  LocalState* const state_;
  ReadCallback cb_;
  Phase phase_{Phase::kGetTag};
  QuorumTracker responded_;
  // Bounded by one get-tag round's responses (<= n), not a value log.
  std::map<Tag, std::set<ProcessId>> tag_votes_;  // bftreg-lint: allow(unbounded-store)
  Tag target_{};
  std::map<Bytes, std::set<ProcessId>> value_votes_;
};

/// Write-back atomic read (library extension).
///
/// The paper stops at safety/regularity because *fast* MWMR atomicity is
/// impossible (Georgiou et al. [13], cited in Section VI) -- but slow
/// atomicity is not. This op applies the classic ABD write-back idea to
/// BSR: phase one is Fig. 2's witness-verified get-data; phase two writes
/// the chosen (tag, value) pair back to n-f servers before returning. The
/// write-back forces every later read's quorum to intersect it in >= f+1
/// honest servers, so no later read can return an older write: cross-reader
/// new/old inversion -- the one freedom regularity still allowed (see
/// checker/consistency.h) -- is gone. It costs what the impossibility
/// theorem says it must: two rounds, not one.
class WriteBackReadOp final : public PendingOp {
 public:
  WriteBackReadOp(const SystemConfig& config, LocalState* state, ReadCallback cb)
      : state_(state), cb_(std::move(cb)), responded_(config.quorum()) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  enum class Phase { kGetData, kWriteBack };

  void begin_write_back();
  void complete(bool fresh);

  LocalState* const state_;
  ReadCallback cb_;
  Phase phase_{Phase::kGetData};
  QuorumTracker responded_;
  std::map<ProcessId, TaggedValue> responses_;
  bool fresh_{false};
};

/// RB-baseline read (comparator, Kanjani et al. [15] style; servers in
/// rb_register.h).
///
/// QUERY-DATA to all servers; a server answers with its newest pair and
/// subscribes the read, pushing DATA-UPDATE for pairs it RB-delivers while
/// the read is in progress. The read completes once >= n-f servers
/// responded and some pair has f+1 matching vouchers with tag at least H,
/// the (f+1)-th largest per-server tag seen -- i.e. it waits out RB
/// propagation until a verifiably fresh pair emerges -- then sends
/// READ-DONE to end the subscription. Reports 2 rounds when it had to wait
/// for a push, 1 otherwise.
class RbReadOp final : public PendingOp {
 public:
  RbReadOp(const SystemConfig& config, LocalState* state, ReadCallback cb)
      : state_(state), cb_(std::move(cb)), responded_(config.quorum()) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  void note_pair(const ProcessId& from, TaggedValue pair);
  void try_complete();
  void complete(bool fresh);

  LocalState* const state_;
  ReadCallback cb_;
  QuorumTracker responded_;
  bool saw_update_{false};
  std::map<ProcessId, Tag> max_tag_;  // newest tag per server
  std::map<TaggedValue, std::set<ProcessId>> vouchers_;
};

/// Write (Fig. 1 / Fig. 4), shared by BSR, BCSR and the RB baseline.
///
///   get-tag:  QUERY-TAG to all servers, wait for n-f TAG-RESPs, select the
///             (f+1)-th highest tag t. The rank-(f+1) selection is what makes
///             the phase Byzantine-robust: at most f fabricated sky-high tags
///             can sit above it, so the selected tag is bounded by a tag an
///             honest server actually reported, yet it is >= the tag of every
///             complete preceding write (Lemma 2, Case 1).
///   put-data: (t.num + 1, w) with the new value to all servers -- replicated
///             when `code` is null, the per-server coded element Phi_i(v)
///             otherwise (Fig. 4 line 7) -- and wait for n-f ACKs.
///
/// The RB baseline's writer is protocol-identical; only its servers differ
/// (they ACK upon RB-delivery, see rb_register.h).
class WriteOp final : public PendingOp {
 public:
  WriteOp(const SystemConfig& config, const codec::MdsCode* code,
          LocalState* state, Bytes value, WriteCallback cb)
      : code_(code),
        state_(state),
        value_(std::move(value)),
        cb_(std::move(cb)),
        responded_(config.quorum()) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  enum class Phase { kGetTag, kPutData };

  void on_tag_resp(const ProcessId& from, const RegisterMessage& msg);
  void on_ack(const ProcessId& from, const RegisterMessage& msg);
  void send_put_data();
  void complete();

  const codec::MdsCode* const code_;  // null = replicated put
  LocalState* const state_;
  Bytes value_;
  WriteCallback cb_;
  Phase phase_{Phase::kGetTag};
  QuorumTracker responded_;
  std::vector<Tag> tags_;
  Tag write_tag_{};
};

/// Batched multi-object one-shot read (library extension).
///
/// A single one-shot round fetches the newest pair of MANY shared variables
/// at once -- the multi-get every key-value store serves. Each object gets
/// Fig. 2's treatment independently: per-object witness counting with the
/// f+1 threshold, per-object monotone local state. The batch costs one
/// round and one request/response per server however many objects it
/// names, and keeps the paper's safety guarantee per object, since the
/// witness argument of Lemma 1/Lemma 5 is object-wise. Duplicates in the
/// object list are allowed and answered once per occurrence.
class BatchReadOp final : public PendingOp {
 public:
  BatchReadOp(const SystemConfig& config, std::map<uint32_t, LocalState>* states,
              std::vector<uint32_t> objects, BatchReadCallback cb)
      : states_(states),
        objects_(std::move(objects)),
        cb_(std::move(cb)),
        responded_(config.quorum()) {}

 protected:
  void send_request() override;
  void on_response(const ProcessId& from, RegisterMessage msg) override;
  void on_timeout() override;

 private:
  void complete();

  /// Shared per-object local pairs; lazily initialized so batch reads and
  /// single-object reads through the same client stay mutually monotone.
  std::map<uint32_t, LocalState>* const states_;
  std::vector<uint32_t> objects_;
  BatchReadCallback cb_;
  QuorumTracker responded_;
  std::map<ProcessId, std::vector<TaggedValue>> responses_;
};

}  // namespace bftreg::registers
