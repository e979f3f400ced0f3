// Turns the spans of a traced window into per-layer self times, waits,
// counts, the paper's round-structure check and the blocking-path ledger.
#pragma once

#include <string>
#include <vector>

#include "trace.h"

namespace bftreg::e2e {

/// Rows of the ledger, in blocking-path order. Each traced operation's
/// interval from intended start to completion is cut along the path of
/// its first reply in every round, so the rows sum to the measured
/// latency exactly: queue (intended start -> read()/write() called),
/// issue (-> the frame to the first replier is sent; a write's second
/// round starts when its first completes), request leg (-> that server's
/// handler starts), server handling (-> its reply is sent; for a put, the
/// handler), batch_end (put handler end -> the ack leaves in
/// on_batch_end), reply leg (-> the client's handler starts), quorum wait
/// (-> the round completes on the n - f-th reply).
enum LedgerRow {
  kQueue,
  kIssue,
  kRequestLeg,
  kServer,
  kBatchEnd,
  kReplyLeg,
  kQuorumWait,
  kLedgerRows
};
const char* ledger_row_name(int row);

struct Ledger {
  uint64_t ops{0};
  double ns[kLedgerRows]{};  // mean per op
  double total_ns() const;
};

struct TraceReport {
  // client.*
  double issue_us{0};        // self time of read()/write(), per op
  double reply_us{0};        // self time of on_message, summed per op
  double quorum_wait_us{0};  // first reply -> completion, summed per op
  double replies_per_op{0};
  double useful_reply_ratio{0};  // (n - f) * rounds / replies
  // net.*
  double send_us{0};  // per frame
  double request_wait_us{0};
  double reply_wait_us{0};
  // server.* (honest servers only)
  double query_us{0};
  double put_us{0};
  double batch_end_us{0};
  double msgs_per_batch{0};
  // the paper's round structure, over completed traced operations
  uint64_t reads{0};
  uint64_t writes{0};
  double read_frames{0};   // distinct frames per read (expect 2n)
  double write_frames{0};  // distinct frames per write (expect 4n)
  uint64_t round_violations{0};
  uint64_t retransmitted_frames{0};
  std::string first_violation;
  Ledger read_ledger;
  Ledger write_ledger;
  Ledger all_ledger;
  /// Payload sizes of a sample of traced frames (for crypto.seal_ns).
  std::vector<uint32_t> frame_sizes;
  double request_bytes{0};  // mean client -> server payload
  double reply_bytes{0};    // mean server -> client payload
};

/// `byzantine` is the packed id of the adversarial server (excluded from
/// the server.* figures, kept on the blocking path).
TraceReport analyze(const std::vector<Span>& spans, size_t n, size_t f,
                    uint32_t byzantine);

}  // namespace bftreg::e2e
