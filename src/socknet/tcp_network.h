// TCP loopback transport: the protocols over a real network stack.
//
// Third implementation of net::Transport (after the deterministic
// simulator and the in-memory thread runtime): processes exchange
// length-prefixed, MAC-sealed frames through the kernel. Nothing
// protocol-level changes -- the same state machines run unmodified --
// which is the point: the paper's algorithms assume only reliable
// authenticated point-to-point channels, and TCP + the MAC layer provides
// exactly that.
//
// Thread model (numbers in docs/PERF.md, "Run-to-completion delivery"):
// N event-loop shards (runtime/event_loop.h) run everything -- sockets,
// handlers, tasks and timers -- so the thread count is N regardless of how
// many endpoints are registered. An endpoint's home shard owns its
// listener, every connection it dialed or accepted, its timers, and its
// delivery context 0; context i of a sharded process runs on shard
// (home + i) % N. A frame parsed on the shard that owns its context is
// handled inline, run to completion; only frames for a context on another
// shard cross threads, through that shard's MPSC inbox.
//
//   Outbound  send() seals a 22-byte header, appends (header, payload) to a
//             bounded per-destination queue and schedules a flush on the
//             home shard -- deferred to the end of the current turn when
//             the sender already runs there, posted otherwise. No syscall,
//             no payload concatenation, no blocking I/O under a lock. The shard drains whole queues with
//             sendmsg + iovec coalescing; a short write arms EPOLLOUT and
//             the next readiness wake resumes mid-frame (wr_offset), so no
//             thread ever parks in a socket call. A full queue sheds the
//             frame (metrics().messages_dropped); client deadlines
//             (registers::OpMux) retransmit.
//
//   Inbound   readiness-driven reads into large refcounted chunks, frames
//             parsed in place, payload *views* aliasing the chunk
//             (common/buffer.h) delivered with zero payload copies. Each
//             parsed envelope is handled inline when its delivery context
//             lives on the parsing shard, and otherwise published into the
//             owning shard's lock-free MPSC inbox (runtime/mailbox.h).
//
//   Duplex    connections are full-duplex: the first authenticated frame
//             on an accepted connection names the peer, and the endpoint
//             *adopts* it as the outbound route to that peer. Replies to a
//             dialed-in client flow back over the client's own connection,
//             so a server holding F clients costs F sockets, not 2F, and
//             clients need no listening socket at all (add_process with
//             listen=false).
//
// Scope: single-host loopback (the offline build environment has no
// external network). The wire format is position-independent, so pointing
// the address book at remote hosts is a config change, not a code change.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "common/types.h"
#include "crypto/auth.h"
#include "net/transport.h"
#include "runtime/event_loop.h"

namespace bftreg::socknet {

struct TcpConfig {
  uint64_t master_secret{0x5eC4e7B17e5eCBA5ULL};
  /// Listening address (loopback only in this build).
  const char* host{"127.0.0.1"};
  /// Transport sizing: event-loop shards, outbox cap, receive chunk/pool
  /// sizes (mailbox_shards is not used here). Zero fields resolve to hardware defaults
  /// (net::TransportOptions::resolved). SystemConfig::Builder validates
  /// and carries the same struct for deployments built from a config.
  net::TransportOptions options{};
};

class TcpNetwork final : public net::Transport {
 public:
  explicit TcpNetwork(TcpConfig config);
  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Registers a process and records it in the address book. Call before
  /// start(). With `listen` (the default) the endpoint binds a listening
  /// socket on an ephemeral port; `listen=false` registers a dial-out-only
  /// endpoint (a client): it reaches servers by connecting and receives
  /// replies over its own connections, so a 10k-client fleet does not pay
  /// 10k listening sockets. Sends *to* a listen-less endpoint are shed
  /// (metrics().messages_dropped) unless a connection from it was adopted.
  void add_process(const ProcessId& pid, net::IProcess* process,
                   bool listen = true);

  /// Starts the loop shards and delivers on_start() to every process (in
  /// its context 0, like the other runtimes).
  void start();

  /// Closes sockets and joins all threads.
  ///
  /// Contract: idempotent, and a documented no-op before start() -- both
  /// reduce to "only the winner of the `running_` exchange performs the
  /// shutdown"; later, concurrent, or premature calls return immediately.
  /// Must be called from an *external* thread (the owner or any client
  /// thread), never from a loop shard: stop() joins those threads and
  /// would self-deadlock. Asserted in debug builds.
  void stop();

  /// The port a process listens on (0 for listen-less endpoints).
  uint16_t port_of(const ProcessId& pid) const;

  // --- net::Transport -----------------------------------------------------
  void send_payload(const ProcessId& from, const ProcessId& to,
                    Payload payload) override;
  TimeNs now() const override;
  void post(const ProcessId& pid, std::function<void()> fn) override;
  void post_after(const ProcessId& pid, TimeNs delta,
                  std::function<void()> fn) override;
  net::NetworkMetrics& metrics() override { return metrics_; }

  // --- TestHooks ------------------------------------------------------------

  /// The one test/diagnostic surface of the transport (replacing the old
  /// debug_* grab-bag). Everything here is observation or fault injection
  /// for tests and the harness; production code must not call it. All
  /// methods are safe from any external thread while the network runs.
  class TestHooks {
   public:
    /// Receive-path accounting for the zero-copy guarantee: the only
    /// payload bytes ever copied on delivery are partial-frame tails
    /// carried across a chunk roll (bounded by one chunk, independent of
    /// payload size).
    struct RecvStats {
      uint64_t chunks_allocated{0};
      uint64_t tail_bytes_copied{0};
      uint64_t payload_bytes_delivered{0};
    };

    /// Write-path accounting for the EPOLLOUT state machine: how often a
    /// short/blocked write armed EPOLLOUT, how many readiness wakes
    /// resumed a flush, and how many sendmsg calls transmitted less than
    /// requested (the partial-write resume path).
    struct SendStats {
      uint64_t epollout_arms{0};
      uint64_t epollout_wakes{0};
      uint64_t partial_writes{0};
    };

    RecvStats recv_stats(const ProcessId& pid) const;
    SendStats send_stats(const ProcessId& pid) const;

    /// Bytes currently queued from `from` toward `to` (headers +
    /// payloads), counting both unflushed frames and frames waiting on
    /// socket writability.
    size_t outbox_bytes(const ProcessId& from, const ProcessId& to) const;

    /// The loop shard that owns `pid`'s listener, connections, timers and
    /// delivery context 0 (so context 0's handlers run on its thread). Pure
    /// function of (pid, loop_shards): tests assert the mapping is stable
    /// across calls and across instances.
    size_t loop_shard_of(const ProcessId& pid) const;

    /// Fault injection: shuts down every connection accepted by `pid`'s
    /// endpoint (simulates a peer's socket dying mid-stream; senders must
    /// reconnect).
    void shutdown_inbound(const ProcessId& pid);

    /// Pauses/resumes flushing of `pid`'s outbound queues so tests can
    /// fill the bounded outbox deterministically. stop() overrides a
    /// pause.
    void pause_writes(const ProcessId& pid, bool paused);

    /// Pauses/resumes reading on every connection delivering to `pid`
    /// (disarms EPOLLIN). The peer's kernel buffers then fill and its
    /// writes go short -- the deterministic way to exercise the EPOLLOUT
    /// partial-write path.
    void pause_reads(const ProcessId& pid, bool paused);

   private:
    friend class TcpNetwork;
    explicit TestHooks(TcpNetwork& net) : net_(net) {}
    TcpNetwork& net_;
  };

  TestHooks test_hooks() { return TestHooks(*this); }

 private:
  struct Endpoint;
  struct Conn;

  /// Frame header: [u32 length][from pid (5)][to pid (5)][u64 mac]; length
  /// counts everything after itself (addressing + mac + payload).
  static constexpr size_t kHeaderSize = 4 + 5 + 5 + 8;

  /// One sealed outbound frame: fixed header + refcounted payload view.
  /// Flushes scatter-gather both with sendmsg, so the payload is never
  /// concatenated into a contiguous frame -- and a payload fanned out to n
  /// peers is shared by all n frames, not copied.
  struct OutFrame {
    std::array<uint8_t, kHeaderSize> header;
    Payload payload;
  };

  /// Per-destination outbound state (ep->out_mu). `conn` is a routing hint
  /// only: it may be dereferenced solely on the endpoint's home shard.
  struct OutQueue {
    std::deque<OutFrame> pending;   // sealed, not yet handed to a conn
    size_t queued_bytes{0};  // bytes parked in `pending`; claimed frames
                           // leave the cap at hand-off to the conn
    bool flush_scheduled{false};
    Conn* conn{nullptr};
    int failures{0};  // consecutive conn failures; 2 drops the backlog
  };

  /// Refcounted receive chunk; delivered payloads alias it via
  /// Payload(shared_ptr, view) and keep it alive past the reader's reuse.
  struct Chunk {
    explicit Chunk(size_t capacity)
        : data(new uint8_t[capacity]), cap(capacity) {}
    std::unique_ptr<uint8_t[]> data;
    size_t cap;
    size_t filled{0};
  };

  /// Bounded free list of receive chunks. Shared-ptr'd independently of the
  /// Endpoint because delivered payloads (which return chunks here from
  /// their deleter) may outlive the network object.
  struct ChunkPool {
    explicit ChunkPool(size_t cap) : max_bytes(cap) {}
    const size_t max_bytes;
    Mutex mu;
    std::vector<std::unique_ptr<Chunk>> free_list GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu){0};
  };

  /// Per-connection parse state (owning shard thread private).
  struct ConnState {
    std::shared_ptr<Chunk> chunk;
    size_t parse_pos{0};
  };

  // --- cross-thread entry points -------------------------------------------
  void enqueue(Endpoint* ep, std::function<void()> fn);
  void deliver(Endpoint* ep, net::Envelope env);
  Endpoint* find(const ProcessId& pid);
  const Endpoint* find(const ProcessId& pid) const;
  bool on_internal_thread() const;
  /// Schedules a flush of ep->out[to] on its home shard if none is
  /// pending. Never called with out_mu held (posting is a syscall).
  void schedule_flush(Endpoint* ep, const ProcessId& to);
  /// Runs flush_task on ep's home shard (the caller set flush_scheduled).
  void run_flush(Endpoint* ep, const ProcessId& to);

  // --- home-shard helpers (run on the shard that owns the endpoint) --------
  void flush_task(Endpoint* ep, const ProcessId& to);
  Conn* dial(Endpoint* ep, const ProcessId& to);
  void register_conn(std::unique_ptr<Conn> conn);
  void accept_ready(Endpoint* ep);
  void on_conn_event(Conn* c, uint32_t events);
  bool read_conn(Conn* c);
  bool parse_frames(Conn* c);
  bool ensure_recv_space(Endpoint* ep, ConnState& st);
  static std::shared_ptr<Chunk> acquire_chunk(Endpoint* ep, size_t min_cap);
  bool try_write(Conn* c);
  ssize_t write_once(Conn* c, size_t* sent_frame_bytes);
  void update_conn_events(Conn* c);
  /// Closes `c`, salvages or sheds its backlog, and erases it from the
  /// shard registry. `c` is invalid after the call; callers must return.
  void conn_failed(Conn* c);
  void drain_shard(size_t shard);

  crypto::Authenticator auth_;
  TcpConfig config_;
  net::TransportOptions opts_;  // config_.options.resolved()
  net::NetworkMetrics metrics_;
  std::map<ProcessId, std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;

  runtime::EventLoop loop_;
  /// shard index -> conns owned by that shard's thread. The vector itself
  /// is immutable after construction; element s is touched only on shard
  /// s's loop thread (and in stop(), after the join).
  std::vector<std::map<int, std::unique_ptr<Conn>>> shard_conns_;
};

}  // namespace bftreg::socknet
