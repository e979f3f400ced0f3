#include "cluster.h"

#include "registers/bcsr.h"

namespace bftreg::e2e {

namespace {

constexpr bench::YcsbMix kReadMostly{"read99", 0.99, 0.01, 0.0};

// Latency limits on the p99 (the highest percentile a window supports,
// see loadgen.h). On the reference host (4 vCPUs, 8 transport threads
// plus the generator) scheduler and wake-up stalls put the read p99 at
// 2.5-7.5 ms even at 5k ops/s, where the p50 is ~250 us, so a 1 ms limit
// is never met. The limits sit where the p99 curve turns vertical instead:
// max_ops_per_s is then the rate the cluster sustains before queueing
// takes over, and moves when any layer on the blocking path gets cheaper.
constexpr Limits kLimits{50'000.0, 100'000.0, 0.001};

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // The paper's motivating case: one-shot reads of small values, so
      // cost is per frame (2n = 10 frames of ~60 B per read). Exercises
      // socknet, crypto, the mailbox, the server's seqlock read path and
      // the client's witness/quorum logic; store apply and codec idle.
      {"bsr-read-tcp", false, NetKind::kTcp, 5, 1, 4, 16, 100000, kReadMostly,
       3, 1, kLimits, 15000.0},
      // Two-round MWMR writes of 1 KiB values racing on hot keys: server
      // apply, the on_batch_end publish/ack flush and the store do most
      // of the work. In-memory transport, so a socknet change predicts no
      // change here while a store or server change shows up first.
      {"bsr-write-threads", false, NetKind::kThreads, 5, 1, 4, 1024, 10000,
       bench::kYcsbA, 2, 2, kLimits, 25000.0},
      // The only workload where the codec matters: RS encode on writes,
      // decode on every read, 64 KiB values so transport cost is set by
      // bytes, not frames -- the no-change prediction for per-frame work.
      {"bcsr-coded-tcp", true, NetKind::kTcp, 8, 1, 7, 64 * 1024, 256,
       bench::kYcsbB, 3, 1, kLimits, 2500.0},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Cluster::Cluster(const WorkloadSpec& spec, uint64_t seed, bool traced)
    : spec_(spec) {
  // Fig. 3 store policy with a bounded list L; every other field keeps its
  // library default so a changed default shows up here.
  auto builder = registers::SystemConfig::builder()
                     .n(spec.n)
                     .f(spec.f)
                     .store_policy(registers::StorePolicy::kMaxOnly)
                     .max_history(1);
  auto built = spec.coded ? builder.build_for_bcsr() : builder.build_for_bsr();
  config_ = built.value();

  if (spec.net == NetKind::kTcp) {
    tcp_ = std::make_unique<socknet::TcpNetwork>(socknet::TcpConfig{});
    net_ = tcp_.get();
  } else {
    runtime::RuntimeConfig rc;
    rc.seed = seed;
    threads_ = std::make_unique<runtime::ThreadNetwork>(std::move(rc));
    net_ = threads_.get();
  }
  net::Transport* proto = net_;
  if (traced) {
    tracing_ = std::make_unique<TracingTransport>(*net_);
    proto = tracing_.get();
  }

  auto add = [&](const ProcessId& pid, net::IProcess* p, bool server) {
    if (traced) {
      wrappers_.push_back(std::make_unique<TracingProcess>(*p, pid, server));
      p = wrappers_.back().get();
    }
    if (tcp_) {
      tcp_->add_process(pid, p, /*listen=*/server);
    } else {
      threads_->add_process(pid, p);
    }
  };

  const std::vector<Bytes> initial =
      spec.coded ? registers::bcsr_initial_elements(config_)
                 : std::vector<Bytes>(spec.n, config_.initial_value);
  for (uint32_t i = 0; i < spec.n; ++i) {
    const ProcessId pid = ProcessId::server(i);
    if (i == spec.byzantine) {
      adversary::ServerContext ctx;
      ctx.self = pid;
      ctx.config = config_;
      ctx.transport = proto;
      ctx.initial = initial[i];
      ctx.rng = Rng(seed * 7919 + i);
      byzantine_ = std::make_unique<adversary::ByzantineServer>(
          std::move(ctx), std::make_unique<adversary::FabricateStrategy>());
      add(pid, byzantine_.get(), true);
      continue;
    }
    servers_.push_back(std::make_unique<registers::RegisterServer>(
        pid, config_, proto, initial[i]));
    add(pid, servers_.back().get(), true);
  }

  // Deadlines surface a shed frame as a retransmission and a lost
  // operation as timed_out instead of a hang; generous enough that an
  // overloaded search step drains rather than retransmits.
  registers::ClientOptions copts;
  copts.variant = spec.coded ? registers::ProtocolVariant::kBcsr
                             : registers::ProtocolVariant::kBsr;
  copts.retry.timeout = 2'000'000'000;
  copts.retry.max_retries = 1;
  for (uint32_t i = 0; i < spec.writers; ++i) {
    clients_.emplace_back(ProcessId::writer(i), config_, proto, copts);
  }
  for (uint32_t i = 0; i < spec.readers; ++i) {
    clients_.emplace_back(ProcessId::reader(i), config_, proto, copts);
  }
  for (auto& c : clients_) add(c.id(), &c, false);
}

Cluster::~Cluster() { stop(); }

void Cluster::start() {
  if (tcp_) {
    tcp_->start();
  } else {
    threads_->start();
  }
  running_ = true;
}

void Cluster::stop() {
  if (!running_) return;
  running_ = false;
  if (tcp_) {
    tcp_->stop();
  } else {
    threads_->stop();
  }
}

size_t Cluster::stored_bytes() const {
  size_t total = 0;
  for (const auto& s : servers_) total += s->stored_bytes();
  return total;
}

std::vector<ProcessId> Cluster::all_pids() const {
  std::vector<ProcessId> out;
  for (uint32_t i = 0; i < spec_.n; ++i) out.push_back(ProcessId::server(i));
  for (const auto& c : clients_) out.push_back(c.id());
  return out;
}

uint64_t Cluster::partial_writes() const {
  if (!tcp_) return 0;
  uint64_t total = 0;
  for (const auto& pid : all_pids()) {
    total += tcp_->test_hooks().send_stats(pid).partial_writes;
  }
  return total;
}

uint64_t Cluster::epollout_wakes() const {
  if (!tcp_) return 0;
  uint64_t total = 0;
  for (const auto& pid : all_pids()) {
    total += tcp_->test_hooks().send_stats(pid).epollout_wakes;
  }
  return total;
}

}  // namespace bftreg::e2e
