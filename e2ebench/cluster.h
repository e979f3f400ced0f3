// The benchmark's workloads and the cluster that runs one of them: n
// servers (one Byzantine, running FabricateStrategy) and a handful of
// RegisterClients over a real transport, optionally behind the tracing
// decorators.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "adversary/byzantine_server.h"
#include "loadgen.h"
#include "registers/registers.h"
#include "runtime/thread_network.h"
#include "socknet/tcp_network.h"
#include "trace.h"
#include "workload.h"

namespace bftreg::e2e {

enum class NetKind : uint8_t { kTcp, kThreads };

struct WorkloadSpec {
  const char* name;
  /// BCSR (coded, SWMR) instead of BSR (replicated, MWMR).
  bool coded;
  NetKind net;
  size_t n;
  size_t f;
  /// Index of the server replaced by a FabricateStrategy adversary.
  uint32_t byzantine;
  size_t value_size;
  size_t keys;
  bench::YcsbMix mix;
  size_t readers;
  size_t writers;
  Limits limits;
  /// Fixed offered rate (ops/s) at which latency is reported: about half
  /// of max_ops_per_s on the reference host, and never re-derived, so a
  /// later change is compared at the same load.
  double nominal_rate;
};

/// Every workload the benchmark knows; names match BENCHMARK.json.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

class Cluster {
 public:
  Cluster(const WorkloadSpec& spec, uint64_t seed, bool traced);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void start();
  /// Stops the transport; idempotent. Protocol objects stay readable.
  void stop();

  net::Transport& transport() { return *net_; }
  const registers::SystemConfig& config() const { return config_; }

  /// Writers first (writer(0..w-1)), then readers (reader(0..r-1)).
  registers::RegisterClient& writer(size_t i) { return clients_[i]; }
  registers::RegisterClient& reader(size_t i) {
    return clients_[spec_.writers + i];
  }
  std::deque<registers::RegisterClient>& clients() { return clients_; }

  /// Sum of RegisterServer::stored_bytes() over the honest servers.
  size_t stored_bytes() const;
  /// TcpNetwork::TestHooks send stats summed over every endpoint (zero on
  /// the thread transport).
  uint64_t partial_writes() const;
  uint64_t epollout_wakes() const;

 private:
  std::vector<ProcessId> all_pids() const;

  const WorkloadSpec& spec_;
  registers::SystemConfig config_;
  std::unique_ptr<socknet::TcpNetwork> tcp_;
  std::unique_ptr<runtime::ThreadNetwork> threads_;
  net::Transport* net_{nullptr};
  /// What protocol objects send through: the network, or its tracing
  /// decorator.
  std::unique_ptr<TracingTransport> tracing_;
  std::vector<std::unique_ptr<registers::RegisterServer>> servers_;
  std::unique_ptr<adversary::ByzantineServer> byzantine_;
  std::deque<registers::RegisterClient> clients_;
  std::vector<std::unique_ptr<TracingProcess>> wrappers_;
  bool running_{false};
};

}  // namespace bftreg::e2e
