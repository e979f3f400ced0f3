// The processes of one register deployment, built once for both
// experiment harnesses.
//
// A Deployment holds n servers -- honest RegisterServer, WAL-backed
// PersistentRegisterServer or RbServer, with Byzantine servers placed at
// chosen positions -- plus one RegisterClient per writer index and per
// reader index, all bound to one transport. SimCluster (simulator stepping
// and the execution recorder) and ThreadCluster (blocking calls on real
// threads) each own one and add only their drive layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adversary/byzantine_server.h"
#include "registers/registers.h"

namespace bftreg::storage {
class PersistentRegisterServer;
}

namespace bftreg::harness {

enum class Protocol {
  kBsr,         // Section III: replicated, one-shot reads, n >= 4f+1
  kBsrHistory,  // Section III-C option 1: regular, history reads
  kBsr2R,       // Section III-C option 2: regular, two-round reads
  kBcsr,        // Section IV: erasure-coded, one-shot reads, n >= 5f+1
  kRb,          // baseline: RB-based, n >= 3f+1
  kBsrWb,       // extension: write-back reads, atomic, two rounds
};

const char* to_string(Protocol p);

/// Minimum servers the protocol needs for f Byzantine faults.
size_t min_servers(Protocol p, size_t f);

class Deployment {
 public:
  /// Builds the servers and clients. With a non-empty `wal_dir`, honest
  /// servers are WAL-backed and log to `<wal_dir>/server-<i>.wal`.
  Deployment(Protocol protocol, registers::SystemConfig config,
             size_t num_writers, size_t num_readers, uint64_t seed,
             std::string wal_dir, net::Transport* transport);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Replaces server `index` with a Byzantine server. Before registration.
  void set_byzantine(size_t index, adversary::StrategyKind kind);
  void set_byzantine(size_t index, std::unique_ptr<adversary::Strategy> strategy);

  /// Registers every server and client with `net` (the simulator or a
  /// real-time network).
  template <class Net>
  void add_processes(Net& net) {
    for (size_t i = 0; i < servers_.size(); ++i) {
      net.add_process(ProcessId::server(static_cast<uint32_t>(i)),
                      servers_[i].get());
    }
    for (auto& w : writers_) net.add_process(w->id(), w.get());
    for (auto& r : readers_) net.add_process(r->id(), r.get());
  }

  /// Retires the WAL-backed server at `index` and builds its replacement,
  /// which replays the surviving WAL and refuses register traffic until
  /// begin_catch_up() completes. The retired object stays alive until
  /// teardown, since queued deliveries may still reference it; the caller
  /// swaps the replacement into its transport.
  storage::PersistentRegisterServer* recover_server(size_t index);

  registers::RegisterClient& writer(size_t index) { return *writers_[index]; }
  registers::RegisterClient& reader(size_t index) { return *readers_[index]; }
  size_t num_writers() const { return writers_.size(); }
  size_t num_readers() const { return readers_.size(); }

  /// The honest RegisterServer at `index`, or nullptr if Byzantine / RB.
  registers::RegisterServer* server(size_t index) { return honest_servers_[index]; }
  /// The WAL-backed server at `index`; nullptr when wal_dir is unset or the
  /// slot is Byzantine.
  storage::PersistentRegisterServer* persistent_server(size_t index) {
    return persistent_servers_[index];
  }
  /// Total bytes stored across honest RegisterServers (storage cost, E4).
  size_t total_stored_bytes() const;

 private:
  Bytes initial_for_server(size_t index) const;
  std::string wal_path(size_t index) const;

  const Protocol protocol_;
  const registers::SystemConfig config_;
  const uint64_t seed_;
  const std::string wal_dir_;
  net::Transport* const transport_;

  std::vector<Bytes> initial_elements_;  // BCSR: Phi_i(v0)
  std::vector<std::unique_ptr<net::IProcess>> servers_;
  std::vector<registers::RegisterServer*> honest_servers_;  // parallel, may hold nullptr
  std::vector<storage::PersistentRegisterServer*> persistent_servers_;  // parallel
  std::vector<std::unique_ptr<net::IProcess>> retired_;
  std::vector<std::unique_ptr<registers::RegisterClient>> writers_;
  std::vector<std::unique_ptr<registers::RegisterClient>> readers_;
};

}  // namespace bftreg::harness
