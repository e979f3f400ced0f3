#include "harness/deployment.h"

#include <cassert>
#include <utility>

#include "storage/persistent_server.h"

namespace bftreg::harness {

namespace {

/// The RegisterClient variant that speaks `p`.
registers::ProtocolVariant variant_of(Protocol p) {
  using registers::ProtocolVariant;
  switch (p) {
    case Protocol::kBsr: return ProtocolVariant::kBsr;
    case Protocol::kBsrHistory: return ProtocolVariant::kBsrHistory;
    case Protocol::kBsr2R: return ProtocolVariant::kBsrTwoRound;
    case Protocol::kBcsr: return ProtocolVariant::kBcsr;
    case Protocol::kRb: return ProtocolVariant::kRb;
    case Protocol::kBsrWb: return ProtocolVariant::kBsrWriteBack;
  }
  return ProtocolVariant::kBsr;
}

}  // namespace

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kBsr: return "BSR";
    case Protocol::kBsrHistory: return "BSR-history";
    case Protocol::kBsr2R: return "BSR-2R";
    case Protocol::kBcsr: return "BCSR";
    case Protocol::kRb: return "RB-baseline";
    case Protocol::kBsrWb: return "BSR-WB";
  }
  return "?";
}

size_t min_servers(Protocol p, size_t f) {
  switch (p) {
    case Protocol::kBcsr:
      return registers::bcsr_min_servers(f);
    case Protocol::kRb:
      return registers::rb_min_servers(f);
    default:
      return registers::bsr_min_servers(f);
  }
}

Deployment::Deployment(Protocol protocol, registers::SystemConfig config,
                       size_t num_writers, size_t num_readers, uint64_t seed,
                       std::string wal_dir, net::Transport* transport)
    : protocol_(protocol),
      config_(std::move(config)),
      seed_(seed),
      wal_dir_(std::move(wal_dir)),
      transport_(transport) {
  assert(config_.n >= 1 && config_.n >= config_.f);
  if (protocol_ == Protocol::kBcsr) {
    initial_elements_ = registers::bcsr_initial_elements(config_);
  }

  servers_.resize(config_.n);
  honest_servers_.assign(config_.n, nullptr);
  persistent_servers_.assign(config_.n, nullptr);
  for (size_t i = 0; i < config_.n; ++i) {
    const ProcessId pid = ProcessId::server(static_cast<uint32_t>(i));
    if (protocol_ == Protocol::kRb) {
      servers_[i] = std::make_unique<registers::RbServer>(
          pid, config_, transport_, initial_for_server(i));
    } else if (!wal_dir_.empty()) {
      auto srv = std::make_unique<storage::PersistentRegisterServer>(
          pid, config_, transport_, initial_for_server(i), wal_path(i));
      honest_servers_[i] = srv.get();
      persistent_servers_[i] = srv.get();
      servers_[i] = std::move(srv);
    } else {
      auto srv = std::make_unique<registers::RegisterServer>(
          pid, config_, transport_, initial_for_server(i));
      honest_servers_[i] = srv.get();
      servers_[i] = std::move(srv);
    }
  }

  registers::ClientOptions options;
  options.variant = variant_of(protocol_);
  for (size_t i = 0; i < num_writers; ++i) {
    writers_.push_back(std::make_unique<registers::RegisterClient>(
        ProcessId::writer(static_cast<uint32_t>(i)), config_, transport_,
        options));
  }
  for (size_t i = 0; i < num_readers; ++i) {
    readers_.push_back(std::make_unique<registers::RegisterClient>(
        ProcessId::reader(static_cast<uint32_t>(i)), config_, transport_,
        options));
  }
}

Deployment::~Deployment() = default;

Bytes Deployment::initial_for_server(size_t index) const {
  if (protocol_ == Protocol::kBcsr) return initial_elements_[index];
  return config_.initial_value;
}

std::string Deployment::wal_path(size_t index) const {
  return wal_dir_ + "/server-" + std::to_string(index) + ".wal";
}

void Deployment::set_byzantine(size_t index, adversary::StrategyKind kind) {
  set_byzantine(index, adversary::make_strategy(kind, seed_ + index));
}

void Deployment::set_byzantine(size_t index,
                               std::unique_ptr<adversary::Strategy> strategy) {
  assert(index < config_.n);
  adversary::ServerContext ctx;
  ctx.self = ProcessId::server(static_cast<uint32_t>(index));
  ctx.config = config_;
  ctx.transport = transport_;
  ctx.initial = initial_for_server(index);
  ctx.rng = Rng(seed_ * 7919 + index);
  servers_[index] = std::make_unique<adversary::ByzantineServer>(
      std::move(ctx), std::move(strategy));
  honest_servers_[index] = nullptr;
  persistent_servers_[index] = nullptr;
}

storage::PersistentRegisterServer* Deployment::recover_server(size_t index) {
  assert(!wal_dir_.empty() && "restart_server requires wal_dir");
  assert(persistent_servers_[index] != nullptr &&
         "restart_server only rejoins WAL-backed honest servers");
  retired_.push_back(std::move(servers_[index]));
  auto srv = std::make_unique<storage::PersistentRegisterServer>(
      ProcessId::server(static_cast<uint32_t>(index)), config_, transport_,
      initial_for_server(index), wal_path(index),
      storage::RecoveryPolicy::kCatchUpBeforeServe);
  auto* raw = srv.get();
  honest_servers_[index] = raw;
  persistent_servers_[index] = raw;
  servers_[index] = std::move(srv);
  return raw;
}

size_t Deployment::total_stored_bytes() const {
  size_t total = 0;
  for (const auto* srv : honest_servers_) {
    if (srv != nullptr) total += srv->stored_bytes();
  }
  return total;
}

}  // namespace bftreg::harness
