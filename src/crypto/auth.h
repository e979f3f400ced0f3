// Pairwise-key message authentication.
//
// `KeyRegistry` plays the role of the PKI / signature scheme [19] assumed by
// the paper: every ordered pair of processes shares a symmetric key derived
// from a master secret that the adversary does not know. `Authenticator`
// seals payloads with a MAC binding (sender, receiver, payload); a Byzantine
// server can replay or garble its *own* messages but cannot forge a MAC for
// a message claiming to come from another process.
//
// Two MACs, chosen by payload length alone: below kBulkMacBytes the tag is
// siphash24 under the channel's MAC key; at or above it, the 8-lane tree
// siphash24_lanes (siphash.h) under the channel's separate bulk key. A
// given length therefore has exactly one valid tag function, and the two
// functions never share a key (DESIGN.md, "Bulk-frame MAC").
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "crypto/siphash.h"

namespace bftreg::crypto {

using MacTag = uint64_t;

/// Payloads of at least this many bytes take the 8-lane bulk MAC. Below it,
/// one siphash24 chain beats the lanes' fixed cost (eight lane setups and
/// finalizations plus an 80-byte closing hash). Every host must pick the
/// same tag function for a length, so this is one constant, not one per
/// kernel. Measured on a 4-vCPU AVX-512 Xeon (docs/PERF.md), the AVX-512
/// kernel overtakes siphash24 near 150 B and AVX2 near 300 B; at 512 B they
/// are 1.9x and 1.4x faster. The scalar kernel only overtakes near 1 KiB,
/// so a host without AVX2 pays up to ~25 % more between 512 B and 1 KiB,
/// and gains above it.
inline constexpr size_t kBulkMacBytes = 512;

/// Derives the pairwise channel keys from a master secret. Stateless:
/// keys are recomputed on demand, so the registry is trivially copyable
/// and safe to share across threads.
class KeyRegistry {
 public:
  explicit KeyRegistry(uint64_t master_secret) : master_(master_secret) {}

  /// MAC key for the directed channel `from -> to` (payloads below
  /// kBulkMacBytes).
  SipHashKey channel_key(const ProcessId& from, const ProcessId& to) const;

  /// Bulk key for the same channel (payloads of kBulkMacBytes or more):
  /// derived under its own domain constants, independent of channel_key.
  SipHashKey bulk_key(const ProcessId& from, const ProcessId& to) const;

 private:
  uint64_t master_;
};

class Authenticator {
 public:
  explicit Authenticator(KeyRegistry registry) : registry_(registry) {}

  /// Derives and caches both channel keys for every ordered pair in `ids`.
  /// seal/verify on a cached pair then cost one MAC pass over the payload
  /// instead of three (two derivation passes plus the MAC) -- on
  /// the transports' delivery hot path that is most of the per-message
  /// crypto. Uncached pairs still derive on demand, so this is purely an
  /// optimization. NOT thread-safe: call before the authenticator is
  /// shared across threads (the transports call it at start()).
  void precompute(const std::vector<ProcessId>& ids);

  /// Sparse variant for hub-and-spoke topologies: caches only the ordered
  /// pairs that touch a hub (hub->peer and peer->hub for every hub x peer
  /// combination). A 10k-client fleet talking to a handful of servers then
  /// costs O(hubs * peers) derivations instead of the O(peers^2) of full
  /// precompute(); pairs never cached still derive on demand. Same
  /// thread-safety caveat as precompute().
  void precompute_pairs(const std::vector<ProcessId>& hubs,
                        const std::vector<ProcessId>& peers);

  /// MAC over (from, to, payload) under the from->to channel's keys:
  /// siphash24 below kBulkMacBytes, siphash24_lanes at or above it.
  MacTag seal(const ProcessId& from, const ProcessId& to, BytesView payload) const;

  /// True iff `mac` is a valid seal for (from, to, payload).
  bool verify(const ProcessId& from, const ProcessId& to, BytesView payload,
              MacTag mac) const;

 private:
  struct PairKey {
    ProcessId from;
    ProcessId to;
    friend bool operator==(const PairKey&, const PairKey&) = default;
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& p) const noexcept {
      const size_t h = std::hash<ProcessId>{}(p.from);
      return std::hash<ProcessId>{}(p.to) ^
             (h + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    }
  };

  struct ChannelKeys {
    SipHashKey mac;
    SipHashKey bulk;
  };

  ChannelKeys derive(const ProcessId& from, const ProcessId& to) const;

  KeyRegistry registry_;
  /// Immutable after precompute(); concurrent readers share it lock-free.
  std::unordered_map<PairKey, ChannelKeys, PairKeyHash> cache_;
};

}  // namespace bftreg::crypto
