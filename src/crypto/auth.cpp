#include "crypto/auth.h"

#include <cstring>

namespace bftreg::crypto {

namespace {

/// put_process_id's wire layout (role u8, index u32 LE) packed on the
/// stack; key derivation must stay byte-identical to the serde encoding so
/// MACs agree across every code path that derives a channel key.
void pack_pair(const ProcessId& from, const ProcessId& to, uint8_t out[10]) {
  out[0] = static_cast<uint8_t>(from.role);
  out[1] = static_cast<uint8_t>(from.index);
  out[2] = static_cast<uint8_t>(from.index >> 8);
  out[3] = static_cast<uint8_t>(from.index >> 16);
  out[4] = static_cast<uint8_t>(from.index >> 24);
  out[5] = static_cast<uint8_t>(to.role);
  out[6] = static_cast<uint8_t>(to.index);
  out[7] = static_cast<uint8_t>(to.index >> 8);
  out[8] = static_cast<uint8_t>(to.index >> 16);
  out[9] = static_cast<uint8_t>(to.index >> 24);
}

/// Domain-separated derivation: key parts are SipHash of the endpoint ids
/// under master-derived keys. The adversary never sees `master`.
SipHashKey derive_key(uint64_t master, uint64_t domain0, uint64_t domain1,
                      const ProcessId& from, const ProcessId& to) {
  uint8_t ids[10];
  pack_pair(from, to, ids);
  const BytesView view(ids, sizeof(ids));
  return SipHashKey{siphash24(SipHashKey{master, domain0}, view),
                    siphash24(SipHashKey{master, domain1}, view)};
}

}  // namespace

SipHashKey KeyRegistry::channel_key(const ProcessId& from, const ProcessId& to) const {
  return derive_key(master_, 0x6b65792d64657230ULL,  // "key-der0"
                    0x6b65792d64657231ULL, from, to);  // "key-der1"
}

SipHashKey KeyRegistry::bulk_key(const ProcessId& from, const ProcessId& to) const {
  return derive_key(master_, 0x626c6b2d64657230ULL,  // "blk-der0"
                    0x626c6b2d64657231ULL, from, to);  // "blk-der1"
}

Authenticator::ChannelKeys Authenticator::derive(const ProcessId& from,
                                                 const ProcessId& to) const {
  return ChannelKeys{registry_.channel_key(from, to), registry_.bulk_key(from, to)};
}

void Authenticator::precompute(const std::vector<ProcessId>& ids) {
  cache_.reserve(ids.size() * ids.size());
  for (const ProcessId& from : ids) {
    for (const ProcessId& to : ids) {
      cache_.emplace(PairKey{from, to}, derive(from, to));
    }
  }
}

void Authenticator::precompute_pairs(const std::vector<ProcessId>& hubs,
                                     const std::vector<ProcessId>& peers) {
  cache_.reserve(cache_.size() + 2 * hubs.size() * peers.size());
  for (const ProcessId& hub : hubs) {
    for (const ProcessId& peer : peers) {
      cache_.emplace(PairKey{hub, peer}, derive(hub, peer));
      cache_.emplace(PairKey{peer, hub}, derive(peer, hub));
    }
  }
}

MacTag Authenticator::seal(const ProcessId& from, const ProcessId& to,
                           BytesView payload) const {
  const bool bulk = payload.size() >= kBulkMacBytes;
  if (!cache_.empty()) {
    auto it = cache_.find(PairKey{from, to});
    if (it != cache_.end()) {
      return bulk ? siphash24_lanes(it->second.bulk, payload)
                  : siphash24(it->second.mac, payload);
    }
  }
  // Uncached pair: derive only the key this payload needs.
  return bulk ? siphash24_lanes(registry_.bulk_key(from, to), payload)
              : siphash24(registry_.channel_key(from, to), payload);
}

bool Authenticator::verify(const ProcessId& from, const ProcessId& to,
                           BytesView payload, MacTag mac) const {
  return seal(from, to, payload) == mac;
}

}  // namespace bftreg::crypto
