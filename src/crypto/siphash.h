// SipHash-2-4 keyed pseudo-random function, plus an 8-lane tree of it for
// bulk frames.
//
// The paper's channels "provide message authentication using digital
// signatures" (Section II-A) so that Byzantine servers cannot spread
// misinformation about a message's sender. The property the proofs actually
// use is unforgeability of sender identity; a keyed MAC over pairwise shared
// keys provides exactly that in our closed simulated world (see DESIGN.md,
// substitution table). SipHash is the standard short-input MAC for this job.
//
// SipHash is one serial chain of 64-bit adds, rotates and xors, so a single
// instance runs at ~1.7 GB/s however wide the CPU is. `siphash24_lanes`
// runs eight independent SipHash-2-4 instances side by side over a frame
// and hashes their tags together (the construction and its security
// argument are in DESIGN.md, "Bulk-frame MAC"):
//
//   lane j (0..7) = SipHash(key, [j] ++ word j of every 64-byte block)
//   tag           = SipHash(key, [~0] ++ lane tags ++ [len] ++ tail)
//
// where words are 64-bit little-endian and the tail is the last len % 64
// bytes. The eight lanes map one-to-one onto the 64-bit lanes of one
// AVX-512 register (two AVX2 registers), so a 64-byte block is one vector
// load per step. Three kernels, all bit-identical:
//
//   kScalar  portable; two lanes interleaved per pass over the blocks.
//            Past ~1 KiB it beats one siphash24 pass; between the bulk
//            threshold and that point its fixed cost makes it slower
//            (auth.h, kBulkMacBytes).
//   kAvx2    two 4-lane ymm states, rotates built from shifts and shuffles.
//   kAvx512  one 8-lane zmm state with native 64-bit rotates.
//
// siphash24_lanes() dispatches to the widest kernel the CPU supports,
// detected once; siphash24_lanes_as() runs a named kernel (tests, bench).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace bftreg::crypto {

struct SipHashKey {
  uint64_t k0{0};
  uint64_t k1{0};

  friend bool operator==(const SipHashKey&, const SipHashKey&) = default;
};

/// SipHash-2-4 of `len` bytes under `key`.
uint64_t siphash24(const SipHashKey& key, const void* data, size_t len);

inline uint64_t siphash24(const SipHashKey& key, BytesView data) {
  return siphash24(key, data.data(), data.size());
}

enum class LaneKernel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar" / "avx2" / "avx512".
const char* lane_kernel_name(LaneKernel k);

/// True iff this CPU can run kernel `k`.
bool lane_kernel_available(LaneKernel k);

/// The kernel siphash24_lanes() dispatches to on this CPU.
LaneKernel best_lane_kernel();

/// The 8-lane SipHash-2-4 tree of `data` under `key`.
uint64_t siphash24_lanes(const SipHashKey& key, BytesView data);

/// Same tag through one specific kernel. Precondition: lane_kernel_available(k).
uint64_t siphash24_lanes_as(LaneKernel k, const SipHashKey& key,
                            const void* data, size_t len);

}  // namespace bftreg::crypto
