// SipHash-2-4 (siphash.h): the one-chain siphash24 and the 8-lane tree's
// kernels and dispatch.
#include "crypto/siphash.h"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define BFTREG_SIP_X86 1
#include <immintrin.h>
#else
#define BFTREG_SIP_X86 0
#endif

namespace bftreg::crypto {

namespace {

constexpr size_t kLanes = 8;
constexpr size_t kBlock = kLanes * sizeof(uint64_t);

// SipHash's initialization constants ("somepseudorandomlygeneratedbytes").
constexpr uint64_t kInit0 = 0x736f6d6570736575ULL;
constexpr uint64_t kInit1 = 0x646f72616e646f6dULL;
constexpr uint64_t kInit2 = 0x6c7967656e657261ULL;
constexpr uint64_t kInit3 = 0x7465646279746573ULL;

/// The closing SipHash block of every lane. A lane hashes the word j plus
/// one word per block, always a whole number of words, so the block is
/// just the length byte: (8 * (nblocks + 1)) mod 256 in the top byte.
uint64_t lane_length_block(size_t nblocks) {
  return static_cast<uint64_t>(8 * (nblocks + 1)) << 56;
}

// The SipRound over generic add / xor / rotate-left operations, shared by
// every kernel so the round order is written once.
#define BFTREG_SIPROUND(ADD, XOR, ROL, v0, v1, v2, v3) \
  do {                                                  \
    v0 = ADD(v0, v1);                                   \
    v1 = ROL(v1, 13);                                   \
    v1 = XOR(v1, v0);                                   \
    v0 = ROL(v0, 32);                                   \
    v2 = ADD(v2, v3);                                   \
    v3 = ROL(v3, 16);                                   \
    v3 = XOR(v3, v2);                                   \
    v0 = ADD(v0, v3);                                   \
    v3 = ROL(v3, 21);                                   \
    v3 = XOR(v3, v0);                                   \
    v2 = ADD(v2, v1);                                   \
    v1 = ROL(v1, 17);                                   \
    v1 = XOR(v1, v2);                                   \
    v2 = ROL(v2, 32);                                   \
  } while (0)

// --------------------------------------------------------------- scalar

inline uint64_t add64(uint64_t a, uint64_t b) { return a + b; }
inline uint64_t xor64(uint64_t a, uint64_t b) { return a ^ b; }
inline uint64_t rol64(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

// memcpy compiles to one unaligned 64-bit load; a byte-assembly loop does
// not, and halved bulk MAC throughput (the transport seals and verifies
// every payload, so this is on the critical path for large frames).
// Little-endian hosts only -- matching the serde layer's assumption.
inline uint64_t read_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

struct SipState {
  uint64_t v0, v1, v2, v3;

  explicit SipState(const SipHashKey& key)
      : v0(kInit0 ^ key.k0), v1(kInit1 ^ key.k1), v2(kInit2 ^ key.k0),
        v3(kInit3 ^ key.k1) {}

  void round() { BFTREG_SIPROUND(add64, xor64, rol64, v0, v1, v2, v3); }

  void compress(uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  uint64_t finish(uint64_t b) {
    compress(b);
    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

/// Two lanes per pass over the blocks. Their chains are independent, so the
/// core overlaps them; two lanes fill a 4-wide core about as well as wider
/// interleaving, which spills the 16 general registers.
void lanes_scalar(const SipHashKey& key, const uint8_t* in, size_t nblocks,
                  uint64_t tags[kLanes]) {
  const uint64_t b = lane_length_block(nblocks);
  for (size_t j = 0; j < kLanes; j += 2) {
    SipState a(key);
    SipState c(key);
    a.compress(j);
    c.compress(j + 1);
    const uint8_t* p = in + 8 * j;
    for (size_t i = 0; i < nblocks; ++i, p += kBlock) {
      a.compress(read_le64(p));
      c.compress(read_le64(p + 8));
    }
    tags[j] = a.finish(b);
    tags[j + 1] = c.finish(b);
  }
}

#if BFTREG_SIP_X86

// ----------------------------------------------------------------- AVX2
//
// Lanes 0-3 and 4-7 as two independent ymm states (the low and high half
// of each block). AVX2 has no 64-bit rotate: 32 is a dword shuffle, 16 a
// byte shuffle, the rest shift-shift-or.

#define BFTREG_ADD256(a, b) _mm256_add_epi64(a, b)
#define BFTREG_XOR256(a, b) _mm256_xor_si256(a, b)
#define BFTREG_ROL256(x, n) rol256_##n(x)

__attribute__((target("avx2"))) inline __m256i rol256_13(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, 13), _mm256_srli_epi64(x, 51));
}
__attribute__((target("avx2"))) inline __m256i rol256_17(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, 17), _mm256_srli_epi64(x, 47));
}
__attribute__((target("avx2"))) inline __m256i rol256_21(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, 21), _mm256_srli_epi64(x, 43));
}
__attribute__((target("avx2"))) inline __m256i rol256_32(__m256i x) {
  return _mm256_shuffle_epi32(x, 0xb1);
}
__attribute__((target("avx2"))) inline __m256i rol256_16(__m256i x) {
  // Byte i of each 64-bit lane takes byte (i - 2) mod 8.
  const __m256i rot = _mm256_setr_epi8(6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9,
                                       10, 11, 12, 13, 6, 7, 0, 1, 2, 3, 4, 5,
                                       14, 15, 8, 9, 10, 11, 12, 13);
  return _mm256_shuffle_epi8(x, rot);
}

#define BFTREG_ROUND256(v0, v1, v2, v3) \
  BFTREG_SIPROUND(BFTREG_ADD256, BFTREG_XOR256, BFTREG_ROL256, v0, v1, v2, v3)

__attribute__((target("avx2"))) void lanes_avx2(const SipHashKey& key,
                                                const uint8_t* in,
                                                size_t nblocks,
                                                uint64_t tags[kLanes]) {
  const auto k0 = static_cast<long long>(key.k0);
  const auto k1 = static_cast<long long>(key.k1);
  __m256i a0 = _mm256_set1_epi64x(static_cast<long long>(kInit0) ^ k0);
  __m256i a1 = _mm256_set1_epi64x(static_cast<long long>(kInit1) ^ k1);
  __m256i a2 = _mm256_set1_epi64x(static_cast<long long>(kInit2) ^ k0);
  __m256i a3 = _mm256_set1_epi64x(static_cast<long long>(kInit3) ^ k1);
  __m256i c0 = a0;
  __m256i c1 = a1;
  __m256i c2 = a2;
  __m256i c3 = a3;

#define BFTREG_COMPRESS256(ma, mc)       \
  do {                                   \
    const __m256i ma_ = (ma);            \
    const __m256i mc_ = (mc);            \
    a3 = _mm256_xor_si256(a3, ma_);      \
    c3 = _mm256_xor_si256(c3, mc_);      \
    BFTREG_ROUND256(a0, a1, a2, a3);     \
    BFTREG_ROUND256(c0, c1, c2, c3);     \
    BFTREG_ROUND256(a0, a1, a2, a3);     \
    BFTREG_ROUND256(c0, c1, c2, c3);     \
    a0 = _mm256_xor_si256(a0, ma_);      \
    c0 = _mm256_xor_si256(c0, mc_);      \
  } while (0)

  BFTREG_COMPRESS256(_mm256_setr_epi64x(0, 1, 2, 3),
                     _mm256_setr_epi64x(4, 5, 6, 7));
  for (size_t i = 0; i < nblocks; ++i, in += kBlock) {
    BFTREG_COMPRESS256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 32)));
  }
  const __m256i b =
      _mm256_set1_epi64x(static_cast<long long>(lane_length_block(nblocks)));
  BFTREG_COMPRESS256(b, b);
#undef BFTREG_COMPRESS256
  const __m256i ff = _mm256_set1_epi64x(0xff);
  a2 = _mm256_xor_si256(a2, ff);
  c2 = _mm256_xor_si256(c2, ff);
  for (int r = 0; r < 4; ++r) {
    BFTREG_ROUND256(a0, a1, a2, a3);
    BFTREG_ROUND256(c0, c1, c2, c3);
  }
  const __m256i ta = _mm256_xor_si256(_mm256_xor_si256(a0, a1),
                                      _mm256_xor_si256(a2, a3));
  const __m256i tc = _mm256_xor_si256(_mm256_xor_si256(c0, c1),
                                      _mm256_xor_si256(c2, c3));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(tags), ta);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(tags + 4), tc);
}

// -------------------------------------------------------------- AVX-512
//
// One zmm state, lane j in 64-bit element j. The rotates use the
// all-lanes mask form: GCC 12 reports a false -Wmaybe-uninitialized for
// the unmasked _mm512_rol_epi64, whose expansion passes an undefined
// pass-through operand.

#define BFTREG_ADD512(a, b) _mm512_add_epi64(a, b)
#define BFTREG_XOR512(a, b) _mm512_xor_si512(a, b)
#define BFTREG_ROL512(x, n) _mm512_maskz_rol_epi64(0xff, x, n)
#define BFTREG_ROUND512(v0, v1, v2, v3) \
  BFTREG_SIPROUND(BFTREG_ADD512, BFTREG_XOR512, BFTREG_ROL512, v0, v1, v2, v3)

__attribute__((target("avx512f"))) void lanes_avx512(const SipHashKey& key,
                                                     const uint8_t* in,
                                                     size_t nblocks,
                                                     uint64_t tags[kLanes]) {
  __m512i v0 = _mm512_set1_epi64(static_cast<long long>(kInit0 ^ key.k0));
  __m512i v1 = _mm512_set1_epi64(static_cast<long long>(kInit1 ^ key.k1));
  __m512i v2 = _mm512_set1_epi64(static_cast<long long>(kInit2 ^ key.k0));
  __m512i v3 = _mm512_set1_epi64(static_cast<long long>(kInit3 ^ key.k1));

#define BFTREG_COMPRESS512(m)         \
  do {                                \
    const __m512i m_ = (m);           \
    v3 = _mm512_xor_si512(v3, m_);    \
    BFTREG_ROUND512(v0, v1, v2, v3);  \
    BFTREG_ROUND512(v0, v1, v2, v3);  \
    v0 = _mm512_xor_si512(v0, m_);    \
  } while (0)

  BFTREG_COMPRESS512(_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  for (size_t i = 0; i < nblocks; ++i, in += kBlock) {
    BFTREG_COMPRESS512(_mm512_loadu_si512(in));
  }
  BFTREG_COMPRESS512(
      _mm512_set1_epi64(static_cast<long long>(lane_length_block(nblocks))));
#undef BFTREG_COMPRESS512
  v2 = _mm512_xor_si512(v2, _mm512_set1_epi64(0xff));
  for (int r = 0; r < 4; ++r) BFTREG_ROUND512(v0, v1, v2, v3);
  _mm512_storeu_si512(tags, _mm512_xor_si512(_mm512_xor_si512(v0, v1),
                                             _mm512_xor_si512(v2, v3)));
}

#endif  // BFTREG_SIP_X86

}  // namespace

uint64_t siphash24(const SipHashKey& key, const void* data, size_t len) {
  const auto* in = static_cast<const uint8_t*>(data);
  SipState s(key);
  const size_t end = len - (len % 8);
  for (size_t i = 0; i < end; i += 8) s.compress(read_le64(in + i));
  uint64_t b = static_cast<uint64_t>(len) << 56;
  for (size_t i = 0; i < (len & 7); ++i) {
    b |= static_cast<uint64_t>(in[end + i]) << (8 * i);
  }
  return s.finish(b);
}

const char* lane_kernel_name(LaneKernel k) {
  switch (k) {
    case LaneKernel::kScalar: return "scalar";
    case LaneKernel::kAvx2: return "avx2";
    case LaneKernel::kAvx512: return "avx512";
  }
  return "?";
}

bool lane_kernel_available(LaneKernel k) {
  switch (k) {
    case LaneKernel::kScalar:
      return true;
#if BFTREG_SIP_X86
    case LaneKernel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case LaneKernel::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
#else
    default:
      return false;
#endif
  }
  return false;
}

LaneKernel best_lane_kernel() {
  static const LaneKernel best =
      lane_kernel_available(LaneKernel::kAvx512) ? LaneKernel::kAvx512
      : lane_kernel_available(LaneKernel::kAvx2) ? LaneKernel::kAvx2
                                                 : LaneKernel::kScalar;
  return best;
}

uint64_t siphash24_lanes_as(LaneKernel k, const SipHashKey& key,
                            const void* data, size_t len) {
  assert(lane_kernel_available(k));
  const auto* in = static_cast<const uint8_t*>(data);
  const size_t nblocks = len / kBlock;
  const size_t tail = len % kBlock;

  // The closing input: [~0][lane tags 0..7][len][tail bytes], at most
  // 80 + 63 bytes. The marker keeps it distinct from every lane input,
  // whose first word is the lane number.
  uint64_t words[2 + kLanes + kLanes];
  words[0] = ~uint64_t{0};
  uint64_t* tags = words + 1;
  switch (k) {
#if BFTREG_SIP_X86
    case LaneKernel::kAvx2: lanes_avx2(key, in, nblocks, tags); break;
    case LaneKernel::kAvx512: lanes_avx512(key, in, nblocks, tags); break;
#endif
    default: lanes_scalar(key, in, nblocks, tags); break;
  }
  words[1 + kLanes] = static_cast<uint64_t>(len);
  if (tail != 0) std::memcpy(words + 2 + kLanes, in + nblocks * kBlock, tail);
  return siphash24(key, words, (2 + kLanes) * sizeof(uint64_t) + tail);
}

uint64_t siphash24_lanes(const SipHashKey& key, BytesView data) {
  return siphash24_lanes_as(best_lane_kernel(), key, data.data(), data.size());
}

}  // namespace bftreg::crypto
