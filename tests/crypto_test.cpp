// Unit tests for src/crypto: SipHash reference vectors, the 8-lane bulk
// MAC and its kernels, and the channel-authentication layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "crypto/auth.h"
#include "crypto/siphash.h"

namespace bftreg::crypto {
namespace {

// Reference key from the SipHash paper: k = 000102...0f.
SipHashKey reference_key() {
  return SipHashKey{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
}

// Input for vector i is the byte string 00 01 02 ... (i-1).
Bytes reference_input(size_t len) {
  Bytes b(len);
  for (size_t i = 0; i < len; ++i) b[i] = static_cast<uint8_t>(i);
  return b;
}

TEST(SipHashTest, ReferenceVectorEmpty) {
  EXPECT_EQ(siphash24(reference_key(), reference_input(0)), 0x726fdb47dd0e0e31ULL);
}

TEST(SipHashTest, ReferenceVectorOneByte) {
  EXPECT_EQ(siphash24(reference_key(), reference_input(1)), 0x74f839c593dc67fdULL);
}

TEST(SipHashTest, ReferenceVectorEightBytes) {
  EXPECT_EQ(siphash24(reference_key(), reference_input(8)), 0x93f5f5799a932462ULL);
}

TEST(SipHashTest, ReferenceVectorFifteenBytes) {
  EXPECT_EQ(siphash24(reference_key(), reference_input(15)), 0xa129ca6149be45e5ULL);
}

TEST(SipHashTest, KeySensitivity) {
  const Bytes msg = reference_input(32);
  const SipHashKey k1{1, 2};
  const SipHashKey k2{1, 3};
  EXPECT_NE(siphash24(k1, msg), siphash24(k2, msg));
}

TEST(SipHashTest, MessageSensitivity) {
  const SipHashKey k{7, 9};
  Bytes a = reference_input(64);
  Bytes b = a;
  b[63] ^= 1;
  EXPECT_NE(siphash24(k, a), siphash24(k, b));
}

TEST(KeyRegistryTest, ChannelKeysAreDirectional) {
  KeyRegistry reg(0xDEADBEEF);
  const auto ab = reg.channel_key(ProcessId::writer(0), ProcessId::server(0));
  const auto ba = reg.channel_key(ProcessId::server(0), ProcessId::writer(0));
  EXPECT_FALSE(ab == ba);
}

TEST(KeyRegistryTest, KeysAreStable) {
  KeyRegistry reg(42);
  const auto k1 = reg.channel_key(ProcessId::reader(1), ProcessId::server(2));
  const auto k2 = reg.channel_key(ProcessId::reader(1), ProcessId::server(2));
  EXPECT_TRUE(k1 == k2);
}

TEST(KeyRegistryTest, DifferentMastersGiveDifferentKeys) {
  KeyRegistry a(1);
  KeyRegistry b(2);
  EXPECT_FALSE(a.channel_key(ProcessId::server(0), ProcessId::server(1)) ==
               b.channel_key(ProcessId::server(0), ProcessId::server(1)));
}

TEST(AuthenticatorTest, SealVerifyRoundTrip) {
  Authenticator auth{KeyRegistry(99)};
  const Bytes payload{1, 2, 3, 4};
  const auto mac = auth.seal(ProcessId::writer(0), ProcessId::server(3), payload);
  EXPECT_TRUE(auth.verify(ProcessId::writer(0), ProcessId::server(3), payload, mac));
}

TEST(AuthenticatorTest, RejectsTamperedPayload) {
  Authenticator auth{KeyRegistry(99)};
  Bytes payload{1, 2, 3, 4};
  const auto mac = auth.seal(ProcessId::writer(0), ProcessId::server(3), payload);
  payload[0] ^= 0xFF;
  EXPECT_FALSE(auth.verify(ProcessId::writer(0), ProcessId::server(3), payload, mac));
}

TEST(AuthenticatorTest, RejectsSenderSpoofing) {
  // A Byzantine server re-using a MAC while claiming a different sender --
  // the attack the paper's signature assumption rules out (Section II-A).
  Authenticator auth{KeyRegistry(99)};
  const Bytes payload{9, 9, 9};
  const auto mac = auth.seal(ProcessId::server(0), ProcessId::reader(0), payload);
  EXPECT_FALSE(auth.verify(ProcessId::server(1), ProcessId::reader(0), payload, mac));
}

TEST(AuthenticatorTest, RejectsRedirectedReceiver) {
  Authenticator auth{KeyRegistry(99)};
  const Bytes payload{5};
  const auto mac = auth.seal(ProcessId::server(0), ProcessId::reader(0), payload);
  EXPECT_FALSE(auth.verify(ProcessId::server(0), ProcessId::reader(1), payload, mac));
}

// ------------------------------------------------------ 8-lane bulk MAC

void append_le64(Bytes& out, uint64_t w) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(w >> (8 * i)));
}

/// The construction spelled out with plain siphash24 calls, independent
/// of every kernel: lane j hashes [j] ++ word j of each 64-byte block; the
/// tag hashes [~0] ++ lane tags ++ [len] ++ tail.
uint64_t lanes_by_definition(const SipHashKey& key, const Bytes& msg) {
  const size_t blocks = msg.size() / 64;
  Bytes closing;
  append_le64(closing, ~uint64_t{0});
  for (size_t j = 0; j < 8; ++j) {
    Bytes lane;
    append_le64(lane, j);
    for (size_t b = 0; b < blocks; ++b) {
      lane.insert(lane.end(), msg.begin() + static_cast<std::ptrdiff_t>(64 * b + 8 * j),
                  msg.begin() + static_cast<std::ptrdiff_t>(64 * b + 8 * j + 8));
    }
    append_le64(closing, siphash24(key, lane));
  }
  append_le64(closing, msg.size());
  closing.insert(closing.end(), msg.begin() + static_cast<std::ptrdiff_t>(64 * blocks),
                 msg.end());
  return siphash24(key, closing);
}

Bytes random_bytes(Rng& rng, size_t len) {
  Bytes b(len);
  for (auto& x : b) x = static_cast<uint8_t>(rng.uniform(256));
  return b;
}

TEST(LaneMacTest, ScalarKernelMatchesTheConstruction) {
  Rng rng(61);
  const SipHashKey key{rng.next_u64(), rng.next_u64()};
  for (size_t len = 0; len <= 1100; len += 1 + len / 40) {
    const Bytes msg = random_bytes(rng, len);
    EXPECT_EQ(siphash24_lanes_as(LaneKernel::kScalar, key, msg.data(), msg.size()),
              lanes_by_definition(key, msg))
        << "len=" << len;
  }
}

// Known answers of the scalar kernel on the SipHash paper's key and the
// 00 01 02 ... input, around the bulk threshold T = kBulkMacBytes, either
// side of a 64-byte block boundary and of 64 KiB, and at the coded
// element (~22 KiB) and value (64 KiB) sizes of the BCSR workload.
TEST(LaneMacTest, KnownAnswerVectors) {
  static_assert(kBulkMacBytes == 512, "vectors below are pinned to T = 512");
  const struct {
    size_t len;
    uint64_t tag;
  } vectors[] = {
      {511, 0x7bf9e07c416ef670ULL},   {512, 0x9cbb0ed39e07391fULL},
      {513, 0x19aed6fddfec2c3aULL},   {639, 0xeb6a33cc688e64b3ULL},
      {641, 0x895480bb1b8c6949ULL},   {22528, 0x8825447c05311415ULL},
      {65535, 0x36d827f35f1c765aULL}, {65536, 0x0ebb271610ef2131ULL},
      {65537, 0x4e845362c35c1338ULL},
  };
  for (const auto& v : vectors) {
    const Bytes msg = reference_input(v.len);
    EXPECT_EQ(siphash24_lanes_as(LaneKernel::kScalar, reference_key(), msg.data(),
                                 msg.size()),
              v.tag)
        << "len=" << v.len;
    EXPECT_EQ(lanes_by_definition(reference_key(), msg), v.tag) << "len=" << v.len;
  }
}

class LaneKernelTest : public ::testing::TestWithParam<LaneKernel> {};

TEST_P(LaneKernelTest, MatchesScalarOnEveryLengthAndAlignment) {
  const LaneKernel k = GetParam();
  if (!lane_kernel_available(k)) {
    GTEST_SKIP() << "this CPU lacks the " << lane_kernel_name(k) << " kernel";
  }
  Rng rng(62);
  const SipHashKey key{rng.next_u64(), rng.next_u64()};
  const Bytes buf = random_bytes(rng, 4096 + 64);
  for (const size_t offset : {0, 1, 3, 8, 13}) {
    const uint8_t* p = buf.data() + offset;
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(siphash24_lanes_as(k, key, p, len),
                siphash24_lanes_as(LaneKernel::kScalar, key, p, len))
          << lane_kernel_name(k) << " len=" << len << " offset=" << offset;
    }
  }
}

TEST_P(LaneKernelTest, MatchesScalarOnCodedElementSizes) {
  const LaneKernel k = GetParam();
  if (!lane_kernel_available(k)) {
    GTEST_SKIP() << "this CPU lacks the " << lane_kernel_name(k) << " kernel";
  }
  Rng rng(63);
  const SipHashKey key{rng.next_u64(), rng.next_u64()};
  for (const size_t len : {22528, 22537, 65535, 65536, 65537, 1 << 20}) {
    const Bytes msg = random_bytes(rng, len);
    EXPECT_EQ(siphash24_lanes_as(k, key, msg.data(), msg.size()),
              siphash24_lanes_as(LaneKernel::kScalar, key, msg.data(), msg.size()))
        << lane_kernel_name(k) << " len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, LaneKernelTest,
                         ::testing::Values(LaneKernel::kAvx2, LaneKernel::kAvx512),
                         [](const auto& info) {
                           return std::string(lane_kernel_name(info.param));
                         });

TEST(LaneMacTest, DispatchUsesAnAvailableKernel) {
  EXPECT_TRUE(lane_kernel_available(LaneKernel::kScalar));
  EXPECT_TRUE(lane_kernel_available(best_lane_kernel()));
  Rng rng(64);
  const SipHashKey key{rng.next_u64(), rng.next_u64()};
  const Bytes msg = random_bytes(rng, 3000);
  EXPECT_EQ(siphash24_lanes(key, msg),
            siphash24_lanes_as(LaneKernel::kScalar, key, msg.data(), msg.size()));
}

TEST(KeyRegistryTest, BulkKeyIsSeparateFromMacKey) {
  KeyRegistry reg(7);
  const auto from = ProcessId::writer(0);
  const auto to = ProcessId::server(1);
  EXPECT_FALSE(reg.bulk_key(from, to) == reg.channel_key(from, to));
  EXPECT_FALSE(reg.bulk_key(from, to) == reg.bulk_key(to, from));
  EXPECT_TRUE(reg.bulk_key(from, to) == reg.bulk_key(from, to));
}

TEST(AuthenticatorTest, ShortPayloadsKeepTheSiphash24Tag) {
  // Below the threshold a seal is exactly siphash24 under the channel key,
  // cached or not; at the threshold it is the lane MAC under the bulk key.
  const KeyRegistry reg(99);
  const auto from = ProcessId::reader(2);
  const auto to = ProcessId::server(4);
  Authenticator cached{reg};
  cached.precompute({from, to});
  const Authenticator uncached{reg};
  for (const size_t len : {size_t{0}, size_t{60}, kBulkMacBytes - 1}) {
    const Bytes msg = reference_input(len);
    const MacTag expect = siphash24(reg.channel_key(from, to), msg);
    EXPECT_EQ(cached.seal(from, to, msg), expect) << len;
    EXPECT_EQ(uncached.seal(from, to, msg), expect) << len;
  }
  for (const size_t len : {kBulkMacBytes, kBulkMacBytes + 1, size_t{22528}}) {
    const Bytes msg = reference_input(len);
    const MacTag expect = siphash24_lanes(reg.bulk_key(from, to), msg);
    EXPECT_EQ(cached.seal(from, to, msg), expect) << len;
    EXPECT_EQ(uncached.seal(from, to, msg), expect) << len;
  }
}

class BulkTamperTest : public ::testing::Test {
 protected:
  // 70 blocks plus a 37-byte tail: both the lanes and the tail are covered.
  BulkTamperTest() : rng_(65), payload_(random_bytes(rng_, 70 * 64 + 37)) {
    mac_ = auth_.seal(from_, to_, payload_);
  }

  bool verifies(const Bytes& p) const { return auth_.verify(from_, to_, p, mac_); }

  Rng rng_;
  Authenticator auth_{KeyRegistry(4242)};
  const ProcessId from_ = ProcessId::writer(1);
  const ProcessId to_ = ProcessId::server(3);
  Bytes payload_;
  MacTag mac_{0};
};

TEST_F(BulkTamperTest, UntouchedPayloadVerifies) { EXPECT_TRUE(verifies(payload_)); }

TEST_F(BulkTamperTest, FlippedByteInEveryLaneWordFails) {
  for (size_t lane = 0; lane < 8; ++lane) {
    Bytes p = payload_;
    p[64 * 17 + 8 * lane + 5] ^= 0x01;
    EXPECT_FALSE(verifies(p)) << "lane " << lane;
  }
}

TEST_F(BulkTamperTest, FlippedByteInTailFails) {
  Bytes p = payload_;
  p[p.size() - 3] ^= 0x80;
  EXPECT_FALSE(verifies(p));
}

TEST_F(BulkTamperTest, TruncationFails) {
  for (const size_t keep : {payload_.size() - 1, payload_.size() - 37,
                            payload_.size() - 64, kBulkMacBytes, kBulkMacBytes - 1}) {
    const Bytes p(payload_.begin(), payload_.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(verifies(p)) << "kept " << keep;
  }
}

TEST_F(BulkTamperTest, ExtensionFails) {
  Bytes p = payload_;
  p.push_back(0);
  EXPECT_FALSE(verifies(p));
  p.resize(payload_.size() + 64 - 37, 0);  // pad the tail out to a whole block
  EXPECT_FALSE(verifies(p));
}

TEST_F(BulkTamperTest, SwappedBlocksFail) {
  Bytes p = payload_;
  std::swap_ranges(p.begin() + 64 * 3, p.begin() + 64 * 4, p.begin() + 64 * 40);
  EXPECT_FALSE(verifies(p));
}

TEST_F(BulkTamperTest, SwappedWordsInsideABlockFail) {
  Bytes p = payload_;
  std::swap_ranges(p.begin() + 64 * 9 + 8, p.begin() + 64 * 9 + 16,
                   p.begin() + 64 * 9 + 48);
  EXPECT_FALSE(verifies(p));
}

TEST(AuthenticatorTest, RejectsSenderSpoofingOfBulkPayload) {
  Authenticator auth{KeyRegistry(99)};
  const Bytes payload = reference_input(22528);
  const auto mac = auth.seal(ProcessId::server(0), ProcessId::reader(0), payload);
  EXPECT_TRUE(auth.verify(ProcessId::server(0), ProcessId::reader(0), payload, mac));
  EXPECT_FALSE(auth.verify(ProcessId::server(1), ProcessId::reader(0), payload, mac));
}

TEST(AuthenticatorTest, RejectsRedirectedReceiverOfBulkPayload) {
  Authenticator auth{KeyRegistry(99)};
  const Bytes payload = reference_input(22528);
  const auto mac = auth.seal(ProcessId::server(0), ProcessId::reader(0), payload);
  EXPECT_FALSE(auth.verify(ProcessId::server(0), ProcessId::reader(1), payload, mac));
}

}  // namespace
}  // namespace bftreg::crypto
