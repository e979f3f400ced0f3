// Differential tests for the bulk GF(2^8) region codec (codec/gf_region.h
// and the region-restructured MdsCode paths).
//
// Three layers of cross-checking:
//   1. every region kernel against byte-at-a-time gf::mul, exhaustively
//      over all 256 constants, odd lengths and misaligned offsets;
//   2. MdsCode::encode under every available kernel against the retained
//      per-stripe scalar reference (RsCode::encode_stripe driven over an
//      independently reconstructed payload) -- bit-identical, not just
//      decodable;
//   3. encode/decode round trips under the full Lemma 4 adversarial budget
//      (f garbage + f stale), including garbage that only diverges
//      mid-element so the bulk pass must detect the divergent stripe and
//      fall back to Berlekamp-Welch.
// Runs under both sanitizer presets via the default `unit` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "codec/gf256.h"
#include "codec/gf_region.h"
#include "codec/mds_code.h"
#include "codec/rs.h"
#include "common/rng.h"
#include "common/types.h"

namespace bftreg::codec {
namespace {

std::vector<gf::RegionKernel> available_kernels() {
  std::vector<gf::RegionKernel> out;
  for (auto k : {gf::RegionKernel::kScalar, gf::RegionKernel::kSwar,
                 gf::RegionKernel::kSsse3, gf::RegionKernel::kAvx2}) {
    if (gf::kernel_available(k)) out.push_back(k);
  }
  return out;
}

/// Restores auto-dispatch after tests that force a kernel.
class RegionKernelTest : public ::testing::Test {
 protected:
  ~RegionKernelTest() override { gf::reset_kernel(); }
};

TEST(RegionKernelAvailability, ScalarAndSwarAlwaysPresent) {
  EXPECT_TRUE(gf::kernel_available(gf::RegionKernel::kScalar));
  EXPECT_TRUE(gf::kernel_available(gf::RegionKernel::kSwar));
  const auto ks = available_kernels();
  ASSERT_GE(ks.size(), 2u);
  for (auto k : ks) {
    SCOPED_TRACE(gf::kernel_name(k));
    EXPECT_STRNE(gf::kernel_name(k), "?");
  }
}

TEST_F(RegionKernelTest, ForceKernelSwitchesDispatch) {
  for (auto k : available_kernels()) {
    ASSERT_TRUE(gf::force_kernel(k));
    EXPECT_EQ(gf::active_kernel(), k);
  }
  gf::reset_kernel();
  EXPECT_TRUE(gf::kernel_available(gf::active_kernel()));
}

TEST_F(RegionKernelTest, EnvVarOverridesAutoSelection) {
  ::setenv("BFTREG_GF_KERNEL", "scalar", 1);
  gf::reset_kernel();
  EXPECT_EQ(gf::active_kernel(), gf::RegionKernel::kScalar);
  ::setenv("BFTREG_GF_KERNEL", "swar", 1);
  gf::reset_kernel();
  EXPECT_EQ(gf::active_kernel(), gf::RegionKernel::kSwar);
  ::unsetenv("BFTREG_GF_KERNEL");
  gf::reset_kernel();
}

// Every kernel x every constant x odd lengths x misaligned offsets, against
// the log/antilog single-byte multiply.
TEST(RegionKernelDifferential, MulRegionMatchesGfMulExhaustively) {
  const auto kernels = available_kernels();
  const size_t lens[] = {0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 200};
  Rng rng(41);
  std::vector<uint8_t> src(256 + 3);
  for (auto& b : src) b = static_cast<uint8_t>(rng.uniform(256));

  for (unsigned c = 0; c < 256; ++c) {
    for (const size_t len : lens) {
      for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
        const uint8_t* s = src.data() + offset;
        std::vector<uint8_t> expect(len);
        for (size_t i = 0; i < len; ++i) {
          expect[i] = gf::mul(static_cast<uint8_t>(c), s[i]);
        }
        for (const auto k : kernels) {
          std::vector<uint8_t> dst(len, 0xCD);
          gf::mul_region_as(k, dst.data(), s, static_cast<uint8_t>(c), len);
          ASSERT_EQ(dst, expect) << "mul_region " << gf::kernel_name(k)
                                 << " c=" << c << " len=" << len
                                 << " offset=" << offset;
        }
      }
    }
  }
}

TEST(RegionKernelDifferential, MulAddRegionMatchesGfMulExhaustively) {
  const auto kernels = available_kernels();
  const size_t lens[] = {0, 1, 8, 13, 16, 31, 32, 100};
  Rng rng(42);
  std::vector<uint8_t> src(128), base(128);
  for (auto& b : src) b = static_cast<uint8_t>(rng.uniform(256));
  for (auto& b : base) b = static_cast<uint8_t>(rng.uniform(256));

  for (unsigned c = 0; c < 256; ++c) {
    for (const size_t len : lens) {
      std::vector<uint8_t> expect(base.begin(), base.begin() + static_cast<long>(len));
      for (size_t i = 0; i < len; ++i) {
        expect[i] = gf::add(expect[i], gf::mul(static_cast<uint8_t>(c), src[i]));
      }
      for (const auto k : kernels) {
        std::vector<uint8_t> dst(base.begin(), base.begin() + static_cast<long>(len));
        gf::mul_add_region_as(k, dst.data(), src.data(), static_cast<uint8_t>(c),
                              len);
        ASSERT_EQ(dst, expect) << "mul_add_region " << gf::kernel_name(k)
                               << " c=" << c << " len=" << len;
      }
    }
  }
}

TEST_F(RegionKernelTest, MulRegionAllowsAliasedDst) {
  Rng rng(43);
  for (const auto k : available_kernels()) {
    ASSERT_TRUE(gf::force_kernel(k));
    std::vector<uint8_t> buf(97);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.uniform(256));
    std::vector<uint8_t> expect(buf.size());
    for (size_t i = 0; i < buf.size(); ++i) expect[i] = gf::mul(0x53, buf[i]);
    gf::mul_region(buf.data(), buf.data(), 0x53, buf.size());
    EXPECT_EQ(buf, expect) << gf::kernel_name(k);
  }
}

TEST(RegionKernelDifferential, AddRegionIsXor) {
  Rng rng(44);
  std::vector<uint8_t> a(77), b(77), expect(77);
  for (auto& x : a) x = static_cast<uint8_t>(rng.uniform(256));
  for (auto& x : b) x = static_cast<uint8_t>(rng.uniform(256));
  for (size_t i = 0; i < a.size(); ++i) {
    expect[i] = static_cast<uint8_t>(a[i] ^ b[i]);
  }
  gf::add_region(a.data(), b.data(), a.size());
  EXPECT_EQ(a, expect);
}

// ----------------------------------------------------- MdsCode differential

struct BcsrParam {
  size_t n;
  size_t f;
  RsLayout layout;
};

std::vector<BcsrParam> bcsr_params() {
  std::vector<BcsrParam> out;
  for (auto layout : {RsLayout::kCoefficients, RsLayout::kSystematic}) {
    out.push_back({6, 1, layout});
    out.push_back({8, 1, layout});
    out.push_back({11, 2, layout});
    out.push_back({13, 2, layout});
    out.push_back({16, 3, layout});
    out.push_back({21, 4, layout});
  }
  return out;
}

Bytes random_value(Rng& rng, size_t size) {
  Bytes v(size);
  for (auto& b : v) b = static_cast<uint8_t>(rng.uniform(256));
  return v;
}

/// The retained scalar reference: rebuild the padded payload independently
/// (header layout documented in mds_code.h) and drive the original
/// per-stripe RsCode::encode_stripe over gathered shard-major symbols.
std::vector<Bytes> reference_encode(const MdsCode& code, const RsCode& rs,
                                    const Bytes& value) {
  const size_t stripes = code.element_size(value.size());
  const size_t kk = code.k();
  std::vector<uint8_t> payload(stripes * kk, 0);
  const auto len = static_cast<uint32_t>(value.size());
  const uint32_t sum = MdsCode::value_checksum(value);
  for (size_t i = 0; i < 4; ++i) payload[i] = static_cast<uint8_t>(len >> (8 * i));
  for (size_t i = 0; i < 4; ++i) {
    payload[4 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
  std::copy(value.begin(), value.end(), payload.begin() + MdsCode::kHeaderBytes);

  std::vector<Bytes> elements(code.n(), Bytes(stripes));
  std::vector<uint8_t> data(kk);
  for (size_t s = 0; s < stripes; ++s) {
    for (size_t j = 0; j < kk; ++j) data[j] = payload[j * stripes + s];
    const auto coded = rs.encode_stripe(data.data());
    for (size_t i = 0; i < code.n(); ++i) elements[i][s] = coded[i];
  }
  return elements;
}

class BcsrRegionTest : public ::testing::TestWithParam<BcsrParam> {
 protected:
  ~BcsrRegionTest() override { gf::reset_kernel(); }
};

TEST_P(BcsrRegionTest, EncodeBitIdenticalAcrossKernelsAndReference) {
  const auto [n, f, layout] = GetParam();
  const auto code = MdsCode::for_bcsr(n, f, layout);
  const RsCode rs(n, code.k(), layout);
  Rng rng(500 + n * 17 + f);

  const size_t sizes[] = {0, 1, 7, 8, 9, 100, 1 + rng.uniform(4096), 65536};
  for (const size_t size : sizes) {
    const Bytes value = random_value(rng, size);
    const auto reference = reference_encode(code, rs, value);
    for (const auto k : available_kernels()) {
      ASSERT_TRUE(gf::force_kernel(k));
      const auto elements = code.encode(value);
      ASSERT_EQ(elements, reference)
          << "kernel=" << gf::kernel_name(k) << " n=" << n << " f=" << f
          << " size=" << size;
    }
  }
}

TEST_P(BcsrRegionTest, Lemma4AdversarialDecodeUnderEveryKernel) {
  const auto [n, f, layout] = GetParam();
  const auto code = MdsCode::for_bcsr(n, f, layout);
  Rng rng(900 + n * 19 + f);

  for (const auto kernel : available_kernels()) {
    ASSERT_TRUE(gf::force_kernel(kernel));
    for (int trial = 0; trial < 8; ++trial) {
      const size_t size = trial == 0 ? 0 : rng.uniform(8192);
      const Bytes value = random_value(rng, size);
      const Bytes old_value = random_value(rng, size);
      const auto fresh = code.encode(value);
      const auto stale = code.encode(old_value);

      // n - f responses, f garbage + f stale among them (Lemma 4's budget).
      std::vector<size_t> positions(n);
      for (size_t i = 0; i < n; ++i) positions[i] = i;
      rng.shuffle(positions);
      std::vector<std::optional<Bytes>> received(n);
      for (size_t i = 0; i < n - f; ++i) {
        const size_t pos = positions[i];
        if (i < f) {
          received[pos] = random_value(rng, fresh[pos].size());
        } else if (i < 2 * f) {
          received[pos] = stale[pos];
        } else {
          received[pos] = fresh[pos];
        }
      }
      auto decoded = code.decode(received);
      ASSERT_TRUE(decoded.has_value())
          << "kernel=" << gf::kernel_name(kernel) << " n=" << n << " f=" << f
          << " trial=" << trial;
      EXPECT_EQ(*decoded, value);
    }
  }
}

// Garbage that agrees with the fresh codeword on an honest prefix and only
// diverges from some mid-element stripe onward: the trusted set built from
// stripe 0 includes the liar, so the bulk pass must spot the divergent
// stripe, Berlekamp-Welch it, and resume with a rebuilt trusted set.
TEST_P(BcsrRegionTest, MidElementDivergenceFallsBackToPerStripe) {
  const auto [n, f, layout] = GetParam();
  const auto code = MdsCode::for_bcsr(n, f, layout);
  Rng rng(1300 + n * 23 + f);

  for (const auto kernel : available_kernels()) {
    ASSERT_TRUE(gf::force_kernel(kernel));
    const Bytes value = random_value(rng, 4096);
    const auto fresh = code.encode(value);
    const size_t stripes = fresh[0].size();

    std::vector<size_t> positions(n);
    for (size_t i = 0; i < n; ++i) positions[i] = i;
    rng.shuffle(positions);
    std::vector<std::optional<Bytes>> received(n);
    for (size_t i = 0; i < n; ++i) received[i] = fresh[i];
    // f liars, each honest up to its own cut point then garbage.
    for (size_t i = 0; i < f; ++i) {
      const size_t pos = positions[i];
      const size_t cut = 1 + rng.uniform(stripes - 1);
      for (size_t s = cut; s < stripes; ++s) {
        (*received[pos])[s] = static_cast<uint8_t>(rng.uniform(256));
      }
    }
    auto decoded = code.decode(received);
    ASSERT_TRUE(decoded.has_value())
        << "kernel=" << gf::kernel_name(kernel) << " n=" << n << " f=" << f;
    EXPECT_EQ(*decoded, value);
  }
}

// A read that races two equal-length writes can collect, on every server,
// an element whose first stripes belong to one write and the rest to the
// other. Every stripe is then a valid codeword, so Reed-Solomon decodes
// cleanly to a payload stitched from both values under the first value's
// header; only the value checksum can reject it.
TEST_P(BcsrRegionTest, DecodeRejectsValueStitchedFromTwoWrites) {
  const auto [n, f, layout] = GetParam();
  const auto code = MdsCode::for_bcsr(n, f, layout);
  Rng rng(1700 + n * 29 + f);

  for (const size_t size : {size_t{100}, size_t{4096}, size_t{65536}}) {
    const Bytes first = random_value(rng, size);
    const Bytes second = random_value(rng, size);
    const auto a = code.encode(first);
    const auto b = code.encode(second);
    const size_t stripes = a[0].size();
    // cut >= kHeaderBytes keeps the first value's length and checksum.
    for (const size_t cut : {MdsCode::kHeaderBytes, stripes / 2, stripes - 1}) {
      std::vector<std::optional<Bytes>> received(n);
      for (size_t i = 0; i < n; ++i) {
        Bytes e(a[i].begin(), a[i].begin() + static_cast<std::ptrdiff_t>(cut));
        e.insert(e.end(), b[i].begin() + static_cast<std::ptrdiff_t>(cut), b[i].end());
        received[i] = std::move(e);
      }
      EXPECT_FALSE(code.decode(received).has_value())
          << "n=" << n << " f=" << f << " size=" << size << " cut=" << cut;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BcsrRegionTest, ::testing::ValuesIn(bcsr_params()),
                         [](const auto& info) {
                           return std::string(info.param.layout ==
                                                      RsLayout::kSystematic
                                                  ? "sys_"
                                                  : "coef_") +
                                  "n" + std::to_string(info.param.n) + "f" +
                                  std::to_string(info.param.f);
                         });

// ----------------------------------------- piecewise encode, in-place decode

// Encode reads each shard piecewise from the header, the value and the zero
// pad, and decode writes the header to the stack and the value in place;
// both split wherever a shard crosses one of those boundaries. Sizes land
// on and around every boundary: a 0-byte value, values whose header spans
// several shards (stripes < 8), and payloads one byte short of, exactly at
// and one byte past a multiple of k (pad k-1, 0 and k-1... bytes). Every
// kernel must match the scalar reference bit for bit, and the value must
// come back with the erasures and errors the code tolerates.
TEST_F(RegionKernelTest, BoundarySizesRoundTripForBothLayouts) {
  struct Shape {
    size_t n;
    size_t k;
  };
  Rng rng(2100);
  for (const auto layout : {RsLayout::kCoefficients, RsLayout::kSystematic}) {
    for (const Shape shape : {Shape{6, 1}, Shape{8, 3}, Shape{11, 6}, Shape{20, 16}}) {
      const MdsCode code(shape.n, shape.k, layout);
      const RsCode rs(shape.n, shape.k, layout);
      std::vector<size_t> sizes{0, 1, 7, 8, 9};
      for (size_t t = 1; t <= 10; ++t) {
        for (const size_t payload : {t * shape.k - 1, t * shape.k, t * shape.k + 1}) {
          if (payload >= MdsCode::kHeaderBytes) sizes.push_back(payload - MdsCode::kHeaderBytes);
        }
      }
      for (const size_t size : sizes) {
        SCOPED_TRACE(testing::Message()
                     << (layout == RsLayout::kSystematic ? "sys" : "coef") << " n="
                     << shape.n << " k=" << shape.k << " size=" << size);
        const Bytes value = random_value(rng, size);
        const auto reference = reference_encode(code, rs, value);
        for (const auto kernel : available_kernels()) {
          ASSERT_TRUE(gf::force_kernel(kernel));
          ASSERT_EQ(code.encode(value), reference) << gf::kernel_name(kernel);

          // Half the spare positions erased, errors up to the budget left.
          std::vector<std::optional<Bytes>> received(reference.begin(), reference.end());
          std::vector<size_t> positions(shape.n);
          for (size_t i = 0; i < shape.n; ++i) positions[i] = i;
          rng.shuffle(positions);
          const size_t erased = (shape.n - shape.k) / 2;
          const size_t errors = (shape.n - erased - shape.k) / 2;
          for (size_t i = 0; i < erased; ++i) received[positions[i]].reset();
          for (size_t i = erased; i < erased + errors; ++i) {
            received[positions[i]] = random_value(rng, reference[0].size());
          }
          const auto decoded = code.decode(received);
          ASSERT_TRUE(decoded.has_value()) << gf::kernel_name(kernel);
          EXPECT_EQ(*decoded, value) << gf::kernel_name(kernel);
        }
      }
    }
  }
}

// Systematic reads that leave the identity map: the data positions are
// missing or wrong, so the value comes from parity through interpolation
// (missing) or through Berlekamp-Welch and a rebuilt trusted set (wrong).
TEST_F(RegionKernelTest, SystematicDegradedReadsRecoverFromParity) {
  const size_t n = 8;
  const size_t f = 1;
  const auto code = MdsCode::for_bcsr(n, f);
  ASSERT_EQ(code.layout(), RsLayout::kSystematic);
  const size_t k = code.k();  // 3
  Rng rng(2200);
  for (const auto kernel : available_kernels()) {
    ASSERT_TRUE(gf::force_kernel(kernel));
    for (const size_t size : {size_t{0}, size_t{5}, size_t{4093}, size_t{65536}}) {
      SCOPED_TRACE(testing::Message() << gf::kernel_name(kernel) << " size=" << size);
      const Bytes value = random_value(rng, size);
      const Bytes old_value = random_value(rng, size);
      const auto fresh = code.encode(value);
      const auto stale = code.encode(old_value);
      // The data elements are the raw shards: [len][checksum][value][pad].
      const size_t stripes = fresh[0].size();
      if (stripes >= 8 && 2 * stripes - 8 <= size) {
        EXPECT_TRUE(std::equal(value.begin(), value.begin() + static_cast<long>(stripes - 8),
                               fresh[0].begin() + 8));
        EXPECT_TRUE(std::equal(fresh[1].begin(), fresh[1].end(),
                               value.begin() + static_cast<long>(stripes - 8)));
      }

      // Every data position erased: parity alone (n - k = 5 >= k).
      std::vector<std::optional<Bytes>> received(fresh.begin(), fresh.end());
      for (size_t j = 0; j < k; ++j) received[j].reset();
      auto decoded = code.decode(received);
      ASSERT_TRUE(decoded.has_value()) << "data positions erased";
      EXPECT_EQ(*decoded, value);

      // One data position missing (the read's f unanswered), one garbage
      // and one stale: Lemma 4's mix, all on data positions.
      received.assign(fresh.begin(), fresh.end());
      received[0].reset();
      received[1] = random_value(rng, fresh[1].size());
      received[2] = stale[2];
      decoded = code.decode(received);
      ASSERT_TRUE(decoded.has_value()) << "data positions wrong";
      EXPECT_EQ(*decoded, value);

      // A data position that is right on stripe 0 and wrong after it: it
      // enters the trusted set, so the bulk pass must rebuild the set.
      received.assign(fresh.begin(), fresh.end());
      received[n - 1].reset();
      for (size_t s = 1; s < (*received[1]).size(); ++s) (*received[1])[s] ^= 0x5a;
      decoded = code.decode(received);
      ASSERT_TRUE(decoded.has_value()) << "data position wrong after stripe 0";
      EXPECT_EQ(*decoded, value);
    }
  }
}

// An empty view is an erasure, exactly like an absent owned element, and
// so is a present element of size 0: the decoder must never bucket either
// as a size-0 group.
TEST(MdsDecodeViews, EmptyViewsAreErasures) {
  Rng rng(2300);
  for (const auto layout : {RsLayout::kCoefficients, RsLayout::kSystematic}) {
    const auto code = MdsCode::for_bcsr(11, 2, layout);
    const Bytes value = random_value(rng, 777);
    const auto fresh = code.encode(value);
    std::vector<BytesView> views(fresh.begin(), fresh.end());
    views[3] = BytesView{};
    const Bytes empty;
    views[7] = empty;  // a present element of size 0
    const auto from_views = code.decode(views);
    ASSERT_TRUE(from_views.has_value());
    EXPECT_EQ(*from_views, value);
    std::vector<std::optional<Bytes>> owned(fresh.begin(), fresh.end());
    owned[3].reset();
    owned[7] = Bytes{};
    EXPECT_EQ(code.decode(owned), from_views);

    // Too many erasures: every view empty, or fewer than k present.
    EXPECT_FALSE(code.decode(std::vector<BytesView>(11)).has_value());
    std::vector<BytesView> sparse(11);
    EXPECT_FALSE(code.decode(sparse).has_value());
  }
}

// One large-value sweep (the 0 - 1 MiB end of the range) at the acceptance
// configuration (n = 11, f = 2): every kernel must produce bit-identical
// elements and survive the worst-case mix.
TEST_F(RegionKernelTest, MegabyteValueBitIdenticalAndDecodable) {
  const auto code = MdsCode::for_bcsr(11, 2);
  Rng rng(77);
  const Bytes value = random_value(rng, (1u << 20) - 13);
  const Bytes old_value = random_value(rng, value.size());

  std::optional<std::vector<Bytes>> first;
  for (const auto k : available_kernels()) {
    ASSERT_TRUE(gf::force_kernel(k));
    auto elements = code.encode(value);
    if (!first) {
      first = std::move(elements);
      continue;
    }
    ASSERT_EQ(elements, *first) << gf::kernel_name(k);
  }

  const auto stale = code.encode(old_value);
  std::vector<std::optional<Bytes>> received(11);
  for (size_t i = 0; i < 11 - 2; ++i) received[i] = (*first)[i];
  received[0] = random_value(rng, (*first)[0].size());  // garbage
  received[1] = random_value(rng, (*first)[1].size());  // garbage
  received[2] = stale[2];
  received[3] = stale[3];
  gf::reset_kernel();
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

}  // namespace
}  // namespace bftreg::codec
