// Unit + property tests for the GF(2^8) / Reed-Solomon / Berlekamp-Welch /
// MdsCode stack (the paper's Phi and Phi^{-1}, Section IV-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "codec/gf256.h"
#include "codec/gf_linalg.h"
#include "codec/mds_code.h"
#include "codec/rs.h"
#include "common/rng.h"

namespace bftreg::codec {
namespace {

// ---------------------------------------------------------------- GF(2^8)

TEST(Gf256Test, AddIsXor) {
  EXPECT_EQ(gf::add(0x57, 0x83), 0x57 ^ 0x83);
  EXPECT_EQ(gf::add(0, 0xFF), 0xFF);
}

TEST(Gf256Test, MulByZeroAndOne) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf::mul(static_cast<uint8_t>(a), 0), 0);
    EXPECT_EQ(gf::mul(static_cast<uint8_t>(a), 1), a);
  }
}

TEST(Gf256Test, MulCommutesAndAssociates) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint8_t>(rng.uniform(256));
    const auto b = static_cast<uint8_t>(rng.uniform(256));
    const auto c = static_cast<uint8_t>(rng.uniform(256));
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
  }
}

TEST(Gf256Test, MulDistributesOverAdd) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint8_t>(rng.uniform(256));
    const auto b = static_cast<uint8_t>(rng.uniform(256));
    const auto c = static_cast<uint8_t>(rng.uniform(256));
    EXPECT_EQ(gf::mul(a, gf::add(b, c)), gf::add(gf::mul(a, b), gf::mul(a, c)));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = gf::inv(static_cast<uint8_t>(a));
    EXPECT_EQ(gf::mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256Test, DivIsMulByInverse) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<uint8_t>(rng.uniform(256));
    const auto b = static_cast<uint8_t>(1 + rng.uniform(255));
    EXPECT_EQ(gf::div(a, b), gf::mul(a, gf::inv(b)));
  }
}

TEST(Gf256Test, PowMatchesRepeatedMul) {
  for (int a = 0; a < 256; a += 7) {
    uint8_t acc = 1;
    for (unsigned p = 0; p < 12; ++p) {
      EXPECT_EQ(gf::pow(static_cast<uint8_t>(a), p), acc);
      acc = gf::mul(acc, static_cast<uint8_t>(a));
    }
  }
}

TEST(Gf256Test, GeneratorHasFullOrder) {
  // g = 2 generates all 255 nonzero elements.
  std::set<uint8_t> seen;
  for (unsigned i = 0; i < 255; ++i) seen.insert(gf::exp_table(i));
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(seen.count(0), 0u);
}

// ------------------------------------------------------------- Linear algebra

TEST(GfLinalgTest, SolveIdentity) {
  GfMatrix a(3, 3);
  for (int i = 0; i < 3; ++i) a.at(i, i) = 1;
  auto x = gf_solve(a, {5, 6, 7});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, (std::vector<uint8_t>{5, 6, 7}));
}

TEST(GfLinalgTest, SolveRandomInvertibleSystems) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.uniform(8);
    GfMatrix a(n, n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) {
        a.at(r, c) = static_cast<uint8_t>(rng.uniform(256));
      }
    }
    std::vector<uint8_t> x_true(n);
    for (auto& v : x_true) v = static_cast<uint8_t>(rng.uniform(256));
    const auto b = a.apply(x_true);
    auto x = gf_solve(a, b);
    ASSERT_TRUE(x.has_value());
    // The system may be singular (random matrix); verify Ax = b rather
    // than x == x_true.
    EXPECT_EQ(a.apply(*x), b);
  }
}

TEST(GfLinalgTest, DetectsInconsistentSystem) {
  GfMatrix a(2, 1);
  a.at(0, 0) = 1;
  a.at(1, 0) = 1;
  EXPECT_FALSE(gf_solve(a, {1, 2}).has_value());
}

TEST(GfLinalgTest, OverdeterminedConsistentSystem) {
  GfMatrix a(3, 1);
  a.at(0, 0) = 2;
  a.at(1, 0) = 4;
  a.at(2, 0) = 8;
  const uint8_t x = 0x1b;
  auto sol = gf_solve(a, {gf::mul(2, x), gf::mul(4, x), gf::mul(8, x)});
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ((*sol)[0], x);
}

TEST(GfLinalgTest, InvertRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.uniform(6);
    // Vandermonde over distinct points is always invertible.
    std::vector<uint8_t> xs;
    while (xs.size() < n) {
      const auto v = static_cast<uint8_t>(1 + rng.uniform(255));
      if (std::find(xs.begin(), xs.end(), v) == xs.end()) xs.push_back(v);
    }
    const GfMatrix v = vandermonde(xs, n);
    auto inv = gf_invert(v);
    ASSERT_TRUE(inv.has_value());
    std::vector<uint8_t> e(n, 0);
    for (size_t i = 0; i < n; ++i) {
      std::fill(e.begin(), e.end(), 0);
      e[i] = 1;
      const auto col = inv->apply(v.apply(e));
      EXPECT_EQ(col, e);
    }
  }
}

TEST(GfLinalgTest, SingularMatrixNotInvertible) {
  GfMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 1;
  a.at(1, 1) = 2;
  EXPECT_FALSE(gf_invert(a).has_value());
}

// ------------------------------------------------------------ Polynomials

TEST(PolyTest, EvalMatchesManualHorner) {
  // p(x) = 3 + 2x + x^2 over GF(2^8)
  const std::vector<uint8_t> p{3, 2, 1};
  const uint8_t x = 5;
  const uint8_t expect = gf::add(gf::add(3, gf::mul(2, x)), gf::mul(x, x));
  EXPECT_EQ(poly_eval(p, x), expect);
}

TEST(PolyTest, ExactDivision) {
  // (x + a)(x + b) / (x + a) == (x + b)
  const uint8_t a = 17;
  const uint8_t b = 101;
  // (x+a)(x+b) = x^2 + (a+b) x + ab
  const std::vector<uint8_t> num{gf::mul(a, b), gf::add(a, b), 1};
  auto q = poly_divide_exact(num, {a, 1});
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, (std::vector<uint8_t>{b, 1}));
}

TEST(PolyTest, InexactDivisionRejected) {
  // x^2 + 1 is not divisible by x + 2 (remainder nonzero in GF(2^8)).
  auto q = poly_divide_exact({1, 0, 1}, {2, 1});
  EXPECT_FALSE(q.has_value());
}

TEST(PolyTest, DivisionByZeroRejected) {
  EXPECT_FALSE(poly_divide_exact({1, 2}, {0}).has_value());
}

// ------------------------------------------------------------ Reed-Solomon

TEST(RsCodeTest, EncodeInterpolateRoundTrip) {
  const RsCode rs(10, 4);
  const std::vector<uint8_t> data{11, 22, 33, 44};
  const auto coded = rs.encode_stripe(data.data());
  ASSERT_EQ(coded.size(), 10u);

  std::vector<ReceivedSymbol> syms;
  for (size_t i : {1u, 4u, 7u, 9u}) syms.push_back({i, coded[i]});
  auto decoded = rs.interpolate(syms);
  ASSERT_TRUE(decoded.has_value());
  decoded->resize(4);
  EXPECT_EQ(*decoded, data);
}

TEST(RsCodeTest, InterpolateRejectsDuplicatePositions) {
  const RsCode rs(6, 2);
  std::vector<ReceivedSymbol> syms{{1, 5}, {1, 5}};
  EXPECT_FALSE(rs.interpolate(syms).has_value());
}

TEST(RsCodeTest, AnyKSubsetDecodes) {
  // The MDS property itself: every k-subset of coded symbols reconstructs.
  const RsCode rs(6, 3);
  const std::vector<uint8_t> data{0xDE, 0xAD, 0x42};
  const auto coded = rs.encode_stripe(data.data());
  for (size_t a = 0; a < 6; ++a) {
    for (size_t b = a + 1; b < 6; ++b) {
      for (size_t c = b + 1; c < 6; ++c) {
        std::vector<ReceivedSymbol> syms{{a, coded[a]}, {b, coded[b]}, {c, coded[c]}};
        auto d = rs.interpolate(syms);
        ASSERT_TRUE(d.has_value());
        d->resize(3);
        EXPECT_EQ(*d, data);
      }
    }
  }
}

TEST(RsCodeTest, BwDecodeNoErrors) {
  const RsCode rs(11, 3);
  const std::vector<uint8_t> data{7, 8, 9};
  const auto coded = rs.encode_stripe(data.data());
  std::vector<ReceivedSymbol> syms;
  for (size_t i = 0; i < 11; ++i) syms.push_back({i, coded[i]});
  auto d = rs.bw_decode(syms, 4);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, data);
}

TEST(RsCodeTest, BwDecodeCorrectsErrors) {
  const RsCode rs(11, 3);  // can fix up to (11-3)/2 = 4 errors
  const std::vector<uint8_t> data{1, 2, 3};
  const auto coded = rs.encode_stripe(data.data());
  Rng rng(6);
  for (size_t errors = 1; errors <= 4; ++errors) {
    std::vector<ReceivedSymbol> syms;
    for (size_t i = 0; i < 11; ++i) syms.push_back({i, coded[i]});
    // Corrupt `errors` distinct symbols.
    for (size_t e = 0; e < errors; ++e) {
      syms[e * 2].value ^= static_cast<uint8_t>(1 + rng.uniform(255));
    }
    auto d = rs.bw_decode(syms, 4);
    ASSERT_TRUE(d.has_value()) << errors << " errors";
    EXPECT_EQ(*d, data) << errors << " errors";
  }
}

TEST(RsCodeTest, BwDecodeHandlesErasuresPlusErrors) {
  const RsCode rs(16, 4);
  std::vector<uint8_t> data{9, 9, 9, 9};
  const auto coded = rs.encode_stripe(data.data());
  // Receive only 10 of 16 (6 erasures): budget = (10-4)/2 = 3 errors.
  std::vector<ReceivedSymbol> syms;
  for (size_t i = 0; i < 10; ++i) syms.push_back({i, coded[i]});
  syms[0].value ^= 0x55;
  syms[5].value ^= 0xAA;
  syms[9].value ^= 0x0F;
  auto d = rs.bw_decode(syms, 3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, data);
}

TEST(RsCodeTest, BwDecodeFailsBeyondBudget) {
  const RsCode rs(7, 3);  // budget (7-3)/2 = 2
  const std::vector<uint8_t> data{1, 2, 3};
  auto coded = rs.encode_stripe(data.data());
  std::vector<ReceivedSymbol> syms;
  for (size_t i = 0; i < 7; ++i) syms.push_back({i, coded[i]});
  // Three coordinated corruptions exceed the budget; decode must either
  // fail or (never) return a wrong word silently. We assert it does not
  // return the original -- distance > e -- and in fact reports failure
  // because no codeword is within distance 2 of this word.
  syms[0].value ^= 1;
  syms[1].value ^= 2;
  syms[2].value ^= 3;
  auto d = rs.bw_decode(syms, 2);
  if (d.has_value()) {
    // If anything decodes, it must be a word within distance 2; verify.
    size_t disagree = 0;
    for (auto& s : syms) {
      if (poly_eval(*d, rs.alpha(s.position)) != s.value) ++disagree;
    }
    EXPECT_LE(disagree, 2u);
  }
}

TEST(RsCodeTest, BwDecodeTooFewSymbolsFails) {
  const RsCode rs(9, 4);
  std::vector<ReceivedSymbol> syms{{0, 1}, {1, 2}, {2, 3}};  // m = 3 < k
  EXPECT_FALSE(rs.bw_decode(syms, 2).has_value());
}

// Property sweep: random data, random error patterns within budget.
struct RsParam {
  size_t n;
  size_t k;
};

class RsPropertyTest : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsPropertyTest, RandomErrorsWithinBudgetAlwaysDecode) {
  const auto [n, k] = GetParam();
  const RsCode rs(n, k);
  Rng rng(1000 + n * 7 + k);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<uint8_t> data(k);
    for (auto& v : data) v = static_cast<uint8_t>(rng.uniform(256));
    const auto coded = rs.encode_stripe(data.data());

    // Random subset of received positions (m of n), random errors <= budget.
    std::vector<size_t> positions(n);
    for (size_t i = 0; i < n; ++i) positions[i] = i;
    rng.shuffle(positions);
    const size_t m = k + rng.uniform(n - k + 1);
    positions.resize(m);

    std::vector<ReceivedSymbol> syms;
    for (size_t p : positions) syms.push_back({p, coded[p]});
    const size_t budget = rs.max_errors(m);
    const size_t errors = rng.uniform(budget + 1);
    for (size_t e = 0; e < errors; ++e) {
      syms[e].value ^= static_cast<uint8_t>(1 + rng.uniform(255));
    }

    auto d = rs.bw_decode(syms, budget);
    ASSERT_TRUE(d.has_value())
        << "n=" << n << " k=" << k << " m=" << m << " errors=" << errors;
    EXPECT_EQ(*d, data);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RsPropertyTest,
                         ::testing::Values(RsParam{5, 1}, RsParam{6, 1},
                                           RsParam{7, 3}, RsParam{11, 6},
                                           RsParam{16, 11}, RsParam{21, 16},
                                           RsParam{31, 11}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "k" +
                                  std::to_string(info.param.k);
                         });

// --------------------------------------------------- systematic layout

TEST(RsSystematicTest, DataSymbolsPassThrough) {
  const RsCode rs(10, 4, RsLayout::kSystematic);
  const std::vector<uint8_t> data{11, 22, 33, 44};
  const auto coded = rs.encode_stripe(data.data());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(coded[i], data[i]) << "systematic symbol " << i;
  }
}

TEST(RsSystematicTest, ParityMakesItTheSamePolynomialCode) {
  // Systematic symbols must still lie on a degree < k polynomial evaluated
  // at the alphas -- i.e. B-W and interpolation work unchanged.
  const RsCode rs(9, 3, RsLayout::kSystematic);
  const std::vector<uint8_t> data{7, 77, 177};
  const auto coded = rs.encode_stripe(data.data());
  std::vector<ReceivedSymbol> syms;
  for (size_t i : {4u, 6u, 8u}) syms.push_back({i, coded[i]});  // parity only
  auto coeffs = rs.interpolate(syms);
  ASSERT_TRUE(coeffs.has_value());
  coeffs->resize(3, 0);
  EXPECT_EQ(rs.coeffs_to_data(*coeffs), data);
}

TEST(RsSystematicTest, BwDecodeCorrectsErrorsInSystematicLayout) {
  const RsCode rs(11, 3, RsLayout::kSystematic);
  const std::vector<uint8_t> data{1, 2, 3};
  const auto coded = rs.encode_stripe(data.data());
  std::vector<ReceivedSymbol> syms;
  for (size_t i = 0; i < 11; ++i) syms.push_back({i, coded[i]});
  syms[0].value ^= 0x11;  // corrupt a data symbol
  syms[7].value ^= 0x22;  // corrupt a parity symbol
  auto coeffs = rs.bw_decode(syms, 4);
  ASSERT_TRUE(coeffs.has_value());
  EXPECT_EQ(rs.coeffs_to_data(*coeffs), data);
}

TEST(MdsSystematicTest, RoundTripAndWorstCaseMix) {
  const MdsCode code(11, 3, RsLayout::kSystematic);
  Bytes value;
  for (int i = 0; i < 777; ++i) value.push_back(static_cast<uint8_t>(i * 31));
  const auto elements = code.encode(value);

  // All present.
  std::vector<std::optional<Bytes>> received(11);
  for (size_t i = 0; i < 11; ++i) received[i] = elements[i];
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);

  // Lemma 4 mix: garbage + stale within budget.
  const Bytes old_value(777, 0x5A);
  const auto old_elements = code.encode(old_value);
  received[2] = old_elements[2];
  received[9] = old_elements[9];
  Rng rng(31);
  for (auto& b : *received[5]) b = static_cast<uint8_t>(rng.uniform(256));
  decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

TEST(MdsSystematicTest, LayoutsProduceDifferentParityButSameData) {
  const MdsCode coef(8, 3);
  const MdsCode sys(8, 3, RsLayout::kSystematic);
  const Bytes value(100, 0x3C);
  const auto e1 = coef.encode(value);
  const auto e2 = sys.encode(value);
  EXPECT_NE(e1, e2);  // different codeword mapping...
  std::vector<std::optional<Bytes>> r1(8), r2(8);
  for (size_t i = 0; i < 8; ++i) {
    r1[i] = e1[i];
    r2[i] = e2[i];
  }
  EXPECT_EQ(coef.decode(r1).value(), value);  // ...same decoded value
  EXPECT_EQ(sys.decode(r2).value(), value);
}

// ------------------------------------------------------------ MdsCode facade

TEST(MdsCodeTest, ElementSizeApproximatesValueOverK) {
  const MdsCode code(11, 6);
  // 6000-byte value: payload 6008, elements ceil(6008/6) = 1002 bytes.
  EXPECT_EQ(code.element_size(6000), 1002u);
}

TEST(MdsCodeTest, ForBcsrUsesPaperParameterization) {
  const auto code = MdsCode::for_bcsr(11, 2);  // n = 5f+1
  EXPECT_EQ(code.k(), 1u);
  const auto code2 = MdsCode::for_bcsr(16, 2);
  EXPECT_EQ(code2.k(), 6u);
}

TEST(MdsCodeTest, EncodeDecodeRoundTripAllPresent) {
  const MdsCode code(10, 4);
  Bytes value;
  for (int i = 0; i < 1000; ++i) value.push_back(static_cast<uint8_t>(i * 37));
  const auto elements = code.encode(value);
  ASSERT_EQ(elements.size(), 10u);

  std::vector<std::optional<Bytes>> received(10);
  for (size_t i = 0; i < 10; ++i) received[i] = elements[i];
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

TEST(MdsCodeTest, DecodesFromExactlyKElements) {
  const MdsCode code(10, 4);
  Bytes value{1, 2, 3, 4, 5};
  const auto elements = code.encode(value);
  std::vector<std::optional<Bytes>> received(10);
  received[2] = elements[2];
  received[3] = elements[3];
  received[5] = elements[5];
  received[8] = elements[8];
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

TEST(MdsCodeTest, FailsBelowKElements) {
  const MdsCode code(10, 4);
  const auto elements = code.encode(Bytes{1, 2, 3});
  std::vector<std::optional<Bytes>> received(10);
  received[0] = elements[0];
  received[1] = elements[1];
  received[2] = elements[2];
  EXPECT_FALSE(code.decode(received).has_value());
}

TEST(MdsCodeTest, ToleratesCorruptElementsWithinBudget) {
  const MdsCode code(11, 3);  // m=11 => budget (11-3)/2 = 4
  Bytes value;
  for (int i = 0; i < 500; ++i) value.push_back(static_cast<uint8_t>(i));
  const auto elements = code.encode(value);
  std::vector<std::optional<Bytes>> received(11);
  for (size_t i = 0; i < 11; ++i) received[i] = elements[i];
  // Corrupt 4 elements entirely (simulates Byzantine servers).
  Rng rng(8);
  for (size_t i : {0u, 3u, 7u, 10u}) {
    for (auto& b : *received[i]) b = static_cast<uint8_t>(rng.uniform(256));
  }
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

TEST(MdsCodeTest, ToleratesStaleElements) {
  // Stale = coded element of an older value: the paper's second kind of
  // "erroneous" element (Section IV-A).
  const MdsCode code(11, 3);
  Bytes old_value(300, 0xAA);
  Bytes new_value(300, 0xBB);
  const auto old_el = code.encode(old_value);
  const auto new_el = code.encode(new_value);
  std::vector<std::optional<Bytes>> received(11);
  for (size_t i = 0; i < 11; ++i) received[i] = new_el[i];
  received[1] = old_el[1];
  received[4] = old_el[4];
  received[6] = old_el[6];
  received[9] = old_el[9];
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, new_value);
}

TEST(MdsCodeTest, MixedSizeLiesAreExcluded) {
  const MdsCode code(11, 3);
  Bytes value(100, 0x11);
  const auto elements = code.encode(value);
  std::vector<std::optional<Bytes>> received(11);
  for (size_t i = 0; i < 11; ++i) received[i] = elements[i];
  // Two Byzantine servers report elements of a bogus size.
  received[0] = Bytes(999, 0xFF);
  received[5] = Bytes(7, 0x00);
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

TEST(MdsCodeTest, EmptyValueRoundTrip) {
  const MdsCode code(6, 1);
  const auto elements = code.encode(Bytes{});
  std::vector<std::optional<Bytes>> received(6);
  received[3] = elements[3];
  auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(MdsCodeTest, ValueChecksumSeesEveryByteWordOrderAndLength) {
  Bytes value(203);
  for (size_t i = 0; i < value.size(); ++i) value[i] = static_cast<uint8_t>(i * 7 + 1);
  const uint32_t base = MdsCode::value_checksum(value);
  // One flipped bit anywhere: the 32-byte blocks, the word tail, the byte tail.
  for (size_t i = 0; i < value.size(); ++i) {
    Bytes v = value;
    v[i] ^= 0x10;
    EXPECT_NE(MdsCode::value_checksum(v), base) << "byte " << i;
  }
  // Two words swapped inside one block, and two whole blocks swapped.
  Bytes words = value;
  std::swap_ranges(words.begin(), words.begin() + 8, words.begin() + 8);
  EXPECT_NE(MdsCode::value_checksum(words), base);
  Bytes blocks = value;
  std::swap_ranges(blocks.begin(), blocks.begin() + 32, blocks.begin() + 32);
  EXPECT_NE(MdsCode::value_checksum(blocks), base);
  // Zero padding changes the length, and the length is hashed.
  EXPECT_NE(MdsCode::value_checksum(Bytes(8, 0)), MdsCode::value_checksum(Bytes(9, 0)));
  EXPECT_NE(MdsCode::value_checksum(Bytes{}), MdsCode::value_checksum(Bytes(1, 0)));
}

TEST(MdsCodeTest, AllAbsentFails) {
  const MdsCode code(6, 1);
  std::vector<std::optional<Bytes>> received(6);
  EXPECT_FALSE(code.decode(received).has_value());
}

// BCSR-shaped property sweep: n = 5f+1+extra, m = n-f responses, up to 2f
// erroneous elements -- the exact situation of Lemma 4.
struct BcsrCodecParam {
  size_t n;
  size_t f;
  RsLayout layout;
};

class BcsrCodecPropertyTest : public ::testing::TestWithParam<BcsrCodecParam> {};

TEST_P(BcsrCodecPropertyTest, Lemma4Scenario) {
  const auto [n, f, layout] = GetParam();
  const auto code = MdsCode::for_bcsr(n, f, layout);
  Rng rng(2000 + n * 13 + f);
  for (int trial = 0; trial < 25; ++trial) {
    Bytes new_value(64 + rng.uniform(256), 0);
    for (auto& b : new_value) b = static_cast<uint8_t>(rng.uniform(256));
    Bytes old_value(new_value.size(), 0);  // same size: worst case for grouping
    for (auto& b : old_value) b = static_cast<uint8_t>(rng.uniform(256));

    const auto new_el = code.encode(new_value);
    const auto old_el = code.encode(old_value);

    // n-f responses; up to 2f erroneous among them (f Byzantine + f stale).
    std::vector<size_t> positions(n);
    for (size_t i = 0; i < n; ++i) positions[i] = i;
    rng.shuffle(positions);

    std::vector<std::optional<Bytes>> received(n);
    for (size_t i = 0; i < n - f; ++i) {
      const size_t pos = positions[i];
      if (i < f) {
        // Byzantine: random garbage of the correct size.
        Bytes junk(new_el[pos].size());
        for (auto& b : junk) b = static_cast<uint8_t>(rng.uniform(256));
        received[pos] = junk;
      } else if (i < 2 * f) {
        received[pos] = old_el[pos];  // stale honest server
      } else {
        received[pos] = new_el[pos];  // up-to-date honest server
      }
    }
    auto decoded = code.decode(received);
    ASSERT_TRUE(decoded.has_value()) << "n=" << n << " f=" << f;
    EXPECT_EQ(*decoded, new_value);
  }
}

std::vector<BcsrCodecParam> bcsr_codec_params() {
  std::vector<BcsrCodecParam> out;
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

INSTANTIATE_TEST_SUITE_P(Sweep, BcsrCodecPropertyTest,
                         ::testing::ValuesIn(bcsr_codec_params()),
                         [](const auto& info) {
                           return std::string(info.param.layout ==
                                                      RsLayout::kSystematic
                                                  ? "sys_"
                                                  : "coef_") +
                                  "n" + std::to_string(info.param.n) + "f" +
                                  std::to_string(info.param.f);
                         });

}  // namespace
}  // namespace bftreg::codec
