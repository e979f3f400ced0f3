#include "codec/mds_code.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

#include "codec/gf256.h"
#include "codec/gf_region.h"
#include "common/types.h"
#include "registers/config.h"

namespace bftreg::codec {

namespace {

// xxHash64's primes; the lane round and avalanche follow the same shape.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;

inline uint64_t rotl64(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

inline uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t lane_round(uint64_t acc, uint64_t word) {
  return rotl64(acc + word * kPrime2, 31) * kPrime1;
}

/// Padded-payload scratch reused across encode calls on the same thread
/// (writers encode every PUT-DATA; the buffer stabilizes at the largest
/// value seen instead of reallocating per call).
std::vector<uint8_t>& encode_scratch() {
  thread_local std::vector<uint8_t> buf;
  return buf;
}

/// out[0, len) = sum_i coeffs[i] * shard_i[0, len), each shard a contiguous
/// byte region. The first term overwrites (mul_region memsets on a zero
/// coefficient), so `out` needs no pre-clearing.
void accumulate_row(const uint8_t* coeffs, size_t k, const uint8_t* const* shards,
                    size_t len, uint8_t* out) {
  gf::mul_region(out, shards[0], coeffs[0], len);
  for (size_t i = 1; i < k; ++i) {
    gf::mul_add_region(out, shards[i], coeffs[i], len);
  }
}

/// a (rows x inner) times b (inner x cols).
GfMatrix mat_mul(const GfMatrix& a, const GfMatrix& b) {
  assert(a.cols() == b.rows());
  GfMatrix out(a.rows(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t i = 0; i < a.cols(); ++i) {
      const uint8_t f = a.at(r, i);
      if (f == 0) continue;
      for (size_t c = 0; c < b.cols(); ++c) {
        out.at(r, c) = gf::add(out.at(r, c), gf::mul(f, b.at(i, c)));
      }
    }
  }
  return out;
}

}  // namespace

uint32_t MdsCode::value_checksum(BytesView value) {
  const uint8_t* p = value.data();
  const size_t len = value.size();
  uint64_t a0 = kPrime1 + kPrime2;
  uint64_t a1 = kPrime2;
  uint64_t a2 = 0;
  uint64_t a3 = 0 - kPrime1;
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    a0 = lane_round(a0, load_le64(p + i));
    a1 = lane_round(a1, load_le64(p + i + 8));
    a2 = lane_round(a2, load_le64(p + i + 16));
    a3 = lane_round(a3, load_le64(p + i + 24));
  }
  // Distinct rotations keep the fold sensitive to which lane held a word.
  uint64_t h = rotl64(a0, 1) + rotl64(a1, 7) + rotl64(a2, 12) + rotl64(a3, 18) +
               static_cast<uint64_t>(len);
  for (; i + 8 <= len; i += 8) {
    h = rotl64(h ^ lane_round(0, load_le64(p + i)), 27) * kPrime1 + kPrime3;
  }
  if (i < len) {
    uint64_t last = 0;
    std::memcpy(&last, p + i, len - i);
    h = rotl64(h ^ lane_round(0, last), 27) * kPrime1 + kPrime3;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return static_cast<uint32_t>(h);
}

MdsCode::MdsCode(size_t n, size_t k, RsLayout layout) : rs_(n, k, layout) {}

MdsCode MdsCode::for_bcsr(size_t n, size_t f, RsLayout layout) {
  assert(n >= registers::bcsr_min_servers(f) && "BCSR requires n >= 5f + 1");
  return MdsCode(n, registers::bcsr_code_dimension(n, f), layout);
}

size_t MdsCode::element_size(size_t value_size) const {
  const size_t payload = value_size + kHeaderBytes;
  return (payload + k() - 1) / k();
}

std::vector<Bytes> MdsCode::encode(const Bytes& value) const {
  const size_t stripes = element_size(value.size());
  const size_t kk = k();

  // payload = [len u32][checksum u32][value][zero padding]; shard j is the
  // contiguous slice [j * stripes, (j+1) * stripes).
  std::vector<uint8_t>& payload = encode_scratch();
  payload.assign(stripes * kk, 0);
  const auto len = static_cast<uint32_t>(value.size());
  const uint32_t sum = value_checksum(value);
  for (size_t i = 0; i < 4; ++i) payload[i] = static_cast<uint8_t>(len >> (8 * i));
  for (size_t i = 0; i < 4; ++i) payload[4 + i] = static_cast<uint8_t>(sum >> (8 * i));
  std::copy(value.begin(), value.end(), payload.begin() + kHeaderBytes);

  std::vector<const uint8_t*> shards(kk);
  for (size_t j = 0; j < kk; ++j) shards[j] = payload.data() + j * stripes;

  // Each element is one generator row applied to the shards as whole-region
  // products -- encoded directly into its output buffer, no per-stripe
  // intermediate. Systematic identity rows reduce to a memset + memcpy
  // inside the region kernels' 0/1-coefficient fast paths.
  const GfMatrix& gen = rs_.generator();
  std::vector<Bytes> elements(n());
  for (size_t i = 0; i < n(); ++i) {
    elements[i].resize(stripes);
    accumulate_row(gen.row(i), kk, shards.data(), stripes, elements[i].data());
  }
  return elements;
}

struct MdsCode::Group {
  size_t size{0};                   // element size (== stripe count)
  std::vector<size_t> positions;    // server indices with this size
};

std::optional<Bytes> MdsCode::decode(
    const std::vector<std::optional<Bytes>>& elements) const {
  assert(elements.size() == n());

  // Bucket present elements by size; a Byzantine server lying about the
  // element size lands in a minority bucket and is simply excluded, which
  // costs it its vote but cannot corrupt a majority-size decode.
  std::map<size_t, Group> groups;
  for (size_t i = 0; i < n(); ++i) {
    if (!elements[i] || elements[i]->empty()) continue;
    Group& g = groups[elements[i]->size()];
    g.size = elements[i]->size();
    g.positions.push_back(i);
  }

  std::vector<const Group*> ordered;
  ordered.reserve(groups.size());
  for (const auto& [sz, g] : groups) ordered.push_back(&g);
  std::sort(ordered.begin(), ordered.end(), [](const Group* a, const Group* b) {
    if (a->positions.size() != b->positions.size()) {
      return a->positions.size() > b->positions.size();
    }
    return a->size > b->size;
  });

  for (const Group* g : ordered) {
    if (g->positions.size() < k()) continue;
    if (auto v = decode_group_impl(g, elements)) return v;
  }
  return std::nullopt;
}

// Out-of-line helper so the header stays minimal. Decodes one same-size
// bucket: stripe 0 via Berlekamp-Welch establishes the trusted position
// set, then -- as long as the trusted set holds -- whole data shards are
// produced by region accumulations (the per-stripe interpolation is one
// fixed k x k linear map, so it distributes over contiguous shard slices).
// A stripe where any trusted position diverges from the interpolated
// codeword (e.g. a stale element that agreed on earlier stripes) falls
// back to per-stripe Berlekamp-Welch, rebuilds the trusted set, and the
// bulk pass resumes with the new matrices. The verify/materialize passes
// run in chunks so an adversarially-placed divergence cannot waste more
// than one chunk of region work.
std::optional<Bytes> MdsCode::decode_group_impl(
    const Group* g, const std::vector<std::optional<Bytes>>& elements) const {
  const size_t stripes = g->size;
  const size_t m = g->positions.size();
  const size_t e_budget = rs_.max_errors(m);
  const size_t kk = k();
  constexpr size_t kChunk = 16384;  // bytes per shard slice per bulk step

  auto symbol_at = [&](size_t stripe) {
    std::vector<ReceivedSymbol> syms;
    syms.reserve(m);
    for (size_t pos : g->positions) {
      syms.push_back(ReceivedSymbol{pos, (*elements[pos])[stripe]});
    }
    return syms;
  };

  // The trusted set and its interpolation matrix are rebuilt whenever a
  // stripe proves them wrong. Each rebuild costs one O(k^3) inversion plus
  // a map recomputation; an adversary can force at most one rebuild per
  // corrupted element pattern, and the chunked bulk pass bounds the wasted
  // region work per rebuild.
  std::vector<size_t> good;
  std::optional<GfMatrix> inv;
  auto rebuild_trusted = [&](const std::vector<uint8_t>& coeffs,
                             size_t stripe) -> bool {
    good.clear();
    for (size_t pos : g->positions) {
      if (poly_eval(coeffs, rs_.alpha(pos)) == (*elements[pos])[stripe]) {
        good.push_back(pos);
      }
    }
    if (good.size() < kk) return false;
    std::vector<uint8_t> xs(kk);
    for (size_t i = 0; i < kk; ++i) xs[i] = rs_.alpha(good[i]);
    inv = gf_invert(vandermonde(xs, kk));
    return inv.has_value();
  };

  std::vector<uint8_t> payload(stripes * kk);
  auto store_stripe = [&](size_t s, const std::vector<uint8_t>& data) {
    for (size_t j = 0; j < kk; ++j) payload[j * stripes + s] = data[j];
  };

  auto first = rs_.bw_decode(symbol_at(0), e_budget);
  if (!first || !rebuild_trusted(*first, 0)) return std::nullopt;
  store_stripe(0, rs_.coeffs_to_data(*first));

  // d_map: data shards from the k trusted symbol shards (inv for the
  // coefficient layout; Vd x inv evaluates the polynomial at the data
  // points for the systematic layout). check: one row per *extra* trusted
  // position, predicting its symbols from the same shards (the first k
  // trusted rows are identity by construction and need no check).
  GfMatrix d_map;
  GfMatrix check;
  auto rebuild_maps = [&]() {
    if (rs_.layout() == RsLayout::kCoefficients) {
      d_map = *inv;
    } else {
      std::vector<uint8_t> data_points(kk);
      for (size_t j = 0; j < kk; ++j) data_points[j] = rs_.alpha(j);
      d_map = mat_mul(vandermonde(data_points, kk), *inv);
    }
    std::vector<uint8_t> extra_points(good.size() - kk);
    for (size_t t = kk; t < good.size(); ++t) {
      extra_points[t - kk] = rs_.alpha(good[t]);
    }
    check = mat_mul(vandermonde(extra_points, kk), *inv);
  };
  rebuild_maps();

  std::vector<const uint8_t*> shards(kk);
  std::vector<uint8_t> pred;
  size_t s = 1;
  while (s < stripes) {
    const size_t end = std::min(stripes, s + kChunk);
    const size_t len = end - s;
    for (size_t i = 0; i < kk; ++i) shards[i] = elements[good[i]]->data() + s;

    // Verify the chunk against every extra trusted position; the earliest
    // diverging stripe bounds how much of the chunk is usable.
    size_t bad = SIZE_MAX;
    pred.resize(len);
    for (size_t t = kk; t < good.size(); ++t) {
      const size_t limit = std::min(len, bad == SIZE_MAX ? len : bad - s);
      if (limit == 0) break;
      accumulate_row(check.row(t - kk), kk, shards.data(), limit, pred.data());
      const uint8_t* actual = elements[good[t]]->data() + s;
      if (std::memcmp(pred.data(), actual, limit) != 0) {
        size_t i = 0;
        while (pred[i] == actual[i]) ++i;
        bad = s + i;
      }
    }

    // Materialize data shards over the verified prefix with region ops.
    const size_t clean_end = bad == SIZE_MAX ? end : bad;
    if (clean_end > s) {
      for (size_t j = 0; j < kk; ++j) {
        accumulate_row(d_map.row(j), kk, shards.data(), clean_end - s,
                       payload.data() + j * stripes + s);
      }
      s = clean_end;
    }

    if (bad != SIZE_MAX) {
      // Divergent stripe: full Berlekamp-Welch, re-learn which positions to
      // trust, then resume the bulk pass with the new matrices.
      auto fixed = rs_.bw_decode(symbol_at(s), e_budget);
      if (!fixed || !rebuild_trusted(*fixed, s)) return std::nullopt;
      store_stripe(s, rs_.coeffs_to_data(*fixed));
      ++s;
      rebuild_maps();
    }
  }
  return finish(payload);
}

std::optional<Bytes> MdsCode::finish(const std::vector<uint8_t>& payload) const {
  if (payload.size() < kHeaderBytes) return std::nullopt;
  uint32_t len = 0;
  uint32_t sum = 0;
  for (size_t i = 0; i < 4; ++i) len |= static_cast<uint32_t>(payload[i]) << (8 * i);
  for (size_t i = 0; i < 4; ++i)
    sum |= static_cast<uint32_t>(payload[4 + i]) << (8 * i);
  if (len > payload.size() - kHeaderBytes) return std::nullopt;
  const BytesView value(payload.data() + kHeaderBytes, len);
  if (value_checksum(value) != sum) return std::nullopt;
  return Bytes(value.begin(), value.end());
}

}  // namespace bftreg::codec
