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

/// out[0, len) = sum_i coeffs[i] * shard_i[off, off + len), each shard a
/// contiguous byte region. The first nonzero term overwrites, so `out`
/// needs no pre-clearing, and an identity row is one memcpy (the region
/// kernels' 1-coefficient fast path) rather than a memset plus an xor.
void accumulate_row(const uint8_t* coeffs, size_t k, const uint8_t* const* shards,
                    size_t off, size_t len, uint8_t* out) {
  size_t i = 0;
  while (i < k && coeffs[i] == 0) ++i;
  if (i == k) {
    std::memset(out, 0, len);
    return;
  }
  gf::mul_region(out, shards[i] + off, coeffs[i], len);
  for (++i; i < k; ++i) {
    gf::mul_add_region(out, shards[i] + off, coeffs[i], len);
  }
}

void store_le32(uint8_t* p, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t load_le32(const uint8_t* p) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
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

std::vector<Bytes> MdsCode::encode(BytesView value) const {
  const size_t stripes = element_size(value.size());
  const size_t kk = k();
  const size_t len = value.size();

  // The payload [len u32][checksum u32][value][zero pad] is never built:
  // payload byte p is header[p] below kHeaderBytes, value[p - kHeaderBytes]
  // below kHeaderBytes + len, and zero above. Shard j is payload bytes
  // [j * stripes, (j+1) * stripes), so the stripe range splits into
  // segments over which every shard reads one contiguous source; the
  // header and the pad (< k bytes) make the short segments.
  uint8_t header[kHeaderBytes];
  store_le32(header, static_cast<uint32_t>(len));
  store_le32(header + 4, value_checksum(value));
  static constexpr uint8_t kZeros[256] = {};

  std::vector<size_t> cuts{0, stripes};
  for (size_t j = 0; j < kk; ++j) {
    for (const size_t b : {kHeaderBytes, kHeaderBytes + len}) {
      if (b > j * stripes && b < (j + 1) * stripes) cuts.push_back(b - j * stripes);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Each element is one generator row applied to the shards as whole-region
  // products, encoded directly into its output buffer. Systematic identity
  // rows reduce to one memcpy per segment.
  const GfMatrix& gen = rs_.generator();
  std::vector<Bytes> elements(n());
  for (Bytes& e : elements) e.resize(stripes);
  std::vector<const uint8_t*> shards(kk);
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const size_t a = cuts[c];
    for (size_t j = 0; j < kk; ++j) {
      const size_t p = j * stripes + a;
      shards[j] = p < kHeaderBytes         ? header + p
                  : p < kHeaderBytes + len ? value.data() + (p - kHeaderBytes)
                                           : kZeros;
    }
    for (size_t i = 0; i < n(); ++i) {
      accumulate_row(gen.row(i), kk, shards.data(), 0, cuts[c + 1] - a,
                     elements[i].data() + a);
    }
  }
  return elements;
}

ReceivedElements::ReceivedElements(const std::vector<std::optional<Bytes>>& owned)
    : owned_views_(owned.size()) {
  for (size_t i = 0; i < owned.size(); ++i) {
    if (owned[i]) owned_views_[i] = BytesView(*owned[i]);
  }
  views_ = owned_views_;
}

struct MdsCode::Group {
  size_t size{0};                   // element size (== stripe count)
  std::vector<size_t> positions;    // server indices with this size
};

std::optional<Bytes> MdsCode::decode(const ReceivedElements& elements) const {
  assert(elements.size() == n());

  // Bucket present elements by size; a Byzantine server lying about the
  // element size lands in a minority bucket and is simply excluded, which
  // costs it its vote but cannot corrupt a majority-size decode.
  std::map<size_t, Group> groups;
  for (size_t i = 0; i < n(); ++i) {
    if (elements[i].empty()) continue;
    Group& g = groups[elements[i].size()];
    g.size = elements[i].size();
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
    if (auto v = decode_group(*g, elements)) return v;
  }
  return std::nullopt;
}

// Decodes one same-size bucket: stripe 0 via Berlekamp-Welch establishes
// the trusted position set, then -- as long as the trusted set holds --
// whole data shards are produced by region accumulations (the per-stripe
// interpolation is one fixed k x k linear map, so it distributes over
// contiguous shard slices). A stripe where any trusted position diverges
// from the interpolated codeword (e.g. a stale element that agreed on
// earlier stripes) falls back to per-stripe Berlekamp-Welch, rebuilds the
// trusted set, and the bulk pass resumes with the new matrices. The
// verify/materialize passes run in chunks so an adversarially-placed
// divergence cannot waste more than one chunk of region work.
//
// Output goes where it ends: payload bytes below kHeaderBytes into a stack
// header, the rest into `out` (value + pad), which is trimmed to the
// header's length once the checksum matches.
std::optional<Bytes> MdsCode::decode_group(const Group& g,
                                           const ReceivedElements& elements) const {
  const size_t stripes = g.size;
  const size_t m = g.positions.size();
  const size_t e_budget = rs_.max_errors(m);
  const size_t kk = k();
  constexpr size_t kChunk = 16384;  // bytes per shard slice per bulk step
  if (stripes * kk < kHeaderBytes) return std::nullopt;  // no room for a header

  uint8_t header[kHeaderBytes];
  Bytes out(stripes * kk - kHeaderBytes);
  auto payload_at = [&](size_t p) -> uint8_t& {
    return p < kHeaderBytes ? header[p] : out[p - kHeaderBytes];
  };

  auto symbol_at = [&](size_t stripe) {
    std::vector<ReceivedSymbol> syms;
    syms.reserve(m);
    for (size_t pos : g.positions) {
      syms.push_back(ReceivedSymbol{pos, elements[pos][stripe]});
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
    for (size_t pos : g.positions) {
      if (poly_eval(coeffs, rs_.alpha(pos)) == elements[pos][stripe]) {
        good.push_back(pos);
      }
    }
    if (good.size() < kk) return false;
    std::vector<uint8_t> xs(kk);
    for (size_t i = 0; i < kk; ++i) xs[i] = rs_.alpha(good[i]);
    inv = gf_invert(vandermonde(xs, kk));
    return inv.has_value();
  };

  auto store_stripe = [&](size_t s, const std::vector<uint8_t>& data) {
    for (size_t j = 0; j < kk; ++j) payload_at(j * stripes + s) = data[j];
  };

  auto first = rs_.bw_decode(symbol_at(0), e_budget);
  if (!first || !rebuild_trusted(*first, 0)) return std::nullopt;
  store_stripe(0, rs_.coeffs_to_data(*first));

  // d_map: data shards from the k trusted symbol shards (inv for the
  // coefficient layout; Vd x inv evaluates the polynomial at the data
  // points for the systematic layout, the identity when the trusted
  // shards are the data positions). check: one row per *extra* trusted
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

  // Data shard j's stripes [s, s + len) from the trusted shards, split
  // where the payload crosses from the header into the value.
  std::vector<const uint8_t*> shards(kk);
  auto materialize = [&](size_t j, size_t s, size_t len) {
    const size_t p = j * stripes + s;
    const size_t head = p < kHeaderBytes ? std::min(len, kHeaderBytes - p) : 0;
    if (head > 0) accumulate_row(d_map.row(j), kk, shards.data(), 0, head, header + p);
    if (len > head) {
      accumulate_row(d_map.row(j), kk, shards.data(), head, len - head,
                     out.data() + (p + head - kHeaderBytes));
    }
  };

  std::vector<uint8_t> pred;
  size_t s = 1;
  while (s < stripes) {
    const size_t end = std::min(stripes, s + kChunk);
    const size_t len = end - s;
    for (size_t i = 0; i < kk; ++i) shards[i] = elements[good[i]].data() + s;

    // Verify the chunk against every extra trusted position; the earliest
    // diverging stripe bounds how much of the chunk is usable.
    size_t bad = SIZE_MAX;
    pred.resize(len);
    for (size_t t = kk; t < good.size(); ++t) {
      const size_t limit = std::min(len, bad == SIZE_MAX ? len : bad - s);
      if (limit == 0) break;
      accumulate_row(check.row(t - kk), kk, shards.data(), 0, limit, pred.data());
      const uint8_t* actual = elements[good[t]].data() + s;
      if (std::memcmp(pred.data(), actual, limit) != 0) {
        size_t i = 0;
        while (pred[i] == actual[i]) ++i;
        bad = s + i;
      }
    }

    // Materialize data shards over the verified prefix with region ops.
    const size_t clean_end = bad == SIZE_MAX ? end : bad;
    if (clean_end > s) {
      for (size_t j = 0; j < kk; ++j) materialize(j, s, clean_end - s);
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

  const uint32_t len = load_le32(header);
  if (len > out.size()) return std::nullopt;
  out.resize(len);
  if (value_checksum(out) != load_le32(header + 4)) return std::nullopt;
  return out;
}

}  // namespace bftreg::codec
