// Value-level MDS codec: the paper's Phi / Phi^{-1} (Section IV-A).
//
// Splits a value into k elements, produces n coded elements (one per
// server), and reconstructs the value from any set of received elements
// containing at least k + 2e consistent ones, tolerating up to e erroneous
// elements. The BCSR parameterization is k = n - 5f, giving e <= 2f error
// tolerance with m = n - f responses, exactly the budget Lemma 4 consumes.
//
// Wire format: the value length is prepended to the payload before
// encoding, so decoding is self-delimiting; a 32-bit checksum of the value
// (`value_checksum`) is included as well, which lets `decode` reject the
// (concurrency-induced) case where stripes decode to a mix of two different
// writes.
//
// Striping layout (shard-major): the padded payload
//   [len u32][checksum u32][value][zero pad]          (stripes * k bytes)
// is cut into k contiguous shards of `stripes` bytes each; data symbol j of
// stripe s is payload[j * stripes + s]. With shards contiguous, encoding an
// element is k coeff x shard region products (gf_region.h) instead of a
// per-stripe column-major scatter, and the erasure-decode fast path applies
// the precomputed interpolation matrix as region ops over whole received
// elements. Berlekamp-Welch remains the per-stripe slow path.
//
// Code layout: BCSR's code (for_bcsr) is systematic (RsLayout::
// kSystematic), so elements 0..k-1 ARE the k data shards and only the
// n - k parity elements cost arithmetic. Any [n, k] Reed-Solomon code is MDS and Berlekamp-Welch
// decodes it, so Lemma 4's budget is the same for either layout. A read
// whose trusted set is the k data positions decodes with an identity map:
// materialization is k memcpys (the region kernels' 1/0 fast paths), and
// only the verification of the extra positions does GF arithmetic.
//
// No payload scratch: the padded payload above is never built. Encode
// reads each shard piecewise from an 8-byte stack header, the caller's
// value and an implicit zero pad; decode writes the header into a stack
// array and the value (plus pad) straight into the buffer it returns,
// then checks the checksum and trims the pad.
//
// Elements reach decode as views (ReceivedElements): the reader's copies
// of them alias the frames they arrived in (registers/messages.h), so a
// received element is never copied before the decoder reads it.
#pragma once

#include <concepts>
#include <optional>
#include <span>
#include <vector>

#include "codec/rs.h"
#include "common/types.h"

namespace bftreg::codec {

/// The elements a read received, indexed by server position; an empty
/// view is an erasure (no response, or an empty element). Borrowed: the
/// viewed bytes must outlive the decode call.
class ReceivedElements {
 public:
  /// Any contiguous range of views (std::vector<BytesView>, std::array, a
  /// span).
  template <typename R>
    requires std::constructible_from<std::span<const BytesView>, const R&>
  // NOLINTNEXTLINE(google-explicit-constructor): decode(views) reads best.
  ReceivedElements(const R& views) : views_(views) {}

  /// Views of owned elements (nullopt = erasure), for callers that hold
  /// their elements as Bytes (tests, benches, e2ebench's codec ceiling).
  // NOLINTNEXTLINE(google-explicit-constructor): decode(owned) reads best.
  ReceivedElements(const std::vector<std::optional<Bytes>>& owned);

  ReceivedElements(const ReceivedElements&) = delete;
  ReceivedElements& operator=(const ReceivedElements&) = delete;

  size_t size() const { return views_.size(); }
  BytesView operator[](size_t i) const { return views_[i]; }

 private:
  /// Backing store for the owned-elements constructor only.
  std::vector<BytesView> owned_views_;
  std::span<const BytesView> views_;
};

class MdsCode {
 public:
  /// Requires 1 <= k <= n <= 255.
  explicit MdsCode(size_t n, size_t k,
                   RsLayout layout = RsLayout::kCoefficients);

  /// The paper's BCSR code: k = n - 5f (requires n >= 5f + 1), systematic
  /// unless asked otherwise. Clients and servers both build theirs here.
  static MdsCode for_bcsr(size_t n, size_t f,
                          RsLayout layout = RsLayout::kSystematic);

  size_t n() const { return rs_.n(); }
  size_t k() const { return rs_.k(); }
  RsLayout layout() const { return rs_.layout(); }

  /// Header prepended to the value before striping: u32 length + u32
  /// checksum (little-endian). Public so differential tests can rebuild the
  /// padded payload independently.
  static constexpr size_t kHeaderBytes = 8;

  /// The header's checksum of a value: four 64-bit multiply-rotate lanes
  /// over 32-byte blocks, folded with the length and the tail and then
  /// avalanched. Word-at-a-time: ~10 GB/s where the byte-serial FNV-1a
  /// it replaced ran at ~0.7 GB/s (docs/PERF.md). Not a MAC: the
  /// channel MAC authenticates elements; this only catches a decode that
  /// stitched two writes together.
  static uint32_t value_checksum(BytesView value);

  /// Coded-element size (bytes) for a value of `value_size` bytes; every
  /// element has this same size. Approximately value_size / k.
  size_t element_size(size_t value_size) const;

  /// Encodes `value` into n coded elements.
  std::vector<Bytes> encode(BytesView value) const;

  /// Decodes from per-server elements (index = server position; an empty
  /// view = no response / erasure). Tolerates up to floor((m - k) / 2)
  /// erroneous elements among the m same-sized present ones. Returns
  /// nullopt if no consistent value can be reconstructed.
  std::optional<Bytes> decode(const ReceivedElements& elements) const;

 private:
  struct Group;

  std::optional<Bytes> decode_group(const Group& g,
                                    const ReceivedElements& elements) const;

  RsCode rs_;
};

}  // namespace bftreg::codec
