// E8 -- codec feasibility (Section IV-A): throughput of the [n, k] MDS
// code with k = n - 5f and Berlekamp-Welch error decoding.
//
// Two modes:
//
//  * default: google-benchmark microbenchmarks -- encode, erasure-only
//    decode (bulk interpolation path), and decode under the full Lemma 4
//    error budget (f Byzantine-garbage + f stale elements). Each run is
//    labeled with the active gf_region kernel (override via the
//    BFTREG_GF_KERNEL env var). Expected shape: encode/decode scale
//    linearly in value size; error decoding costs a small constant factor
//    over the clean path thanks to chunked verify-then-materialize.
//
//  * `bench_codec --json=PATH [--quick]`: skips google-benchmark and emits
//    a machine-readable throughput snapshot -- encode / decode-clean /
//    decode-adversarial MB/s per (n, f, size, kernel), iterating over every
//    region kernel the host supports -- plus seal MB/s of the channel MAC
//    at 64 B, 1 KiB and 22 KiB (a BCSR coded element) for every lane
//    kernel the host supports. A seal hashes payloads below
//    crypto::kBulkMacBytes with siphash24 and the rest with the 8-lane
//    tree, so the 64 B rows gate the short-frame path and the larger rows
//    the named kernel. The value checksum inside encode/decode is part of
//    the codec rows. CI diffs this against the checked-in BENCH_codec.json
//    baseline with tools/bench_regress (fails on > 20% regression).
//    `--quick` shortens the per-point measurement window.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codec/gf_region.h"
#include "codec/mds_code.h"
#include "common/rng.h"
#include "crypto/auth.h"
#include "crypto/siphash.h"
#include "workload/workload.h"

using namespace bftreg;

namespace {

void bm_encode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t f = static_cast<size_t>(state.range(1));
  const size_t size = static_cast<size_t>(state.range(2));
  const auto code = codec::MdsCode::for_bcsr(n, f);
  const Bytes value = workload::make_value(1, 0, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(value));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.counters["k"] = static_cast<double>(code.k());
  state.SetLabel(codec::gf::kernel_name(codec::gf::active_kernel()));
}

void bm_decode_clean(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t f = static_cast<size_t>(state.range(1));
  const size_t size = static_cast<size_t>(state.range(2));
  const auto code = codec::MdsCode::for_bcsr(n, f);
  const Bytes value = workload::make_value(1, 0, size);
  const auto elements = code.encode(value);
  std::vector<BytesView> received(n);  // what a read decodes: frame views
  for (size_t i = 0; i < n - f; ++i) received[i] = elements[i];  // f erasures
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(received));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.SetLabel(codec::gf::kernel_name(codec::gf::active_kernel()));
}

/// The Lemma 4 worst case: f garbage + f stale among n - f received.
std::vector<std::optional<Bytes>> adversarial_responses(
    const codec::MdsCode& code, const Bytes& value, const Bytes& old_value) {
  const size_t n = code.n();
  const size_t f = (n - code.k()) / 5;
  const auto elements = code.encode(value);
  const auto old_elements = code.encode(old_value);
  Rng rng(7);
  std::vector<std::optional<Bytes>> received(n);
  for (size_t i = 0; i < n - f; ++i) received[i] = elements[i];
  for (size_t i = 0; i < f; ++i) {
    Bytes junk(elements[i].size());  // garbage of the right size
    for (auto& b : junk) b = static_cast<uint8_t>(rng.uniform(256));
    received[i] = junk;
    received[f + i] = old_elements[f + i];  // stale
  }
  return received;
}

void bm_decode_adversarial(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t f = static_cast<size_t>(state.range(1));
  const size_t size = static_cast<size_t>(state.range(2));
  const auto code = codec::MdsCode::for_bcsr(n, f);
  const Bytes value = workload::make_value(1, 0, size);
  const Bytes old_value = workload::make_value(1, 1, size);
  const auto received = adversarial_responses(code, value, old_value);
  const codec::ReceivedElements views(received);  // built once, not timed
  for (auto _ : state) {
    auto out = code.decode(views);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.SetLabel(codec::gf::kernel_name(codec::gf::active_kernel()));
}

void codec_args(benchmark::internal::Benchmark* b) {
  for (int64_t size : {1 << 10, 16 << 10, 256 << 10}) {
    b->Args({6, 1, size});    // n = 5f+1, k = 1 (worst storage ratio)
    b->Args({11, 1, size});   // k = 6
    b->Args({16, 2, size});   // k = 6, f = 2
    b->Args({21, 3, size});   // k = 6, f = 3
  }
}

BENCHMARK(bm_encode)->Apply(codec_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_decode_clean)->Apply(codec_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_decode_adversarial)->Apply(codec_args)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------- JSON mode

/// MB/s of `fn` (which processes `bytes` per call), measured by running it
/// in batches until the window elapses and keeping the best batch rate.
template <typename Fn>
double measure_mbps(size_t bytes, double window_seconds, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  // Calibrate a batch size of roughly 10ms.
  size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    if (dt >= 0.01 || batch >= (1u << 20)) break;
    batch *= 4;
  }
  double best = 0.0;
  const auto deadline = clock::now() + std::chrono::duration<double>(window_seconds);
  do {
    const auto t0 = clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    const double mbps =
        static_cast<double>(batch * bytes) / (dt * 1024.0 * 1024.0);
    if (mbps > best) best = mbps;
  } while (clock::now() < deadline);
  return best;
}

struct JsonConfig {
  size_t n;
  size_t f;
  size_t size;
};

int run_json_mode(const std::string& path, bool quick) {
  // (n, f, size) grid; (11, 2, 64 KiB) is the acceptance configuration.
  const JsonConfig configs[] = {
      {6, 1, 65536},  {11, 1, 65536},   {11, 2, 65536},
      {16, 2, 65536}, {11, 2, 1 << 20}, {21, 3, 262144},
  };
  const double window = quick ? 0.06 : 0.5;

  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "bench_codec: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"bftreg-bench-codec-v1\",\n");
  std::fprintf(out, "  \"quick\": %s,\n  \"results\": [", quick ? "true" : "false");

  bool first = true;
  for (const auto k :
       {codec::gf::RegionKernel::kScalar, codec::gf::RegionKernel::kSwar,
        codec::gf::RegionKernel::kSsse3, codec::gf::RegionKernel::kAvx2}) {
    if (!codec::gf::kernel_available(k)) continue;
    codec::gf::force_kernel(k);
    for (const auto& cfg : configs) {
      const auto code = codec::MdsCode::for_bcsr(cfg.n, cfg.f);
      const Bytes value = workload::make_value(1, 0, cfg.size);
      const Bytes old_value = workload::make_value(1, 1, cfg.size);
      const auto clean_owned = [&] {
        auto r = code.encode(value);
        std::vector<std::optional<Bytes>> received(cfg.n);
        for (size_t i = 0; i < cfg.n - cfg.f; ++i) received[i] = std::move(r[i]);
        return received;
      }();
      const auto adv_owned = adversarial_responses(code, value, old_value);
      const codec::ReceivedElements clean(clean_owned);
      const codec::ReceivedElements adv(adv_owned);

      const double enc = measure_mbps(cfg.size, window,
                                      [&] { benchmark::DoNotOptimize(code.encode(value)); });
      const double dec_clean = measure_mbps(cfg.size, window,
                                            [&] { benchmark::DoNotOptimize(code.decode(clean)); });
      const double dec_adv = measure_mbps(cfg.size, window,
                                          [&] { benchmark::DoNotOptimize(code.decode(adv)); });

      std::fprintf(out,
                   "%s\n    {\"n\": %zu, \"f\": %zu, \"size\": %zu, "
                   "\"kernel\": \"%s\", \"encode_mbps\": %.1f, "
                   "\"decode_clean_mbps\": %.1f, \"decode_adv_mbps\": %.1f}",
                   first ? "" : ",", cfg.n, cfg.f, cfg.size,
                   codec::gf::kernel_name(k), enc, dec_clean, dec_adv);
      first = false;
      std::fprintf(stderr, "  %-6s n=%2zu f=%zu size=%7zu  enc %8.1f  clean %8.1f  adv %8.1f MB/s\n",
                   codec::gf::kernel_name(k), cfg.n, cfg.f, cfg.size, enc,
                   dec_clean, dec_adv);
    }
  }
  codec::gf::reset_kernel();

  const crypto::SipHashKey key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const Bytes frame = workload::make_value(2, 0, 22528);
  for (const auto k : {crypto::LaneKernel::kScalar, crypto::LaneKernel::kAvx2,
                       crypto::LaneKernel::kAvx512}) {
    if (!crypto::lane_kernel_available(k)) continue;
    for (const size_t size : {size_t{64}, size_t{1024}, size_t{22528}}) {
      // Authenticator::seal's dispatch rule, with the lane kernel pinned.
      const double seal = measure_mbps(size, window, [&] {
        benchmark::DoNotOptimize(
            size < crypto::kBulkMacBytes
                ? crypto::siphash24(key, frame.data(), size)
                : crypto::siphash24_lanes_as(k, key, frame.data(), size));
      });
      std::fprintf(out, ",\n    {\"mac\": \"%s\", \"size\": %zu, \"seal_mbps\": %.1f}",
                   crypto::lane_kernel_name(k), size, seal);
      std::fprintf(stderr, "  mac %-6s size=%7zu  seal %8.1f MB/s\n",
                   crypto::lane_kernel_name(k), size, seal);
    }
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "bench_codec: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return run_json_mode(json_path, quick);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
