// bench_e2e: the end-to-end BSR/BCSR benchmark (see NOTES.md).
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--keys K]
//
// Stands up a full cluster of one workload (cluster.h), preloads every
// key, drives open-loop client load, checks every operation against the
// paper's safety definition, and prints a report ending in one JSON line.
//
// --trace 0 measures the end-to-end metrics on three clusters in turn:
// set-up time, the cluster's CPU time per operation and wire bytes per
// operation at the fixed nominal rate, storage cost and peak memory. It
// also prints, without a bound, the highest offered rate that meets the
// latency limits and the latency percentiles at the nominal rate.
//
// --trace 1 measures the per-layer metrics instead: an untraced search and
// nominal windows, then a traced window whose spans give each layer's self
// time, the paper's round structure (2n frames per read, 4n per write) and
// the blocking-path ledger, plus standalone codec, crypto and transport
// ceilings measured in this binary.
//
// --keys overrides the workload's key count (for working-set experiments;
// the recorded runs never pass it). Exit status is nonzero on a safety
// violation, a round-structure mismatch, or a failed preload.
#include <sys/resource.h>
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "ceilings.h"
#include "driver.h"
#include "ledger.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace bftreg::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  size_t keys{0};
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "bench_e2e: %s needs a value\n", flag.c_str());
      return std::nullopt;
    }
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--keys") {
      a.keys = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "bench_e2e: unknown flag %s\n", flag.c_str());
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--keys K]\n");
    return std::nullopt;
  }
  return a;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_host(const WorkloadSpec& spec) {
  utsname u{};
  uname(&u);
  // The library defaults the workloads keep, as resolved on this host.
  const net::TransportOptions t = net::TransportOptions{}.resolved();
  std::printf("host: nproc=%u kernel=%s %s compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), u.sysname, u.release,
              __VERSION__, E2E_BUILD_TYPE);
  std::printf("transport options (library defaults, resolved): loop_shards=%zu "
              "mailbox_shards=%zu max_outbox_bytes=%zu recv_chunk_bytes=%zu "
              "recv_pool_bytes=%zu\n",
              t.loop_shards, t.mailbox_shards, t.max_outbox_bytes,
              t.recv_chunk_bytes, t.recv_pool_bytes);
  std::printf("workload %s: %s n=%zu f=%zu byzantine=server:%u (fabricate) "
              "%s value=%zuB keys=%zu mix=%s read=%.2f clients=%zuW+%zuR "
              "limits: read %.0fus write %.0fus failed %.3f nominal=%.0f ops/s\n",
              spec.name, spec.coded ? "BCSR" : "BSR", spec.n, spec.f,
              spec.byzantine, spec.net == NetKind::kTcp ? "tcp" : "threads",
              spec.value_size, spec.keys, spec.mix.name, spec.mix.read,
              spec.writers, spec.readers, spec.limits.read_us,
              spec.limits.write_us, spec.limits.failed_frac, spec.nominal_rate);
}

/// Waits until every frame sent has been delivered or shed.
void quiesce(net::Transport& net, double timeout_s) {
  const int64_t deadline = now_ns() + static_cast<int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    const auto m = net.metrics().snapshot();
    if (m.messages_delivered + m.messages_dropped + m.auth_failures >=
        m.messages_sent) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Windows measured at the nominal rate, possibly on several clusters.
struct NominalWindows {
  std::vector<std::vector<double>> reads, writes;
  std::vector<double> lags;
  double cpu_s{0};
  double bytes{0};
  double latency_sum_us{0};
  uint64_t done{0};
  int valid{0};
  int windows{0};
};

void measure_nominal(LoadDriver& d, Cluster& c, const WorkloadSpec& spec,
                     double seconds, int windows, NominalWindows& acc) {
  for (int i = 0; i < windows; ++i) {
    const uint64_t b0 = c.transport().metrics().snapshot().bytes_sent;
    const double c0 = cpu_seconds();
    Window w = d.run_window(spec.nominal_rate, seconds / windows);
    quiesce(c.transport(), 2.0);
    const double c1 = cpu_seconds();
    const uint64_t b1 = c.transport().metrics().snapshot().bytes_sent;
    ++acc.windows;
    const Score s = score_window(w, spec.limits);
    if (!s.valid) {
      std::printf("  nominal window %d not scored: %s\n", i, s.why.c_str());
      continue;
    }
    ++acc.valid;
    acc.done += w.read_us.size() + w.write_us.size();
    acc.cpu_s += c1 - c0 - w.generator_cpu_s;  // the cluster's share
    acc.bytes += static_cast<double>(b1 - b0);
    for (double v : w.read_us) acc.latency_sum_us += v;
    for (double v : w.write_us) acc.latency_sum_us += v;
    acc.lags.insert(acc.lags.end(), w.lag_us.begin(), w.lag_us.end());
    acc.reads.push_back(std::move(w.read_us));
    acc.writes.push_back(std::move(w.write_us));
  }
}

/// Latency at the nominal rate: every percentile is robust_tail() over
/// the valid windows (the median of the per-window values).
struct Nominal {
  Tail read_p50, read_p90, read_p99;
  Tail write_p50, write_p90, write_p99;
  size_t read_n{0}, write_n{0};
  double mean_latency_us{0};
  double lag_p99{0};
  double cpu_us_per_op{0};
  double bytes_per_op{0};
  bool valid{false};  // more than half of the windows were scored
};

Nominal summarize(NominalWindows& acc, const WorkloadSpec& spec) {
  Nominal out;
  out.valid = acc.valid * 2 > acc.windows;
  for (const auto& r : acc.reads) out.read_n += r.size();
  for (const auto& w : acc.writes) out.write_n += w.size();
  out.read_p50 = robust_tail(acc.reads, 50);
  out.read_p90 = robust_tail(acc.reads, 90);
  out.read_p99 = robust_tail(acc.reads, 99);
  out.write_p50 = robust_tail(acc.writes, 50);
  out.write_p90 = robust_tail(acc.writes, 90);
  out.write_p99 = robust_tail(acc.writes, 99);
  const double done = static_cast<double>(acc.done);
  if (acc.done != 0) {
    out.mean_latency_us = acc.latency_sum_us / done;
    out.cpu_us_per_op = acc.cpu_s * 1e6 / done;
    out.bytes_per_op = acc.bytes / done;
  }
  out.lag_p99 = percentile(acc.lags, 99);
  std::printf("  nominal %.0f ops/s, %d/%d windows scored: read p50 %.1f us, "
              "p%g %.1f us, p%g %.1f us (n=%zu); write p50 %.1f us, p%g %.1f us, "
              "p%g %.1f us (n=%zu); generator lag p99 %.1f us\n",
              spec.nominal_rate, acc.valid, acc.windows, out.read_p50.us,
              out.read_p90.pct, out.read_p90.us, out.read_p99.pct,
              out.read_p99.us, out.read_n, out.write_p50.us, out.write_p90.pct,
              out.write_p90.us, out.write_p99.pct, out.write_p99.us,
              out.write_n, out.lag_p99);
  return out;
}

/// Nominal windows of about a second each, at least four.
int windows_for(double seconds) {
  return std::max(4, static_cast<int>(seconds + 0.5));
}

/// max_ops_per_s on one cluster. The search starts at twice the nominal
/// rate, near the expected knee, so most probes refine the bracket.
double search(LoadDriver& d, const WorkloadSpec& spec, double seconds) {
  constexpr int kProbes = 9;
  const double step = seconds / kProbes;
  const SearchResult r =
      search_max_rate(2 * spec.nominal_rate, kProbes, [&](double rate) {
        const Score s = score_window(d.run_window(rate, step), spec.limits);
        std::printf("  probe %8.0f ops/s: %s  read tail %.0f us, write tail "
                    "%.0f us, lag p99 %.0f us%s%s\n",
                    rate, s.pass ? "pass" : "FAIL", s.read_tail_us,
                    s.write_tail_us, s.lag_p99_us, s.why.empty() ? "" : " -- ",
                    s.why.c_str());
        return s.valid && s.pass;
      });
  std::printf("  max_ops_per_s = %.0f\n", r.max_rate);
  return r.max_rate;
}

void print_json(bool correct, uint64_t attempted, uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_ledger(const char* title, const Ledger& l) {
  const double total = l.total_ns();
  std::printf("  ledger (%s, %llu ops, blocking path of the first reply):\n",
              title, static_cast<unsigned long long>(l.ops));
  for (int r = 0; r < kLedgerRows; ++r) {
    std::printf("    %-12s %10.0f ns/op %6.1f%%\n", ledger_row_name(r), l.ns[r],
                total > 0 ? 100.0 * l.ns[r] / total : 0.0);
  }
  std::printf("    %-12s %10.0f ns/op\n", "sum", total);
}

/// Writes the spans of every 64th operation (by wire op id) next to the
/// binary, one per line: id, parent, kind, process, peer, message type, op
/// id, start and end (ns, steady clock), self time, payload bytes. Returns
/// the path, or an empty string when the file cannot be written.
std::string write_spans(const std::vector<Span>& spans, const Args& args) {
  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::read_symlink("/proc/self/exe", ec).parent_path();
  if (ec) return "";
  const std::filesystem::path path =
      dir / ("spans-" + args.workload + "-" + std::to_string(args.seed) + ".tsv");
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return "";
  std::fprintf(out, "id\tparent\tkind\tprocess\tpeer\tmsg\top_id\tstart_ns\t"
                    "end_ns\tself_ns\tbytes\n");
  for (const Span& s : spans) {
    if (s.op_id == 0 || s.op_id % 64 != 0) continue;
    std::fprintf(out, "%llx\t%llx\t%s\t%s\t%s\t%u\t%llx\t%lld\t%lld\t%lld\t%u\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), to_string(s.kind),
                 to_string(unpack(s.self)).c_str(),
                 s.peer == 0 ? "-" : to_string(unpack(s.peer)).c_str(), s.msg,
                 static_cast<unsigned long long>(s.op_id),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<long long>(s.self_ns()), s.bytes);
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? path.string() : "";
}

/// A started cluster with every key preloaded.
struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<LoadDriver> driver;
  double setup_s{0};
};

/// Cluster start, connection warm-up and preload of every key at full
/// value size; the time all of it takes is the set-up time.
std::optional<Deployment> deploy(const WorkloadSpec& spec, uint64_t seed,
                                 bool traced) {
  Deployment dep;
  const int64_t t0 = now_ns();
  dep.cluster = std::make_unique<Cluster>(spec, seed, traced);
  dep.cluster->start();
  dep.driver = std::make_unique<LoadDriver>(*dep.cluster, spec, seed);
  dep.driver->warm_up();
  dep.driver->preload();
  dep.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (dep.driver->completed() != dep.driver->attempted() ||
      dep.driver->failed() != 0) {
    std::fprintf(stderr, "bench_e2e: preload incomplete (%llu of %llu)\n",
                 static_cast<unsigned long long>(dep.driver->completed()),
                 static_cast<unsigned long long>(dep.driver->attempted()));
    return std::nullopt;
  }
  std::printf("  set-up: %.3f s\n", dep.setup_s);
  return dep;
}

/// Stops the transport first: no handler may run once the driver is gone.
void teardown(Deployment& dep) {
  dep.cluster->stop();
  dep.driver.reset();
  dep.cluster.reset();
}

/// Unscored load before a cluster's first nominal window: the first
/// second after a preload runs up to twice as slow (allocator growth,
/// first-touch page faults).
constexpr double kWarmupSeconds = 0.5;

/// Clusters set up and measured per untraced run: one cluster's thread
/// placement persists for its life and would otherwise set the result.
constexpr int kClusters = 3;

/// The end-to-end metrics. kClusters clusters are set up one after the
/// other and each is measured at the nominal rate; the max-rate search runs
/// on the first. Set-up time is the median over clusters, the per-op costs
/// are over all nominal windows.
int run_untraced(const Args& args, const WorkloadSpec& spec) {
  const int clusters = kClusters;
  const double search_s = args.seconds * 0.45;
  const double nominal_s =
      std::max(1.0, (args.seconds * 0.55 - kWarmupSeconds * clusters) / clusters);
  NominalWindows acc;
  std::vector<double> setup_s;
  double max_rate = 0;
  double rss_mb = 0;
  double storage_ratio = 0;
  bool safe = true;
  uint64_t attempted = 0, failed = 0;
  for (int i = 0; i < clusters; ++i) {
    auto dep = deploy(spec, args.seed + static_cast<uint64_t>(i), false);
    if (!dep) return 1;
    LoadDriver& d = *dep->driver;
    Cluster& c = *dep->cluster;
    setup_s.push_back(dep->setup_s);
    if (i == 0) rss_mb = peak_rss_mb();
    d.run_window(spec.nominal_rate, kWarmupSeconds);
    if (i == 0) max_rate = search(d, spec, search_s);
    measure_nominal(d, c, spec, nominal_s, windows_for(nominal_s), acc);
    d.drain(6.5);
    quiesce(c.transport(), 2.0);
    storage_ratio = static_cast<double>(c.stored_bytes()) /
                    (static_cast<double>(spec.keys) *
                     static_cast<double>(spec.value_size));
    c.stop();
    const checker::CheckResult safety = d.check_safety();
    if (!safety.ok) {
      safe = false;
      std::printf("SAFETY VIOLATION: %s\n", safety.violation.c_str());
    }
    attempted += d.attempted();
    failed += d.failed();
    teardown(*dep);
  }
  const Nominal nom = summarize(acc, spec);
  if (!nom.valid) {
    std::printf("INVALID: no more than half of the nominal windows were "
                "scored\n");
  }
  std::printf("  failed_frac = %.6f (%llu of %llu operations)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  max_ops_per_s %.0f, read p50 %.1f us, write p50 %.1f us "
              "(reported, not gated: see NOTES.md)\n",
              max_rate, nom.read_p50.us, nom.write_p50.us);
  const std::vector<Metric> metrics = {
      {"setup_s", percentile(setup_s, 50), "s"},
      {"cpu_us_per_op", nom.cpu_us_per_op, "us"},
      {"bytes_per_op", nom.bytes_per_op, "B"},
      {"storage_ratio", storage_ratio, "ratio"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  const bool correct = safe && nom.valid;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

/// The per-layer metrics, from one cluster: an untraced search and nominal
/// windows, then one traced nominal window.
int run_traced(const Args& args, const WorkloadSpec& spec) {
  auto dep = deploy(spec, args.seed, true);
  if (!dep) return 1;
  LoadDriver& d = *dep->driver;
  Cluster& c = *dep->cluster;
  const auto m0 = c.transport().metrics().snapshot();

  d.run_window(spec.nominal_rate, kWarmupSeconds);
  const double max_rate = search(d, spec, args.seconds * 0.4);
  NominalWindows plain_windows;
  measure_nominal(d, c, spec, args.seconds * 0.35,
                  windows_for(args.seconds * 0.35), plain_windows);
  const Nominal plain = summarize(plain_windows, spec);

  Tracer& tracer = Tracer::instance();
  tracer.clear();
  const auto t_m0 = c.transport().metrics().snapshot();
  const double t_c0 = cpu_seconds();
  tracer.set_enabled(true);
  // Spans cost ~60 B each and an op makes about 6n of them: two seconds
  // of traced load is plenty and keeps memory bounded.
  Window traced =
      d.run_window(spec.nominal_rate, std::min(2.0, args.seconds * 0.25));
  quiesce(c.transport(), 2.0);
  tracer.set_enabled(false);
  const double t_c1 = cpu_seconds();
  const auto t_m1 = c.transport().metrics().snapshot();
  const uint64_t traced_done = traced.read_us.size() + traced.write_us.size();
  double traced_sum = 0;
  for (double v : traced.read_us) traced_sum += v;
  for (double v : traced.write_us) traced_sum += v;
  const double traced_mean_us =
      traced_done == 0 ? 0 : traced_sum / static_cast<double>(traced_done);
  const double traced_cpu_us =
      traced_done == 0 ? 0
                       : (t_c1 - t_c0 - traced.generator_cpu_s) * 1e6 /
                             static_cast<double>(traced_done);
  const double frames_per_op =
      traced_done == 0 ? 0
                       : static_cast<double>(t_m1.messages_sent - t_m0.messages_sent) /
                             static_cast<double>(traced_done);

  d.drain(6.5);
  quiesce(c.transport(), 2.0);
  const auto m1 = c.transport().metrics().snapshot();
  uint64_t retransmits = 0, decode_fallbacks = 0;
  for (auto& cl : c.clients()) {
    retransmits += cl.retransmits();
    decode_fallbacks += cl.decode_failures();
  }
  const uint64_t partial_writes = c.partial_writes();
  const uint64_t epollout_wakes = c.epollout_wakes();
  c.stop();
  const checker::CheckResult safety = d.check_safety();
  if (!safety.ok) std::printf("SAFETY VIOLATION: %s\n", safety.violation.c_str());

  const std::vector<Span> spans = tracer.collect();
  const TraceReport tr = analyze(spans, spec.n, spec.f,
                                 pack(ProcessId::server(spec.byzantine)));
  tracer.clear();
  const std::string span_file = write_spans(spans, args);
  std::printf("  spans of every 64th op written to %s\n",
              span_file.empty() ? "(nowhere: write failed)" : span_file.c_str());
  std::printf("  traced window: %zu spans, %llu reads (%.1f distinct frames "
              "each, expect %zu), %llu writes (%.1f each, expect %zu), %llu "
              "retransmitted frames\n",
              spans.size(), static_cast<unsigned long long>(tr.reads),
              tr.read_frames, 2 * spec.n,
              static_cast<unsigned long long>(tr.writes), tr.write_frames,
              4 * spec.n, static_cast<unsigned long long>(tr.retransmitted_frames));
  if (tr.round_violations != 0) {
    std::printf("ROUND STRUCTURE MISMATCH (%llu ops): %s\n",
                static_cast<unsigned long long>(tr.round_violations),
                tr.first_violation.c_str());
  }

  // --- standalone layers and ceilings ----------------------------------------
  const CodecTimes codec = codec_times(spec, args.seed);
  const double seal = seal_ns(tr.frame_sizes);
  const double frames_s = transport_frames_per_s(
      spec, static_cast<size_t>(tr.request_bytes),
      static_cast<size_t>(tr.reply_bytes), 1.0);
  const double cores = std::thread::hardware_concurrency();
  const double transport_ceiling = frames_per_op > 0 ? frames_s / frames_per_op : 0;
  const double crypto_ceiling =
      seal > 0 ? cores * 1e9 / (2.0 * seal * frames_per_op) : 0;
  const double codec_cost_us = (1.0 - spec.mix.read) * codec.encode_us +
                               spec.mix.read * codec.decode_us;
  const double codec_ceiling = codec_cost_us > 0 ? cores * 1e6 / codec_cost_us : 0;
  double lowest = transport_ceiling;
  for (const double ceil : {crypto_ceiling, codec_ceiling}) {
    if (ceil > 0 && (lowest == 0 || ceil < lowest)) lowest = ceil;
  }
  const double efficiency = lowest > 0 ? max_rate / lowest : 0;

  print_ledger("all ops", tr.all_ledger);
  if (tr.read_ledger.ops != 0) print_ledger("reads", tr.read_ledger);
  if (tr.write_ledger.ops != 0) print_ledger("writes", tr.write_ledger);
  const double coverage =
      traced_mean_us > 0 ? tr.all_ledger.total_ns() / (traced_mean_us * 1e3) : 0;
  std::printf("  ledger sum %.0f ns vs measured mean latency %.0f ns of the "
              "traced window (coverage %.3f)\n",
              tr.all_ledger.total_ns(), traced_mean_us * 1e3, coverage);
  std::printf("  ceilings (ops/s): transport %.0f (%.0f frames/s / %.1f "
              "frames/op), crypto %.0f (seal %.0f ns x2 x frames/op, %g cores), "
              "codec %s%.0f; max_ops_per_s %.0f -> efficiency %.3f of the "
              "lowest ceiling\n",
              transport_ceiling, frames_s, frames_per_op, crypto_ceiling, seal,
              cores, codec_ceiling > 0 ? "" : "n/a ", codec_ceiling, max_rate,
              efficiency);

  const double cpu_overhead =
      plain.cpu_us_per_op > 0
          ? 100.0 * (traced_cpu_us - plain.cpu_us_per_op) / plain.cpu_us_per_op
          : 0;
  const double latency_overhead =
      plain.mean_latency_us > 0
          ? 100.0 * (traced_mean_us - plain.mean_latency_us) / plain.mean_latency_us
          : 0;
  std::printf("  tracing overhead: cpu/op %+.1f%%, mean latency %+.1f%%\n",
              cpu_overhead, latency_overhead);

  const bool correct = safety.ok && tr.round_violations == 0 && tr.reads + tr.writes > 0;
  const std::vector<Metric> metrics = {
      {"client.issue_us", tr.issue_us, "us"},
      {"client.reply_us", tr.reply_us, "us"},
      {"client.quorum_wait_us", tr.quorum_wait_us, "us"},
      {"client.replies_per_op", tr.replies_per_op, "count"},
      {"client.useful_reply_ratio", tr.useful_reply_ratio, "ratio"},
      {"client.retransmits", static_cast<double>(retransmits), "count"},
      {"client.decode_fallbacks", static_cast<double>(decode_fallbacks), "count"},
      {"net.send_us", tr.send_us, "us"},
      {"net.request_wait_us", tr.request_wait_us, "us"},
      {"net.reply_wait_us", tr.reply_wait_us, "us"},
      {"net.frames_per_op", frames_per_op, "count"},
      {"net.drops", static_cast<double>(m1.messages_dropped - m0.messages_dropped), "count"},
      {"runtime.mailbox_overflows",
       static_cast<double>(m1.mailbox_overflows - m0.mailbox_overflows), "count"},
      {"socknet.partial_writes", static_cast<double>(partial_writes), "count"},
      {"socknet.epollout_wakes", static_cast<double>(epollout_wakes), "count"},
      {"server.query_us", tr.query_us, "us"},
      {"server.put_us", tr.put_us, "us"},
      {"server.batch_end_us", tr.batch_end_us, "us"},
      {"server.msgs_per_batch", tr.msgs_per_batch, "count"},
      {"codec.encode_us", codec.encode_us, "us"},
      {"codec.decode_us", codec.decode_us, "us"},
      {"crypto.seal_ns", seal, "ns"},
      {"process.cpu_us_per_op", plain.cpu_us_per_op, "us"},
      {"loadgen.lag_p99_us", plain.lag_p99, "us"},
      {"ledger.queue_ns", tr.all_ledger.ns[kQueue], "ns"},
      {"ledger.issue_ns", tr.all_ledger.ns[kIssue], "ns"},
      {"ledger.request_leg_ns", tr.all_ledger.ns[kRequestLeg], "ns"},
      {"ledger.server_ns", tr.all_ledger.ns[kServer], "ns"},
      {"ledger.batch_end_ns", tr.all_ledger.ns[kBatchEnd], "ns"},
      {"ledger.reply_leg_ns", tr.all_ledger.ns[kReplyLeg], "ns"},
      {"ledger.quorum_wait_ns", tr.all_ledger.ns[kQuorumWait], "ns"},
      {"ledger.coverage", coverage, "ratio"},
      {"ledger.efficiency", efficiency, "ratio"},
      {"ceiling.transport_ops_per_s", transport_ceiling, "1/s"},
      {"ceiling.crypto_ops_per_s", crypto_ceiling, "1/s"},
      {"ceiling.codec_ops_per_s", codec_ceiling, "1/s"},
      {"paper.read_write_p50_ratio",
       plain.write_p50.us > 0 ? plain.read_p50.us / plain.write_p50.us : 0,
       "ratio"},
      {"paper.read_frames", tr.read_frames, "count"},
      {"paper.write_frames", tr.write_frames, "count"},
      {"trace.cpu_overhead_pct", cpu_overhead, "%"},
      {"trace.latency_overhead_pct", latency_overhead, "%"},
      {"search.max_ops_per_s", max_rate, "1/s"},
      {"nominal.read_p50_us", plain.read_p50.us, "us"},
      {"nominal.write_p50_us", plain.write_p50.us, "us"},
      {"nominal.read_p90_us", plain.read_p90.us, "us"},
      {"nominal.read_p99_us", plain.read_p99.us, "us"},
      {"nominal.write_p90_us", plain.write_p90.us, "us"},
      {"nominal.write_p99_us", plain.write_p99.us, "us"},
  };
  print_json(correct, d.attempted(), d.failed(), metrics);
  teardown(*dep);
  return correct ? 0 : 1;
}

int run(const Args& args) {
  const WorkloadSpec* found = find_workload(args.workload);
  if (!found) {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *found;
  if (args.keys != 0) spec.keys = args.keys;
  print_host(spec);
  return args.trace ? run_traced(args, spec) : run_untraced(args, spec);
}

}  // namespace
}  // namespace bftreg::e2e

int main(int argc, char** argv) {
  const auto args = bftreg::e2e::parse(argc, argv);
  if (!args) return 2;
  return bftreg::e2e::run(*args);
}
