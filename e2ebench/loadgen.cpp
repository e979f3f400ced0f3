#include "loadgen.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "trace.h"

namespace bftreg::e2e {

namespace {

/// Backlog growth, as a share of the offered rate, that fails a window:
/// a cluster 2 % short of the offered rate is saturated.
constexpr double kMaxBacklogGrowth = 0.02;

/// Operations between two backlog samples.
constexpr uint64_t kSampleEvery = 32;

/// Splits samples kept in issue order into `parts` consecutive slices.
std::vector<std::vector<double>> split(const std::vector<double>& v,
                                       size_t parts) {
  std::vector<std::vector<double>> out(parts);
  for (size_t i = 0; i < parts; ++i) {
    out[i].assign(v.begin() + static_cast<ptrdiff_t>(v.size() * i / parts),
                  v.begin() + static_cast<ptrdiff_t>(v.size() * (i + 1) / parts));
  }
  return out;
}

/// ceil(p% of n), immune to 99.9 / 100 * n landing a hair above an integer.
double nearest_rank(double p, size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = nearest_rank(p, v.size());
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double supported_percentile(size_t samples, double cap) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (p > cap) continue;
    // Samples strictly beyond the nearest-rank p-th percentile.
    const double beyond = static_cast<double>(samples) - nearest_rank(p, samples);
    if (beyond >= 10) return p;
  }
  return 0;
}

Tail robust_tail(const std::vector<std::vector<double>>& slices, double pct) {
  Tail t;
  if (slices.empty()) return t;
  size_t smallest = SIZE_MAX;
  for (const auto& s : slices) smallest = std::min(smallest, s.size());
  if (supported_percentile(smallest, pct) == pct) {
    std::vector<double> tails;
    for (auto s : slices) tails.push_back(percentile(s, pct));
    return Tail{percentile(tails, 50), pct};
  }
  std::vector<double> pooled;
  for (const auto& s : slices) pooled.insert(pooled.end(), s.begin(), s.end());
  t.pct = supported_percentile(pooled.size(), pct);
  if (t.pct != 0) t.us = percentile(pooled, t.pct);
  return t;
}

double backlog_growth(const std::vector<std::pair<double, double>>& samples) {
  if (samples.size() < 2) return 0;
  double mt = 0, mb = 0;
  for (const auto& [t, b] : samples) {
    mt += t;
    mb += b;
  }
  mt /= static_cast<double>(samples.size());
  mb /= static_cast<double>(samples.size());
  double cov = 0, var = 0;
  for (const auto& [t, b] : samples) {
    cov += (t - mt) * (b - mb);
    var += (t - mt) * (t - mt);
  }
  return var == 0 ? 0 : cov / var;
}

Score score_window(Window w, const Limits& limits) {
  Score s;
  s.lag_p99_us = percentile(w.lag_us, 99);
  s.read_tail_us = robust_tail(split(w.read_us, 4)).us;
  s.write_tail_us = robust_tail(split(w.write_us, 4)).us;
  const double tightest = std::min(limits.read_us, limits.write_us);
  s.valid = s.lag_p99_us <= tightest;
  if (!s.valid) {
    s.why = "generator lag p99 " + std::to_string(s.lag_p99_us) +
            " us over the latency limit";
    return s;
  }
  const double failed_frac =
      w.attempted == 0 ? 1.0
                       : static_cast<double>(w.failed) /
                             static_cast<double>(w.attempted);
  // A sustainable rate leaves the outstanding count flat; one the cluster
  // cannot absorb grows it at (offered - served) ops/s.
  const double growth = backlog_growth(w.backlog);
  if (s.read_tail_us > limits.read_us) {
    s.why = "read tail over limit";
  } else if (s.write_tail_us > limits.write_us) {
    s.why = "write tail over limit";
  } else if (failed_frac > limits.failed_frac) {
    s.why = "failed fraction over bound";
  } else if (growth > kMaxBacklogGrowth * w.rate) {
    s.why = "backlog growing by " + std::to_string(static_cast<int64_t>(growth)) +
            " ops/s";
  } else {
    s.pass = true;
  }
  return s;
}

OpenLoopStats run_open_loop(double rate, double seconds,
                            const std::function<void(uint64_t, int64_t)>& issue,
                            const std::function<uint64_t()>& outstanding) {
  OpenLoopStats out;
  // The generator spins, so it runs on its own thread at the lowest
  // priority: a cluster thread that wakes up preempts it at once instead of
  // waiting out its time slice, and the spin only soaks up idle CPU.
  std::thread generator([&] {
    (void)setpriority(PRIO_PROCESS, 0, 19);  // Linux: this thread only
    const auto total = static_cast<uint64_t>(rate * seconds);
    out.lag_us.reserve(total);
    const int64_t t0 = now_ns();
    const double period_ns = 1e9 / rate;
    for (uint64_t i = 0; i < total; ++i) {
      const int64_t intended =
          t0 + static_cast<int64_t>(period_ns * static_cast<double>(i));
      // Yield-spin rather than sleep: a sleeping thread on a virtualized
      // host wakes up to milliseconds late, which would swamp the lateness
      // being measured.
      int64_t now = now_ns();
      while (now < intended) {
        std::this_thread::yield();
        now = now_ns();
      }
      if (outstanding && i % kSampleEvery == 0) {
        out.backlog.emplace_back(static_cast<double>(now - t0) / 1e9,
                                 static_cast<double>(outstanding()));
      }
      out.lag_us.push_back(
          static_cast<double>(std::max<int64_t>(0, now - intended)) / 1e3);
      issue(i, intended);
      ++out.issued;
    }
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    out.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  });
  generator.join();
  return out;
}

SearchResult search_max_rate(double start, int steps,
                             const std::function<bool(double)>& probe) {
  SearchResult out;
  auto run = [&](double rate) {
    const bool ok = probe(rate);
    out.probes.emplace_back(rate, ok);
    return ok;
  };
  double lo = 0;  // highest passing rate seen
  double hi = 0;  // lowest failing rate seen
  double r = start;
  int left = steps;
  if (left-- > 0 && run(r)) {
    lo = r;
    while (left-- > 0) {
      r *= 1.5;
      if (!run(r)) {
        hi = r;
        break;
      }
      lo = r;
    }
  } else {
    hi = r;
    while (left-- > 0) {
      r /= 1.5;
      if (run(r)) {
        lo = r;
        break;
      }
      hi = r;
    }
  }
  while (left-- > 0 && lo > 0 && hi > 0) {
    const double mid = std::sqrt(lo * hi);
    if (run(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.max_rate = lo;
  return out;
}

}  // namespace bftreg::e2e
