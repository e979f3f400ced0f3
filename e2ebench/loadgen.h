// Open-loop load shape, the percentile rule, window scoring and the
// max-rate search. Pure of any cluster so the self-tests can drive them
// with fake transports and synthetic latency curves.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace bftreg::e2e {

/// Nearest-rank percentile of `v` (sorted in place); 0 on empty.
double percentile(std::vector<double>& v, double p);

/// The highest percentile in {99.99, 99.9, 99, 90, 50}, capped at `cap`,
/// that has at least ten samples beyond it; 0 when even p50 does not.
double supported_percentile(size_t samples, double cap = 99.0);

/// A tail latency and the percentile it was taken at.
struct Tail {
  double us{0};
  double pct{0};  // 0 when no percentile is supported
};

/// Tail latency of samples cut into `slices` (consecutive windows, or
/// consecutive parts of one window): the median over slices of each
/// slice's `pct`-th percentile when every slice supports it, so one
/// scheduler stall moves one slice and not the result; otherwise the
/// highest supported percentile up to `pct` of all samples pooled.
Tail robust_tail(const std::vector<std::vector<double>>& slices,
                 double pct = 99);

/// Latency limits of one workload.
struct Limits {
  double read_us{0};
  double write_us{0};
  /// Largest failed fraction a passing window may show.
  double failed_frac{0};
};

/// What one measured window at a fixed offered rate produced.
struct Window {
  double rate{0};
  std::vector<double> read_us;   // completed reads, from intended start
  std::vector<double> write_us;  // completed writes, from intended start
  std::vector<double> lag_us;    // generator lateness per issued op
  double generator_cpu_s{0};
  uint64_t attempted{0};
  uint64_t failed{0};  // timed out or never completed within the grace
  /// (seconds into the window, operations outstanding), sampled by the
  /// generator as it issues.
  std::vector<std::pair<double, double>> backlog;
};

/// Least-squares growth of the outstanding-operation count, in ops/s.
double backlog_growth(const std::vector<std::pair<double, double>>& samples);

struct Score {
  /// Tails are robust_tail() over four consecutive quarters of the window.
  /// False when the generator itself ran late by more than the tightest
  /// latency limit: the window did not offer its rate and is not scored.
  bool valid{false};
  bool pass{false};
  double read_tail_us{0};
  double write_tail_us{0};
  double lag_p99_us{0};
  std::string why;
};

Score score_window(Window w, const Limits& limits);

/// Drives `issue(i, intended_ns)` from one generator thread (started and
/// joined by the call) on a fixed schedule: op i is due at t0 + i / rate,
/// and is issued no earlier. A
/// slow issue() delays every later op, whose lateness (and, since latency
/// is measured from the intended start, whose latency) then carries the
/// stall. `outstanding`, when given, is sampled every few ops into
/// `backlog`.
struct OpenLoopStats {
  uint64_t issued{0};
  double cpu_s{0};  // CPU time of the generator thread
  std::vector<double> lag_us;
  std::vector<std::pair<double, double>> backlog;
};
OpenLoopStats run_open_loop(double rate, double seconds,
                            const std::function<void(uint64_t, int64_t)>& issue,
                            const std::function<uint64_t()>& outstanding = {});

/// Highest offered rate for which `probe(rate)` passes, found with
/// `steps` probes: grow (or shrink) geometrically by 1.5x from `start`
/// until pass and fail are bracketed, then bisect geometrically.
struct SearchResult {
  double max_rate{0};
  std::vector<std::pair<double, bool>> probes;
};
SearchResult search_max_rate(double start, int steps,
                             const std::function<bool(double)>& probe);

}  // namespace bftreg::e2e
