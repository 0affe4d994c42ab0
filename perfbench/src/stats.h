// The benchmark's own arithmetic: quantiles and the percentile rule, AUC,
// the sustained-rate decision for an open-loop rung, the closed-loop window
// rate, and span self times.
// Header-only so perfbench_selftest checks exactly what perfbench runs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample (q in (0, 1]).
/// Sorts `v` in place. 0 when empty.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double target = q * static_cast<double>(v->size());
  size_t rank = static_cast<size_t>(std::ceil(target));
  if (rank < 1) rank = 1;
  if (rank > v->size()) rank = v->size();
  return (*v)[rank - 1];
}

/// Median of a copy (even counts take the lower middle, as Quantile does).
inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

/// Per-window quantiles: the samples are cut into consecutive windows of
/// `window_s` by due time (`due_s`, seconds from the phase's start), the
/// q-quantile is taken in each window holding at least `min_samples`, and
/// the `across`-quantile of those window values is returned (the median
/// by default). With the median, a single stall raises one window's value
/// and leaves the result alone, while load the service cannot carry raises
/// every window; this is the tail that judges a rung. With no window full
/// enough this is the q-quantile of the whole phase.
inline double WindowedQuantile(const std::vector<double>& due_s,
                               const std::vector<double>& values,
                               double window_s, double q, size_t min_samples,
                               double across = 0.5) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < values.size() && i < due_s.size(); ++i) {
    const size_t w = static_cast<size_t>(std::max(0.0, due_s[i]) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> tails;
  for (std::vector<double>& w : windows) {
    if (w.size() >= min_samples) tails.push_back(Quantile(&w, q));
  }
  if (tails.empty()) {
    std::vector<double> all = values;
    return Quantile(&all, q);
  }
  return Quantile(&tails, across);
}

/// Closed-loop throughput: operations are counted per whole window of
/// `window_s` over [0, span_s) by their time `t_s` (seconds from the
/// phase's start); the mean of the middle half of the window counts (a
/// quarter of the windows dropped at each end), over `window_s`, is
/// returned. A host hiccup lowers one window and leaves the result alone.
/// 0 when the span holds no whole window.
inline double WindowedRate(const std::vector<double>& t_s, double window_s,
                           double span_s) {
  const size_t n = static_cast<size_t>(span_s / window_s);
  if (n == 0) return 0.0;
  std::vector<double> counts(n, 0.0);
  for (double t : t_s) {
    if (t < 0.0) continue;
    const size_t w = static_cast<size_t>(t / window_s);
    if (w < n) counts[w] += 1.0;
  }
  std::sort(counts.begin(), counts.end());
  double sum = 0.0;
  for (size_t i = n / 4; i < n - n / 4; ++i) sum += counts[i];
  return sum / static_cast<double>(n - 2 * (n / 4)) / window_s;
}

/// The percentile rule: the highest of the standard percentiles that has at
/// least ten samples beyond it, i.e. n * (1 - p/100) >= 10. Returns 0 when
/// even the median is unsupported (n < 20).
inline double SupportedPercentile(size_t n) {
  static const double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

/// Rank-based ROC AUC with mid-ranks for tied scores (Mann-Whitney U).
/// Returns 0.5 when either class is empty.
inline double Auc(const std::vector<double>& scores,
                  const std::vector<int>& labels) {
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double pos = 0.0, neg = 0.0, rank_sum = 0.0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double mid_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] != 0) rank_sum += mid_rank;
    }
    i = j;
  }
  for (int l : labels) (l != 0 ? pos : neg) += 1.0;
  if (pos == 0.0 || neg == 0.0) return 0.5;
  return (rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg);
}

/// What one open-loop rung measured, for the sustained-rate decision.
struct RungOutcome {
  double offered_per_s = 0.0;
  /// The rate the rung delivered: operations over the time from its first
  /// due time to its last send (edges) or answer (queries); close to the
  /// offered rate on a sustained rung.
  double achieved_per_s = 0.0;
  double tail_latency_ms = 0.0;    // the rung's p99 of the gated latency
  double latency_limit_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Backlog (operations due but not yet completed) sampled through the
  /// rung at a fixed interval.
  std::vector<double> backlog;
};

/// Backlog growth over a rung: the median of the last fifth of the samples
/// minus the median of the first fifth.
inline double BacklogGrowth(const std::vector<double>& backlog) {
  if (backlog.size() < 5) return 0.0;
  const size_t fifth = backlog.size() / 5;
  std::vector<double> head(backlog.begin(), backlog.begin() + fifth);
  std::vector<double> tail(backlog.end() - fifth, backlog.end());
  return Median(tail) - Median(head);
}

/// A rung is sustained when nothing failed, the tail latency is within its
/// limit, and the backlog did not grow by more than 50 ms of offered work
/// (at least 16 operations).
inline bool RungSustained(const RungOutcome& r) {
  if (r.attempted == 0 || r.failed != 0) return false;
  if (r.tail_latency_ms > r.latency_limit_ms) return false;
  const double allowed = std::max(16.0, r.offered_per_s * 0.05);
  return BacklogGrowth(r.backlog) <= allowed;
}

/// The rate the highest sustained rung of a ladder achieved; 0 when no
/// rung was sustained. A rung above a failed one can still count, since a
/// rung can fail on a stall that the next one does not hit.
inline double MaxSustainedRate(const std::vector<RungOutcome>& rungs) {
  const RungOutcome* best = nullptr;
  for (const RungOutcome& r : rungs) {
    if (RungSustained(r) &&
        (best == nullptr || r.offered_per_s > best->offered_per_s)) {
      best = &r;
    }
  }
  return best == nullptr ? 0.0 : best->achieved_per_s;
}

/// Measure of the union of half-open intervals [start, end).
inline uint64_t UnionNs(std::vector<std::pair<uint64_t, uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  uint64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else if (e > cur_e) {
      cur_e = e;
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Self time of a span: its duration minus the part of [start, end) that
/// its child spans cover (children clipped to the parent; overlapping
/// children are counted once).
inline uint64_t SelfTimeNs(uint64_t start, uint64_t end,
                           const std::vector<std::pair<uint64_t, uint64_t>>&
                               children) {
  if (end <= start) return 0;
  std::vector<std::pair<uint64_t, uint64_t>> clipped;
  clipped.reserve(children.size());
  for (const auto& [s, e] : children) {
    const uint64_t cs = std::max(s, start), ce = std::min(e, end);
    if (ce > cs) clipped.emplace_back(cs, ce);
  }
  return (end - start) - UnionNs(std::move(clipped));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
