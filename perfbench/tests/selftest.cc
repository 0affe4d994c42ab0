// Self-tests of the benchmark's own arithmetic: the percentile rule,
// quantiles, AUC, the sustained-rate decision and windowed rung tail, and
// span self times.
// Run: python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void TestPercentileRule() {
  // Ten samples must lie beyond the percentile: p99 needs n >= 1000.
  EXPECT(SupportedPercentile(19) == 0.0);
  EXPECT(SupportedPercentile(20) == 50.0);
  EXPECT(SupportedPercentile(99) == 50.0);
  EXPECT(SupportedPercentile(100) == 90.0);
  EXPECT(SupportedPercentile(200) == 95.0);
  EXPECT(SupportedPercentile(999) == 95.0);
  EXPECT(SupportedPercentile(1000) == 99.0);
  EXPECT(SupportedPercentile(10000) == 99.9);
  EXPECT(SupportedPercentile(100000) == 99.99);
}

void TestQuantile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(Quantile(&v, 0.5) == 50.0);   // ceil(50) = 50th smallest
  EXPECT(Quantile(&v, 0.99) == 99.0);  // not the maximum
  EXPECT(Quantile(&v, 1.0) == 100.0);
  EXPECT(Quantile(&v, 0.001) == 1.0);
  std::vector<double> empty;
  EXPECT(Quantile(&empty, 0.5) == 0.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.0);  // lower middle
}

void TestAuc() {
  // Perfect ranking, reversed ranking, and all-tied scores.
  EXPECT(Near(Auc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0));
  EXPECT(Near(Auc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0));
  EXPECT(Near(Auc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5));
  // The positive beats one negative and ties the other: (1 + 0.5) / 2.
  EXPECT(Near(Auc({0.3, 0.7, 0.7}, {0, 0, 1}), 0.75));
  EXPECT(Near(Auc({0.1, 0.4, 0.35, 0.8}, {0, 0, 1, 1}), 0.75));
  // A class missing: undefined, reported as chance.
  EXPECT(Near(Auc({0.1, 0.2}, {1, 1}), 0.5));
}

RungOutcome Rung(double rate, double p99_ms, uint64_t failed,
                 std::vector<double> backlog) {
  RungOutcome r;
  r.offered_per_s = rate;
  r.achieved_per_s = rate - 1.0;
  r.tail_latency_ms = p99_ms;
  r.latency_limit_ms = 25.0;
  r.attempted = 1000;
  r.failed = failed;
  r.backlog = std::move(backlog);
  return r;
}

void TestSustainedDecision() {
  const std::vector<double> flat(100, 3.0);
  std::vector<double> growing;  // a backlog that climbs through the rung
  for (int i = 0; i < 100; ++i) growing.push_back(i * 10.0);
  std::vector<double> jitter;  // noise within the allowance
  for (int i = 0; i < 100; ++i) jitter.push_back(i % 2 ? 40.0 : 0.0);

  EXPECT(RungSustained(Rung(1000, 10.0, 0, flat)));
  EXPECT(!RungSustained(Rung(1000, 30.0, 0, flat)));   // latency limit
  EXPECT(!RungSustained(Rung(1000, 10.0, 1, flat)));   // a failure
  EXPECT(!RungSustained(Rung(1000, 10.0, 0, growing)));
  EXPECT(RungSustained(Rung(1000, 10.0, 0, jitter)));
  // Growth: median of the last fifth (890) minus the first fifth (90).
  EXPECT(BacklogGrowth(growing) == 800.0);
  // Allowance: 50 ms of offered work (here 5000), at least 16 operations.
  EXPECT(RungSustained(Rung(100000, 10.0, 0, growing)));

  const std::vector<RungOutcome> ladder = {
      Rung(1000, 5.0, 0, flat), Rung(1414, 8.0, 0, flat),
      Rung(2000, 40.0, 0, flat),      // over the limit
      Rung(1542, 9.0, 0, flat),       // fine rung above 1414
      Rung(1681, 12.0, 0, growing)};  // backlog grows
  EXPECT(MaxSustainedRate(ladder) == 1541.0);  // achieved at 1542
  EXPECT(MaxSustainedRate({Rung(1000, 40.0, 0, flat)}) == 0.0);
  RungOutcome none = Rung(1000, 1.0, 0, flat);
  none.attempted = 0;
  EXPECT(!RungSustained(none));
}

void TestWindowedQuantile() {
  // Four 1-second windows of 100 samples at 1.0, one window stalled at
  // 50.0: the stall decides the rung's p99 but not the windowed tail.
  std::vector<double> due, value;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 100; ++i) {
      due.push_back(w + i / 100.0);
      value.push_back(w == 2 ? 50.0 : 1.0);
    }
  }
  std::vector<double> all = value;
  EXPECT(Quantile(&all, 0.99) == 50.0);
  EXPECT(WindowedQuantile(due, value, 1.0, 0.99, 50) == 1.0);
  // Overload raises every window.
  std::vector<double> slow(value.size(), 30.0);
  EXPECT(WindowedQuantile(due, slow, 1.0, 0.99, 50) == 30.0);
  // Windows below the sample floor fall back to the whole rung.
  EXPECT(WindowedQuantile(due, value, 1.0, 0.99, 1000) == 50.0);
  // Across windows: per-window medians 1, 1, 50, 1 -> lower quartile 1,
  // top 50.
  EXPECT(WindowedQuantile(due, value, 1.0, 0.5, 50, 0.25) == 1.0);
  EXPECT(WindowedQuantile(due, value, 1.0, 0.5, 50, 1.0) == 50.0);
  // Windows 0-2 slowed by a neighbour, window 3 quiet: the lower quartile
  // of four windows is the quiet one; slowing every window moves it.
  std::vector<double> noisy = value;
  for (size_t i = 0; i < 300; ++i) noisy[i] = 9.0;
  EXPECT(WindowedQuantile(due, noisy, 1.0, 0.5, 50, 0.25) == 1.0);
  EXPECT(WindowedQuantile(due, noisy, 1.0, 0.5, 50) == 9.0);
  std::vector<double> slower(value.size(), 2.0);
  EXPECT(WindowedQuantile(due, slower, 1.0, 0.5, 50, 0.25) == 2.0);
}

void TestWindowedRate() {
  // Five 1-second windows of 100 operations, one stalled window with 10:
  // the middle half of the window rates ignores the stall.
  std::vector<double> t;
  for (int w = 0; w < 5; ++w) {
    const int n = w == 3 ? 10 : 100;
    for (int i = 0; i < n; ++i) t.push_back(w + i / static_cast<double>(n));
  }
  EXPECT(WindowedRate(t, 1.0, 5.0) == 100.0);
  EXPECT(WindowedRate(t, 0.5, 5.0) == 100.0);
  // Operations past the last whole window do not count.
  t.push_back(5.5);
  EXPECT(WindowedRate(t, 1.0, 5.9) == 100.0);
  // The middle half is averaged: windows of 1..8 operations give 4.5.
  std::vector<double> ramp;
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i <= w; ++i) ramp.push_back(w + 0.5);
  }
  EXPECT(WindowedRate(ramp, 1.0, 8.0) == 4.5);
  // A span shorter than a window has no rate.
  EXPECT(WindowedRate(t, 1.0, 0.5) == 0.0);
}

void TestSelfTime() {
  EXPECT(UnionNs({}) == 0);
  EXPECT(UnionNs({{0, 10}, {5, 15}, {20, 25}}) == 20);
  EXPECT(UnionNs({{0, 10}, {2, 3}}) == 10);
  // Parent [0, 100) with children [10, 30) and overlapping [20, 50), plus
  // one sticking out of the parent [90, 120): self = 100 - (40 + 10).
  EXPECT(SelfTimeNs(0, 100, {{10, 30}, {20, 50}, {90, 120}}) == 50);
  EXPECT(SelfTimeNs(0, 100, {}) == 100);
  EXPECT(SelfTimeNs(5, 5, {{0, 10}}) == 0);

  // Totals over a recorded tree: root [0, 100) with two children, one of
  // which has its own child.
  std::vector<Span> spans(4);
  spans[0] = {"eval.Fit", 1, 0, 0, 0, 100, 0};
  spans[1] = {"core.StageBatch", 2, 1, 0, 10, 40, 0};
  spans[2] = {"core.TrainStaged", 3, 1, 0, 40, 90, 0};
  spans[3] = {"tensor.MatMulPacked", 4, 3, 0, 50, 70, 0};
  const auto totals = Tracer::Totals(spans);
  EXPECT(totals.at("eval.Fit").self_ns == 20);
  EXPECT(totals.at("core.StageBatch").self_ns == 30);
  EXPECT(totals.at("core.TrainStaged").self_ns == 30);
  EXPECT(totals.at("tensor.MatMulPacked").self_ns == 20);
  EXPECT(totals.at("core.TrainStaged").total_ns == 50);

  // Live spans: nesting and parents as recorded by SpanScope.
  Tracer::Get().Clear();
  Tracer::Get().SetEnabled(true);
  {
    SpanScope outer("eval.Outer", 7);
    SpanScope inner("core.Inner", 7);
  }
  Tracer::Get().SetEnabled(false);
  const std::vector<Span> live = Tracer::Get().Collect();
  EXPECT(live.size() == 2);
  if (live.size() == 2) {
    const Span& outer = std::string(live[0].name) == "eval.Outer" ? live[0]
                                                                  : live[1];
    const Span& inner = &outer == &live[0] ? live[1] : live[0];
    EXPECT(inner.parent == outer.id);
    EXPECT(outer.parent == 0);
    EXPECT(inner.request == 7);
    EXPECT(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
  }
  Tracer::Get().Clear();
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestQuantile();
  perfbench::TestAuc();
  perfbench::TestSustainedDecision();
  perfbench::TestWindowedQuantile();
  perfbench::TestWindowedRate();
  perfbench::TestSelfTime();
  if (perfbench::failures != 0) {
    std::printf("%d self-test check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
