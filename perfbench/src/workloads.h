// The three workloads and the per-layer probes. Each workload makes its
// inputs from the seed, drives the library through public calls only, and
// fills a Report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/splash.h"
#include "datasets/dataset.h"
#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;         // spans and temp data dirs (in the checkout)
  std::string reference_file;  // recorded test AUCs (reference_auc.txt)
  size_t cycles = 0;  // replay: fixed cycle count (0 = fill the budget)
};

/// The replay workload's stream: 1.5M edges over a 200k-node id space,
/// so neighbour and augmenter state spill out of L2.
inline constexpr size_t kReplayNodes = 200000;
inline constexpr size_t kReplayEdges = 1500000;
inline constexpr size_t kReplayEpochs = 2;

/// A labelled live stream for the serve workloads: a warmup prefix that
/// Start() fits on, and the live suffix the load threads send in order.
struct ServeInput {
  splash::Dataset warmup;
  splash::ChronoSplit split;
  /// The whole generated stream; edges [live_begin, size) are live, and
  /// queries [live_label_begin, size) are the live period's labels.
  splash::Dataset full;
  size_t live_begin = 0;
  size_t live_label_begin = 0;
  /// Labelled (node, time) pairs of the warmup period that the query
  /// threads ask about (query_wide's served AUC is taken over them).
  std::vector<splash::PropertyQuery> query_pool;
};

splash::Dataset MakeReplayDataset(uint64_t seed);
/// The chronological split replay uses: the last 15% of edges test, the
/// 15% before them validation.
splash::ChronoSplit ReplaySplit(const splash::Dataset& ds);
splash::SplashOptions ReplayModelOptions();
splash::SplashOptions ServeModelOptions(bool wide);
ServeInput MakeServeInput(uint64_t seed, bool wide, size_t live_edges);

void RunReplay(const RunArgs& args, Report* report);
void RunIngest(const RunArgs& args, Report* report);
void RunQueryWide(const RunArgs& args, Report* report);

/// Per-layer probes shared by every traced run: kernels, neighbor memory,
/// augmenter, predictor calls and checkpoint serialization at the shapes
/// each workload uses.
void RunLayerProbes(const RunArgs& args, Report* report);

/// Every per-layer metric name, with its unit, in output order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
