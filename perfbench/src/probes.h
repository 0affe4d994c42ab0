// Standalone layer probes for traced runs: they drive one library layer
// through its public calls on the workload's inputs and shapes, outside
// any service, so each per-layer metric isolates one layer.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <vector>

#include "core/splash.h"
#include "datasets/dataset.h"
#include "eval/trainer.h"
#include "report.h"

namespace perfbench {

/// Id space of the serve workloads' streams.
inline constexpr size_t kServeNodes = 20000;

struct PredictorProbeInput {
  const splash::Dataset* warmup = nullptr;  // Prepare (and Fit) input
  const splash::ChronoSplit* split = nullptr;
  /// Stream whose edges [live_begin, size) are replayed in service-sized
  /// batches, with its labels from live_label_begin staged and trained when
  /// `train`; null skips the batch replay (the replay workload measures
  /// those calls inside Fit).
  const splash::Dataset* live = nullptr;
  size_t live_begin = 0;
  size_t live_label_begin = 0;
  bool train = false;
  splash::SplashOptions model;
  splash::TrainerOptions fit;
  bool fit_warmup = true;  // time Prepare + Fit as the serve set-up does
  size_t edges_per_batch = 1;
};

/// Predictor-level probes: warmup Fit, ObserveBulk / StageBatch /
/// TrainStaged / PredictStaged per batch, PrepareForPublish,
/// PredictBatchConst at batch 1 and 32, SerializeState. Sets only metrics
/// the workload has not already measured.
void ProbePredictor(const PredictorProbeInput& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
