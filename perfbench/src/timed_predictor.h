// A TemporalPredictor that forwards every call to a SplashPredictor and
// wraps the calls in spans. StreamTrainer drives it like any model, so the
// benchmark sees each layer call of Fit and Evaluate from outside the
// library. It also records the replay's two latencies per batch, which
// are cheap enough to keep in untraced runs:
//   edge -> visible: a batch's edges are in streaming state when the
//     ObserveBulk call that carries them returns (sample: call duration);
//   query -> response: a scored batch waits from the StageBatch that
//     assembles it to the PredictStaged that answers it.

#ifndef PERFBENCH_TIMED_PREDICTOR_H_
#define PERFBENCH_TIMED_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/splash.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

class TimedPredictor final : public splash::TemporalPredictor {
 public:
  /// Latency samples, ns per batch.
  struct Samples {
    std::vector<double> observe;
    std::vector<double> query;
  };

  /// `samples` may be null (no latency capture).
  TimedPredictor(splash::SplashPredictor* inner, Samples* samples)
      : inner_(inner), samples_(samples) {}

  std::string name() const override { return inner_->name(); }
  splash::Status Prepare(const splash::Dataset& ds,
                         const splash::ChronoSplit& split) override {
    return inner_->Prepare(ds, split);
  }
  void ResetState() override { inner_->ResetState(); }
  void ObserveEdge(const splash::TemporalEdge& e, size_t i) override {
    ++edges_;
    inner_->ObserveEdge(e, i);
  }
  void ObserveBulk(const splash::EdgeStream& stream, size_t begin,
                   size_t end) override {
    SpanScope span("core.ObserveBulk");
    const uint64_t t0 = NowNs();
    inner_->ObserveBulk(stream, begin, end);
    edges_ += end - begin;
    if (samples_ != nullptr && end > begin) {
      samples_->observe.push_back(static_cast<double>(NowNs() - t0));
    }
  }
  bool SupportsStagedBatches() const override {
    return inner_->SupportsStagedBatches();
  }
  void StageBatch(const std::vector<splash::PropertyQuery>& q) override {
    SpanScope span("core.StageBatch");
    stage_start_ = NowNs();
    staged_rows_ = q.size();
    inner_->StageBatch(q);
  }
  double TrainStaged() override {
    SpanScope span("core.TrainStaged");
    train_rows_ += staged_rows_;
    return inner_->TrainStaged();
  }
  splash::Matrix PredictStaged() override {
    SpanScope span("core.PredictStaged");
    predict_rows_ += staged_rows_;
    splash::Matrix out = inner_->PredictStaged();
    if (samples_ != nullptr && staged_rows_ > 0) {
      samples_->query.push_back(static_cast<double>(NowNs() - stage_start_));
    }
    return out;
  }
  splash::Matrix PredictBatch(
      const std::vector<splash::PropertyQuery>& q) override {
    predict_rows_ += q.size();
    return inner_->PredictBatch(q);
  }
  double TrainBatch(const std::vector<splash::PropertyQuery>& q) override {
    train_rows_ += q.size();
    return inner_->TrainBatch(q);
  }
  void SetTraining(bool training) override { inner_->SetTraining(training); }
  size_t ParamCount() const override { return inner_->ParamCount(); }

  uint64_t edges_observed() const { return edges_; }
  /// Rows staged for training / staged and scored.
  uint64_t train_rows() const { return train_rows_; }
  uint64_t predict_rows() const { return predict_rows_; }
  /// Rows staged in total (train + scored).
  uint64_t staged_rows() const { return train_rows_ + predict_rows_; }

 private:
  splash::SplashPredictor* inner_;
  Samples* samples_;
  uint64_t edges_ = 0;
  uint64_t train_rows_ = 0, predict_rows_ = 0;
  uint64_t stage_start_ = 0;
  size_t staged_rows_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_PREDICTOR_H_
