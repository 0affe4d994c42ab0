#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/feature_augmentation.h"
#include "core/serialize.h"
#include "datasets/synthetic.h"
#include "graph/neighbor_memory.h"
#include "runtime/thread_pool.h"
#include "stats.h"
#include "tensor/packed.h"
#include "tensor/rng.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

using splash::EdgeStream;
using splash::Matrix;
using splash::PropertyQuery;
using splash::SplashPredictor;

namespace {

// Each timed probe loop runs for about this long and reports the median
// call; the loops are short because a traced run holds several of them.
constexpr double kProbeSeconds = 0.3;

/// Median wall time (ns) of `fn` over repeated calls for ~`seconds`.
template <typename Fn>
double MedianCallNs(double seconds, Fn&& fn) {
  fn();  // warm caches and grow-only scratch
  std::vector<double> ns;
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    const uint64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  } while (NowNs() < end || ns.size() < 5);
  return Quantile(&ns, 0.5);
}

/// Packed bias+ReLU GEMM (the SLIM dense layer's entry point) of an
/// m x k activation against a packed k x n weight.
double PackedGemmNs(size_t m, size_t k, size_t n, bool row_parallel) {
  splash::Rng rng(11);
  const Matrix a = Matrix::Gaussian(m, k, &rng);
  const Matrix b = Matrix::Gaussian(k, n, &rng, 0.05f);
  std::vector<float> bias(n, 0.01f);
  splash::PackedMatrix pb;
  pb.PackFrom(b);
  Matrix c(m, n);
  return MedianCallNs(kProbeSeconds, [&] {
    if (row_parallel) {
      splash::MatMulPacked(a, pb, &c);
    } else {
      splash::MatMulPackedBiasActRange(a, pb, &c, 0, m, bias.data(), true);
    }
  });
}

/// Streams `edges` into a fresh NeighborMemory through ObserveBulk in
/// `chunk`-edge calls; ns per edge.
double MemoryNsPerEdge(const EdgeStream& stream, size_t k, size_t chunk) {
  splash::NeighborMemory mem(k, stream.num_nodes());
  const uint64_t t0 = NowNs();
  for (size_t b = 0; b < stream.size(); b += chunk) {
    mem.ObserveBulk(stream, b, std::min(stream.size(), b + chunk));
  }
  return static_cast<double>(NowNs() - t0) /
         static_cast<double>(stream.size());
}

/// FeatureAugmenter replay (fitted on the first 70% of the stream) through
/// ObserveBulk in `chunk`-edge calls; ns per edge.
double AugmentNsPerEdge(const EdgeStream& stream, size_t feature_dim,
                        size_t chunk) {
  splash::FeatureAugmenterOptions opts;
  opts.feature_dim = feature_dim;
  splash::FeatureAugmenter aug(opts);
  aug.FitSeen(stream, stream.TimeQuantile(0.7));
  const uint64_t t0 = NowNs();
  for (size_t b = 0; b < stream.size(); b += chunk) {
    aug.ObserveBulk(stream, b, std::min(stream.size(), b + chunk));
  }
  return static_cast<double>(NowNs() - t0) /
         static_cast<double>(stream.size());
}

EdgeStream SyntheticStream(size_t nodes, size_t edges, uint64_t seed) {
  splash::SyntheticConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_edges = edges;
  cfg.query_rate = 0.0;
  cfg.seed = seed;
  return splash::GenerateSynthetic(cfg).stream;
}

}  // namespace

void ProbePredictor(const PredictorProbeInput& in, Report* report) {
  auto set = [&](const char* name, double v, const char* unit) {
    if (!report->Has(name)) report->Set(name, v, unit);
  };
  SplashPredictor p(in.model);
  {
    const uint64_t t0 = NowNs();
    if (!p.Prepare(*in.warmup, *in.split).ok()) {
      report->Check(false, "probe Prepare failed");
      return;
    }
    const uint64_t t1 = NowNs();
    set("core.prepare_s", static_cast<double>(t1 - t0) * 1e-9, "s");
    if (in.fit_warmup) {
      splash::StreamTrainer(in.fit).Fit(&p, *in.warmup, *in.split);
      set("eval.warmup_fit_s", static_cast<double>(NowNs() - t0) * 1e-9,
          "s");
    }
  }
  if (in.fit_warmup && !report->Has("runtime.fit_speedup_1t")) {
    // The same Prepare + Fit at num_threads=1, against the default pool.
    const size_t threads = splash::ThreadPool::GlobalThreads();
    const double fit_s = report->Get("eval.warmup_fit_s");
    SplashPredictor p1(in.model);
    splash::TrainerOptions fit1 = in.fit;
    fit1.num_threads = 1;
    const uint64_t t0 = NowNs();
    if (p1.Prepare(*in.warmup, *in.split).ok()) {
      splash::StreamTrainer(fit1).Fit(&p1, *in.warmup, *in.split);
    }
    const double fit1_s = static_cast<double>(NowNs() - t0) * 1e-9;
    splash::ThreadPool::SetGlobalThreads(threads);
    set("runtime.fit_speedup_1t", fit1_s / fit_s, "x");
  }
  p.SetTraining(false);

  if (in.live != nullptr && in.live_begin < in.live->stream.size()) {
    // Batch replay of the live stream as the service applies it: one
    // ObserveBulk per batch, the batch's labels staged and trained (when
    // labels are given), then the publish-time repack.
    const EdgeStream& stream = in.live->stream;
    const std::vector<PropertyQuery>& labels = in.live->queries;
    const size_t n = std::min(stream.size(), in.live_begin + 200000);
    std::vector<PropertyQuery> batch;
    size_t label = in.live_label_begin;
    double observe_ns = 0.0, stage_ns = 0.0, train_ns = 0.0, pack_ns = 0.0;
    double staged = 0.0, packs = 0.0, observed = 0.0;
    const uint64_t end = NowNs() + static_cast<uint64_t>(2e9);
    for (size_t b = in.live_begin; b < n && NowNs() < end;
         b += in.edges_per_batch) {
      const size_t e = std::min(n, b + in.edges_per_batch);
      uint64_t t0 = NowNs();
      p.ObserveBulk(stream, b, e);
      observe_ns += static_cast<double>(NowNs() - t0);
      observed += static_cast<double>(e - b);
      batch.clear();
      while (in.train && label < labels.size() &&
             labels[label].time <= stream[e - 1].time) {
        batch.push_back(labels[label++]);
      }
      if (!batch.empty()) {
        p.SetTraining(true);
        t0 = NowNs();
        p.StageBatch(batch);
        const uint64_t t1 = NowNs();
        p.TrainStaged();
        stage_ns += static_cast<double>(t1 - t0);
        train_ns += static_cast<double>(NowNs() - t1);
        staged += static_cast<double>(batch.size());
        p.SetTraining(false);
      }
      t0 = NowNs();
      p.PrepareForPublish();
      pack_ns += static_cast<double>(NowNs() - t0);
      packs += 1.0;
    }
    set("core.observe_ns_per_edge", observe_ns / observed, "ns");
    if (staged > 0.0) {
      set("core.stage_ns_per_query", stage_ns / staged, "ns");
      set("core.train_ns_per_query", train_ns / staged, "ns");
    }
    set("core.publish_pack_us", pack_ns / packs * 1e-3, "us");
  }

  // Scored staged batches and const queries on labelled (node, time) pairs.
  std::vector<PropertyQuery> q32;
  const std::vector<PropertyQuery>& src = in.warmup->queries;
  for (size_t i = 0; i < 32 && i < src.size(); ++i) {
    q32.push_back(src[src.size() - 1 - i]);
  }
  const std::vector<PropertyQuery> q1(q32.begin(), q32.begin() + 1);
  if (!report->Has("core.stage_ns_per_query")) {
    set("core.stage_ns_per_query",
        MedianCallNs(kProbeSeconds, [&] { p.StageBatch(q32); }) / 32.0, "ns");
  }
  p.StageBatch(q32);
  if (!report->Has("core.predict_staged_ns_per_query")) {
    set("core.predict_staged_ns_per_query",
        MedianCallNs(kProbeSeconds, [&] { p.PredictStaged(); }) / 32.0, "ns");
  }
  if (!report->Has("core.train_ns_per_query")) {
    p.SetTraining(true);
    set("core.train_ns_per_query",
        MedianCallNs(kProbeSeconds, [&] { p.TrainStaged(); }) / 32.0, "ns");
    p.SetTraining(false);
  }
  splash::SplashQueryScratch scratch;
  set("core.query_b1_us", MedianCallNs(kProbeSeconds, [&] {
        p.PredictBatchConst(q1, &scratch);
      }) * 1e-3,
      "us");
  set("core.query_b32_us", MedianCallNs(kProbeSeconds, [&] {
        p.PredictBatchConst(q32, &scratch);
      }) * 1e-3,
      "us");
  if (!report->Has("core.publish_pack_us")) {
    set("core.publish_pack_us", MedianCallNs(kProbeSeconds, [&] {
          p.PrepareForPublish();
        }) * 1e-3,
        "us");
  }
  splash::ByteWriter w;
  const double ser_ns = MedianCallNs(kProbeSeconds, [&] {
    w.Clear();
    p.SerializeState(&w);
  });
  set("core.serialize_ms", ser_ns * 1e-6, "ms");
  set("core.state_mb", static_cast<double>(w.size()) / (1024.0 * 1024.0),
      "MB");
}

void RunLayerProbes(const RunArgs& args, Report* report) {
  const bool replay = args.workload == "replay";
  const bool wide = args.workload == "query_wide";

  if (replay) {
    // Predictor-level probes on the replay model (Prepare only: the
    // replay's Fit is measured by its own spans).
    const splash::Dataset ds = MakeReplayDataset(args.seed);
    const splash::ChronoSplit split = ReplaySplit(ds);
    PredictorProbeInput pin;
    pin.warmup = &ds;
    pin.split = &split;
    pin.model = ReplayModelOptions();
    pin.fit_warmup = false;
    ProbePredictor(pin, report);
    report->Set("core.augment_ns_per_edge",
                AugmentNsPerEdge(ds.stream, 32, 1024), "ns");
    const char* no_service = "replay runs no service";
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (name.rfind("serve.", 0) == 0) report->Absent(name, unit, no_service);
    }
    report->Absent("eval.warmup_fit_s", "s",
                   "replay has no serve warmup; its Fit is eval.fit_s");
  } else {
    const EdgeStream serve_stream =
        SyntheticStream(kServeNodes, 1000000, args.seed);
    report->Set("core.augment_ns_per_edge",
                AugmentNsPerEdge(serve_stream, wide ? 64 : 16, 256), "ns");
    const char* no_replay =
        "serve workloads run Fit only inside Start (see eval.warmup_fit_s)";
    report->Absent("eval.fit_s", "s", no_replay);
    report->Absent("eval.evaluate_s", "s", no_replay);
    report->Absent("eval.pipeline_saving_s", "s", no_replay);
  }

  // graph: NeighborMemory ObserveBulk at both id-space sizes.
  report->Set("graph.memory_ns_per_edge_replay_ids",
              MemoryNsPerEdge(SyntheticStream(kReplayNodes, 1000000, args.seed),
                              10, 1024),
              "ns");
  report->Set("graph.memory_ns_per_edge_serve_ids",
              MemoryNsPerEdge(SyntheticStream(kServeNodes, 1000000, args.seed),
                              5, 256),
              "ns");

  // tensor: the wide model's hidden layer (2h x h = 2048 x 1024 weights,
  // 8 MiB, larger than L2) at batch 1 and 32, and replay's widest training
  // GEMM (batch 200 x k 10 rows of the 48-wide message input, h = 64).
  // Bytes are computed from tensor sizes: A + packed B + bias + C.
  const size_t k = 2048, n = 1024;
  const double b1 = PackedGemmNs(1, k, n, false);
  const double b32 = PackedGemmNs(32, k, n, false);
  report->Set("tensor.fwd_gflops_b1", 2.0 * k * n / b1, "GFLOP/s");
  report->Set("tensor.fwd_gflops_b32", 2.0 * 32 * k * n / b32, "GFLOP/s");
  report->Set("tensor.fwd_bytes_b1",
              4.0 * (1.0 * k + 1.0 * k * n + n + n), "bytes");
  const size_t tm = 2000, tk = 48, tn = 64;
  report->Set("tensor.train_gemm_gflops",
              2.0 * tm * tk * tn / PackedGemmNs(tm, tk, tn, true),
              "GFLOP/s");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"eval.fit_s", "s"},
      {"eval.evaluate_s", "s"},
      {"eval.pipeline_saving_s", "s"},
      {"eval.warmup_fit_s", "s"},
      {"runtime.fit_speedup_1t", "x"},
      {"core.prepare_s", "s"},
      {"core.observe_ns_per_edge", "ns"},
      {"core.augment_ns_per_edge", "ns"},
      {"core.stage_ns_per_query", "ns"},
      {"core.train_ns_per_query", "ns"},
      {"core.predict_staged_ns_per_query", "ns"},
      {"core.query_b1_us", "us"},
      {"core.query_b32_us", "us"},
      {"core.publish_pack_us", "us"},
      {"core.state_mb", "MB"},
      {"core.serialize_ms", "ms"},
      {"graph.memory_ns_per_edge_replay_ids", "ns"},
      {"graph.memory_ns_per_edge_serve_ids", "ns"},
      {"tensor.fwd_gflops_b1", "GFLOP/s"},
      {"tensor.fwd_gflops_b32", "GFLOP/s"},
      {"tensor.fwd_bytes_b1", "bytes"},
      {"tensor.train_gemm_gflops", "GFLOP/s"},
      {"serve.ingest_call_us_p50", "us"},
      {"serve.ingest_call_us_p99", "us"},
      {"serve.score_call_us_p50", "us"},
      {"serve.score_call_us_p99", "us"},
      {"serve.gen_late_ms_p99", "ms"},
      {"serve.apply_us_p50", "us"},
      {"serve.apply_us_p99", "us"},
      {"serve.edges_per_batch", "count"},
      {"serve.queue_peak", "count"},
      {"serve.coalesced_share", "frac"},
      {"serve.group_size", "count"},
      {"serve.fsyncs_per_batch", "count"},
      {"serve.checkpoints", "count"},
      {"serve.train_steps", "count"},
      {"serve.unseen_query_share", "frac"},
      {"serve.cpu_us_per_op", "us"},
      {"e2e.freshness_p99_ms", "ms"},
      {"e2e.query_p99_us", "us"},
      {"trace.overhead_frac", "frac"},
      {"trace.residual_frac", "frac"},
  };
  return kMetrics;
}

}  // namespace perfbench
