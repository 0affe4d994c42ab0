// The two serving workloads. Both run a SplashService behind ServeClient /
// QueryBackend and send open-loop traffic from at most four load threads:
//
//   ingest      small model (fd16/h32/t8/k5), durable (WAL kBatch, a
//               checkpoint every 256 batches), training on ingest labels.
//               Load thread 1 sends the live edges and their labels in
//               stream order on an edges/s ladder; it scores each label's
//               (node, time) before submitting it (test, then train) and
//               polls the published watermark for freshness. Load thread 2
//               sends node queries at a fixed modest rate.
//   query_wide  wide model (fd64/h1024/t16/k10), not durable, training off.
//               Three threads send node queries open loop at a fixed rate,
//               then one thread sends them closed loop (back to back) for
//               the throughput; a fourth trickles edges at a fixed low
//               rate and polls freshness throughout.
//
// Every open-loop request is timed from its due time. A run is: set-up
// (Start, several times), an unmeasured warm-up at the reference rates
// (query_wide), a reference phase at a fixed rate (latency, freshness,
// CPU), then the throughput phase (ingest: the ladder's highest sustained
// rate; query_wide: the closed-loop rate), then Flush and the output
// checks.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "probes.h"
#include "serve/service.h"
#include "stats.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

using splash::IngestResult;
using splash::PropertyQuery;
using splash::QueryBackend;
using splash::ServeClient;
using splash::ServeCounters;
using splash::ServeResponse;
using splash::SplashService;
using splash::SplashServiceOptions;
using splash::TemporalEdge;

splash::SplashOptions ServeModelOptions(bool wide) {
  splash::SplashOptions opts;
  opts.mode = splash::SplashMode::kForceStructural;  // no selection pass
  opts.augment.feature_dim = wide ? 64 : 16;
  opts.slim.hidden_dim = wide ? 1024 : 32;
  opts.slim.time_dim = wide ? 16 : 8;
  opts.slim.k_recent = wide ? 10 : 5;
  opts.slim.dropout = 0.0f;
  opts.seed = 9;
  return opts;
}

splash::TrainerOptions ServeFitOptions() {
  splash::TrainerOptions fit;
  fit.epochs = 1;
  fit.batch_size = 256;
  fit.early_stopping = false;
  return fit;
}

ServeInput MakeServeInput(uint64_t seed, bool wide, size_t live_edges) {
  // query_wide draws 4x the labels and trains Start() on every 4th: the
  // served-AUC pool is large enough to be stable while Start() (two Fits
  // of the wide model) stays short.
  const size_t warm = wide ? 8000 : 100000;
  const size_t train_stride = wide ? 4 : 1;
  splash::SyntheticConfig cfg;
  cfg.name = wide ? "query_wide" : "ingest";
  cfg.task = splash::TaskType::kAnomalyDetection;
  cfg.num_nodes = kServeNodes;
  cfg.num_edges = warm + live_edges;
  cfg.query_rate = 0.15 * static_cast<double>(train_stride);
  cfg.seed = seed;
  ServeInput in;
  in.full = splash::GenerateSynthetic(cfg);
  const splash::Dataset& full = in.full;
  in.warmup.name = cfg.name;
  in.warmup.task = full.task;
  in.warmup.num_classes = full.num_classes;
  in.warmup.stream.Reserve(warm);
  for (size_t i = 0; i < warm; ++i) {
    (void)in.warmup.stream.Append(full.stream[i]);
  }
  in.live_begin = warm;
  const double warm_end = full.stream[warm - 1].time;
  for (; in.live_label_begin < full.queries.size() &&
         full.queries[in.live_label_begin].time <= warm_end;
       ++in.live_label_begin) {
    const PropertyQuery& q = full.queries[in.live_label_begin];
    in.query_pool.push_back(q);
    if (in.live_label_begin % train_stride == 0) in.warmup.queries.push_back(q);
  }
  in.split = splash::MakeChronoSplit(in.warmup.stream, 0.1, 0.05);
  return in;
}

namespace {

// Freshness is read by polling the published watermark (a snapshot pin)
// from load thread 1 at most this often; a reading is late by up to one
// interval, and the poller's pins are few enough not to hold up catch-up.
constexpr uint64_t kPollIntervalNs = 100000;   // 100 us
constexpr uint64_t kBacklogSampleNs = 10000000;  // 10 ms
// After a phase's last send, wait at most this long for its edges to
// become visible; edges still pending are recorded with their age then.
constexpr uint64_t kDrainTimeoutNs = 2000000000;  // 2 s
// A rung's p99 is judged per window of this length (stats.h
// WindowedQuantile, median over the windows); each window must hold the
// 1000 samples a p99 needs.
constexpr double kTailWindowS = 0.5;
// The reference phase's p50s are taken per half-second window, and the
// lower quartile over the windows is reported. On a shared host a
// neighbour's memory traffic comes and goes in bursts of seconds; while
// it lasts the wide model's apply p50 triples (1.5 to 4.6 ms, against a
// steady 1.3 ms for a hot standalone repack), so those windows' freshness
// p50 doubles or triples. The lower quartile reads the calm windows; a
// change that slows every window still moves it, and the tails keep the
// bursts (e2e.* in the traced run).
constexpr double kP50WindowS = 0.5;
constexpr double kP50AcrossWindows = 0.25;
// The closed-loop rate is the middle half of 1 s window counts.
constexpr double kRateWindowS = 1.0;

struct WorkloadSpec {
  bool wide = false;
  bool durable = false;
  bool train = false;
  // Reference phase.
  double ref_edge_rate = 0.0;   // edges/s (load thread 1)
  double ref_query_rate = 0.0;  // total q/s over the query threads
  double ref_seconds = 6.0;
  size_t query_threads = 1;
  int setups = 5;  // Start() repetitions for setup_s
  // An unmeasured phase at the reference rates before the reference phase:
  // the first seconds after Start() read slower on some runs.
  double warmup_seconds = 0.0;
  // When > 0, throughput is the closed-loop query rate of one client over
  // a phase of this length, beside the reference edge rate, and no ladder
  // runs. One client, because with three the coalescer's group size (and
  // with it the rate, by about 30%) flipped with the host's load.
  double closed_loop_seconds = 0.0;
  // The primary path: edges (freshness; ingest) or queries (query
  // latency; query_wide). It picks the trace metrics' latency and the
  // rate printed on phase rows.
  bool edge_path = true;
  // Ladder over the edge rate: rungs ladder_base * 2^(k/8) of
  // rung_seconds each, climbing until the first rung that fails the full
  // rule (RungSustained) or ladder_max. The highest rung that held is the
  // sustained rate.
  double ladder_base = 0.0;
  double ladder_max = 0.0;
  double rung_seconds = 2.0;
  double latency_limit_ms = 0.0;  // p99 of freshness (edges) or query
};

struct PhaseSpec {
  double edge_rate = 0.0;
  double query_rate = 0.0;  // total over the query threads
  size_t query_threads = 0;
  double seconds = 1.0;
  // Query threads send back to back instead of at query_rate; a query's
  // "due time" is then the moment it is sent.
  bool closed_loop = false;
};

/// One phase's measurements, merged over the load threads.
struct PhaseResult {
  double wall_s = 0.0;
  double proc_cpu_s = 0.0;
  /// The load threads' own CPU: their CPU time minus the wall time they
  /// spent inside client calls. A query's forward runs on the caller's
  /// thread, so it is the program's work, not the generator's.
  double load_cpu_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t edges_sent = 0;
  uint64_t queries_sent = 0;
  /// From t0: when the last IngestEdge call returned.
  double last_edge_sent_s = 0.0;
  std::vector<double> fresh_ms;
  std::vector<double> fresh_due_s;     // each sample's due time, from t0
  std::vector<double> query_us;        // from due time
  std::vector<double> query_due_s;
  std::vector<double> score_call_us;   // the client call alone
  std::vector<double> ingest_call_us;  // IngestEdge call alone
  std::vector<double> late_ms;         // generator lateness
  std::vector<double> backlog;
  std::vector<double> auc_scores;
  std::vector<int> auc_labels;
  ServeCounters before, after;
};

/// State carried across phases of one service: stream cursors and the
/// count of accepted edges (the published seq the service must reach).
struct Cursor {
  size_t edge = 0;   // next live edge (index into ServeInput::full)
  size_t label = 0;  // next live label
  uint64_t accepted_edges = 0;
  uint64_t pool_offset = 0;
};

struct Checks {
  uint64_t bad_rows = 0;
  uint64_t non_finite = 0;
  uint64_t wm_regressions = 0;
};

bool ResponseOk(const ServeResponse& r) {
  if (r.scores.rows() != 1 || r.scores.cols() < 2) return false;
  for (size_t c = 0; c < r.scores.cols(); ++c) {
    if (!std::isfinite(r.scores(0, c))) return false;
  }
  return true;
}

class Harness {
 public:
  Harness(const WorkloadSpec& spec, const ServeInput& in, Checks* checks)
      : spec_(spec), in_(in), checks_(checks) {
    cursor_.edge = in.live_begin;
    cursor_.label = in.live_label_begin;
  }

  /// Runs one phase. The `auc` samples are the prequential label scores on
  /// a training service and the query answers otherwise.
  PhaseResult RunPhase(QueryBackend* backend, const PhaseSpec& ps) {
    PhaseResult r;
    r.before = backend->Stats().counters;
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs() + 1000000;  // 1 ms to spawn the threads
    const uint64_t end = t0 + static_cast<uint64_t>(ps.seconds * 1e9);
    std::vector<PhaseResult> parts(1 + ps.query_threads);
    std::vector<std::thread> threads;
    if (ps.edge_rate > 0.0) {
      threads.emplace_back([&, t0, end] {
        EdgeThread(backend, ps, t0, end, &parts[0]);
      });
    }
    const double each = ps.query_threads == 0
                            ? 0.0
                            : ps.query_rate / static_cast<double>(
                                                  ps.query_threads);
    for (size_t t = 0; t < ps.query_threads; ++t) {
      threads.emplace_back([&, t, t0, end] {
        QueryThread(backend, ps, t, each, t0, end, &parts[1 + t]);
      });
    }
    for (std::thread& th : threads) th.join();
    r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    r.proc_cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9;
    // Nothing a phase left queued may leak into the next one.
    backend->Flush();
    for (PhaseResult& p : parts) Merge(&p, &r);
    r.after = backend->Stats().counters;
    cursor_.pool_offset += r.queries_sent;
    return r;
  }

  const Cursor& cursor() const { return cursor_; }

 private:
  static void Append(std::vector<double>* dst, const std::vector<double>& s) {
    dst->insert(dst->end(), s.begin(), s.end());
  }

  static void Merge(PhaseResult* p, PhaseResult* r) {
    r->load_cpu_s += p->load_cpu_s;
    r->attempted += p->attempted;
    r->failed += p->failed;
    r->edges_sent += p->edges_sent;
    r->queries_sent += p->queries_sent;
    r->last_edge_sent_s = std::max(r->last_edge_sent_s, p->last_edge_sent_s);
    Append(&r->fresh_ms, p->fresh_ms);
    Append(&r->fresh_due_s, p->fresh_due_s);
    Append(&r->query_us, p->query_us);
    Append(&r->query_due_s, p->query_due_s);
    Append(&r->score_call_us, p->score_call_us);
    Append(&r->ingest_call_us, p->ingest_call_us);
    Append(&r->late_ms, p->late_ms);
    Append(&r->backlog, p->backlog);
    Append(&r->auc_scores, p->auc_scores);
    r->auc_labels.insert(r->auc_labels.end(), p->auc_labels.begin(),
                         p->auc_labels.end());
  }

  /// Checks one response of a client: one row of finite scores, and a
  /// watermark no lower than the client's previous one.
  static bool CheckResponse(const ServeResponse& resp, uint64_t* last_wm,
                            Checks* tally) {
    const bool ok = ResponseOk(resp);
    if (!ok) resp.scores.rows() != 1 ? ++tally->bad_rows : ++tally->non_finite;
    if (resp.watermark_seq < *last_wm) ++tally->wm_regressions;
    *last_wm = resp.watermark_seq;
    return ok;
  }

  void AddChecks(const Checks& c) {
    std::lock_guard<std::mutex> lock(checks_mu_);
    checks_->bad_rows += c.bad_rows;
    checks_->non_finite += c.non_finite;
    checks_->wm_regressions += c.wm_regressions;
  }

  /// Load thread 1: the live edge stream (and, when training, each label
  /// scored then submitted before the first edge past its time), open loop
  /// at `ps.edge_rate`, polling the published watermark for freshness.
  void EdgeThread(QueryBackend* backend, const PhaseSpec& ps, uint64_t t0,
                  uint64_t end, PhaseResult* out) {
    LowerTimerSlack();
    const uint64_t cpu0 = ThreadCpuNs();
    uint64_t in_call_ns = 0;
    ServeClient client(backend);
    ServeResponse resp;
    uint64_t last_wm = 0;
    Checks tally;
    const double period_ns = 1e9 / ps.edge_rate;
    const uint64_t seq0 = cursor_.accepted_edges;
    uint64_t head_seq = seq0;  // seq of pending_due.front()
    uint64_t published = backend->published_seq();
    std::deque<uint64_t> pending_due;
    uint64_t last_poll = 0, next_sample = t0;
    auto poll = [&](uint64_t now) {
      published = backend->published_seq();
      last_poll = now;
      while (head_seq < published && !pending_due.empty()) {
        out->fresh_ms.push_back(
            static_cast<double>(now - pending_due.front()) * 1e-6);
        out->fresh_due_s.push_back(
            static_cast<double>(pending_due.front() - t0) * 1e-9);
        pending_due.pop_front();
        ++head_seq;
      }
    };
    for (uint64_t k = 0;; ++k) {
      const uint64_t due =
          t0 + static_cast<uint64_t>(static_cast<double>(k) * period_ns);
      if (due >= end) break;
      for (;;) {
        const uint64_t now = NowNs();
        if (now - last_poll >= kPollIntervalNs) poll(now);
        if (spec_.edge_path && now >= next_sample) {
          const double due_count =
              std::floor(static_cast<double>(now - t0) / period_ns);
          out->backlog.push_back(
              due_count - static_cast<double>(published - seq0));
          next_sample = now + kBacklogSampleNs;
        }
        if (now >= due) break;
        SleepUntilNs(std::min(due, now + kPollIntervalNs));
      }
      if (cursor_.edge >= in_.full.stream.size()) {
        ++out->attempted;
        ++out->failed;  // the plan ran past the generated stream
        break;
      }
      const TemporalEdge e = in_.full.stream[cursor_.edge++];
      const uint64_t start = NowNs();
      out->late_ms.push_back(static_cast<double>(start - due) * 1e-6);
      if (spec_.train) {
        while (cursor_.label < in_.full.queries.size() &&
               in_.full.queries[cursor_.label].time <= e.time) {
          const PropertyQuery& q = in_.full.queries[cursor_.label++];
          {
            SpanScope span("serve.ScoreLabel", cursor_.label);
            client.PredictNode(q.node, q.time, &resp);
          }
          const bool ok = CheckResponse(resp, &last_wm, &tally);
          if (ok) {
            out->auc_scores.push_back(resp.score);
            out->auc_labels.push_back(q.class_label);
          }
          IngestResult res = IngestResult::kStopped;
          {
            SpanScope span("serve.SubmitTrain", cursor_.label);
            res = backend->SubmitTrain(q);
          }
          out->attempted += 2;
          out->failed += (ok ? 0 : 1) + (res.accepted() ? 0 : 1);
        }
      }
      const uint64_t c0 = NowNs();
      IngestResult res = IngestResult::kStopped;
      {
        SpanScope span("serve.IngestEdge", cursor_.edge);
        res = backend->IngestEdge(e);
      }
      const uint64_t c1 = NowNs();
      in_call_ns += c1 - start;  // label score/submit and the ingest call
      out->ingest_call_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
      out->last_edge_sent_s = static_cast<double>(c1 - t0) * 1e-9;
      ++out->attempted;
      ++out->edges_sent;
      if (res.accepted()) {
        pending_due.push_back(due);
        ++cursor_.accepted_edges;
      } else {
        ++out->failed;
      }
    }
    // Drain: collect freshness of the phase's tail edges.
    const uint64_t drain_end = NowNs() + kDrainTimeoutNs;
    while (!pending_due.empty()) {
      const uint64_t now = NowNs();
      poll(now);
      if (now >= drain_end) break;
      SleepUntilNs(now + kPollIntervalNs);
    }
    const uint64_t now = NowNs();
    for (uint64_t due : pending_due) {
      out->fresh_ms.push_back(static_cast<double>(now - due) * 1e-6);
      out->fresh_due_s.push_back(static_cast<double>(due - t0) * 1e-9);
    }
    out->load_cpu_s = OwnCpuS(ThreadCpuNs() - cpu0, in_call_ns);
    AddChecks(tally);
  }

  /// A query thread: node queries from the labelled pool, open loop at
  /// `rate` q/s, or back to back when the phase is closed loop.
  void QueryThread(QueryBackend* backend, const PhaseSpec& ps, size_t tid,
                   double rate, uint64_t t0, uint64_t end, PhaseResult* out) {
    LowerTimerSlack();
    const uint64_t cpu0 = ThreadCpuNs();
    uint64_t in_call_ns = 0;
    ServeClient client(backend);
    ServeResponse resp;
    uint64_t last_wm = 0;
    Checks tally;
    const double period_ns = ps.closed_loop ? 0.0 : 1e9 / rate;
    const size_t pool = in_.query_pool.size();
    // Threads interleave over the pool; the offset moves on every phase so
    // later phases ask about other nodes.
    const uint64_t base = cursor_.pool_offset + tid;
    for (uint64_t k = 0;; ++k) {
      const uint64_t due =
          ps.closed_loop
              ? std::max(NowNs(), t0)
              : t0 + static_cast<uint64_t>(static_cast<double>(k) * period_ns);
      if (due >= end) break;
      WaitUntilNs(due);
      const uint64_t start = NowNs();
      const PropertyQuery& q =
          in_.query_pool[(base + k * ps.query_threads) % pool];
      {
        SpanScope span("serve.ScoreQueries", (base + k) << 8 | tid);
        client.PredictNode(q.node, q.time, &resp);
      }
      const uint64_t done = NowNs();
      in_call_ns += done - start;
      out->query_us.push_back(static_cast<double>(done - due) * 1e-3);
      out->query_due_s.push_back(static_cast<double>(due - t0) * 1e-9);
      out->score_call_us.push_back(static_cast<double>(done - start) * 1e-3);
      out->late_ms.push_back(static_cast<double>(start - due) * 1e-6);
      ++out->attempted;
      ++out->queries_sent;
      if (!CheckResponse(resp, &last_wm, &tally)) {
        ++out->failed;
      } else if (!spec_.train) {
        out->auc_scores.push_back(resp.score);
        out->auc_labels.push_back(q.class_label);
      }
    }
    out->load_cpu_s = OwnCpuS(ThreadCpuNs() - cpu0, in_call_ns);
    AddChecks(tally);
  }

  static double OwnCpuS(uint64_t thread_cpu_ns, uint64_t in_call_ns) {
    return thread_cpu_ns > in_call_ns
               ? static_cast<double>(thread_cpu_ns - in_call_ns) * 1e-9
               : 0.0;
  }

  const WorkloadSpec& spec_;
  const ServeInput& in_;
  Checks* checks_;
  std::mutex checks_mu_;
  Cursor cursor_;
};

double Q(std::vector<double> v, double q) { return Quantile(&v, q); }

/// Prints one phase as a readable line (ladder rungs and the reference).
void PrintPhase(const char* label, double offered, const PhaseResult& r,
                const char* verdict) {
  const uint64_t batches = r.after.batches_applied - r.before.batches_applied;
  const uint64_t edges = r.after.ingest_accepted - r.before.ingest_accepted;
  std::printf(
      "%-9s offered %9.0f/s  fresh p50/p99 %8.3f/%8.3f ms (n=%zu, p%.4g ok)"
      "  query p50/p99 %8.1f/%8.1f us (n=%zu)  late p99 %.3f ms  backlog "
      "+%.0f  batches %" PRIu64 " (%.1f edges/batch)  fsyncs %" PRIu64
      "  ckpts %" PRIu64 "  failed %" PRIu64 "%s\n",
      label, offered, Q(r.fresh_ms, 0.5), Q(r.fresh_ms, 0.99),
      r.fresh_ms.size(), SupportedPercentile(r.fresh_ms.size()),
      Q(r.query_us, 0.5), Q(r.query_us, 0.99), r.query_us.size(),
      Q(r.late_ms, 0.99), BacklogGrowth(r.backlog), batches,
      batches == 0 ? 0.0 : static_cast<double>(edges) / batches,
      r.after.wal_fsyncs - r.before.wal_fsyncs,
      r.after.checkpoints_written - r.before.checkpoints_written, r.failed,
      verdict);
  std::fflush(stdout);
}

RungOutcome Outcome(double offered, const PhaseResult& r,
                    const WorkloadSpec& spec) {
  RungOutcome o;
  o.offered_per_s = offered;
  o.achieved_per_s = r.last_edge_sent_s > 0.0
                         ? static_cast<double>(r.edges_sent) /
                               r.last_edge_sent_s
                         : 0.0;
  o.tail_latency_ms =
      WindowedQuantile(r.fresh_due_s, r.fresh_ms, kTailWindowS, 0.99, 1000);
  o.latency_limit_ms = spec.latency_limit_ms;
  o.attempted = r.attempted;
  o.failed = r.failed;
  o.backlog = r.backlog;
  return o;
}

/// Live edges one run can consume: the reference phase plus the largest
/// ladder walk, with 10% slack.
size_t LiveEdgesNeeded(const WorkloadSpec& s) {
  double total = s.ref_edge_rate * s.ref_seconds * 2.0;  // traced run: 2x
  total += s.ref_edge_rate * (s.warmup_seconds + s.closed_loop_seconds);
  for (int k = 0; s.ladder_max > 0.0; ++k) {
    const double rate = s.ladder_base * std::pow(2.0, k / 8.0);
    if (rate > s.ladder_max * 1.0001) break;
    total += rate * s.rung_seconds;
  }
  return static_cast<size_t>(total * 1.1) + 1000;
}

std::unique_ptr<SplashService> MakeService(const WorkloadSpec& spec,
                                           const std::string& dir) {
  SplashServiceOptions sopts;  // defaults: queue 8192, coalescing on
  sopts.train_on_ingest_labels = spec.train;
  if (spec.durable) {
    sopts.data_dir = dir;
    sopts.wal_fsync = splash::WalFsyncPolicy::kBatch;
    sopts.checkpoint_interval_batches = 256;
  }
  return std::make_unique<SplashService>(ServeModelOptions(spec.wide), sopts);
}

void RunServe(const WorkloadSpec& spec, const RunArgs& args,
              Report* report) {
  const uint64_t gen0 = NowNs();
  // The ladder plan is fixed; this only guards against a run far over its
  // budget (a much faster program climbing many more rungs).
  const uint64_t deadline =
      gen0 + static_cast<uint64_t>(2.0 * args.seconds * 1e9);
  const ServeInput in =
      MakeServeInput(args.seed, spec.wide, LiveEdgesNeeded(spec));
  std::printf("inputs: warmup %zu edges (%zu labels), live %zu edges, %zu "
              "live labels, query pool %zu, made in %.2f s\n",
              in.warmup.stream.size(), in.warmup.queries.size(),
              in.full.stream.size() - in.live_begin,
              in.full.queries.size() - in.live_label_begin,
              in.query_pool.size(),
              static_cast<double>(NowNs() - gen0) * 1e-9);
  std::printf("load: %zu query thread(s) + 1 edge thread; timer slack 1 ns;"
              " freshness poll interval %.0f us\n",
              spec.query_threads, kPollIntervalNs * 1e-3);
  const splash::TrainerOptions fit = ServeFitOptions();
  const std::string base_dir = args.out_dir + "/serve-data";

  // Set-up: Start (RecoverOrStart into an empty data dir when durable)
  // several times; the last service is the one measured.
  std::vector<double> setup;
  std::unique_ptr<SplashService> svc;
  const int setups = args.trace ? 1 : spec.setups;
  for (int rep = 0; rep < setups; ++rep) {
    if (svc) {
      svc->Stop();
      svc.reset();
    }
    const std::string dir = base_dir + "-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    if (spec.durable) std::filesystem::create_directories(dir);
    svc = MakeService(spec, dir);
    const uint64_t t0 = NowNs();
    const splash::Status st = spec.durable
                                  ? svc->RecoverOrStart(in.warmup, in.split,
                                                        &fit)
                                  : svc->Start(in.warmup, in.split, &fit);
    setup.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    report->Check(st.ok(), "service start failed: %s", st.message().c_str());
    if (!st.ok()) return;
    std::printf("setup %d: %.3f s\n", rep + 1, setup.back());
  }

  Checks checks;
  Harness h(spec, in, &checks);
  PhaseSpec ref;
  ref.edge_rate = spec.ref_edge_rate;
  ref.query_rate = spec.ref_query_rate;
  ref.query_threads = spec.query_threads;
  ref.seconds = spec.ref_seconds;
  std::vector<double> auc_scores;
  std::vector<int> auc_labels;
  auto keep_auc = [&](const PhaseResult& r) {
    auc_scores.insert(auc_scores.end(), r.auc_scores.begin(),
                      r.auc_scores.end());
    auc_labels.insert(auc_labels.end(), r.auc_labels.begin(),
                      r.auc_labels.end());
  };
  auto account = [&](const PhaseResult& r) { report->Ops(r.attempted, r.failed); };

  if (spec.warmup_seconds > 0.0) {
    PhaseSpec warm = ref;
    warm.seconds = spec.warmup_seconds;
    const PhaseResult wr = h.RunPhase(svc.get(), warm);
    PrintPhase("warm-up", spec.edge_path ? ref.edge_rate : ref.query_rate,
               wr, "");
    account(wr);
  }
  const PhaseResult rr = h.RunPhase(svc.get(), ref);
  // Peak RSS is read before the ladder: the service keeps its whole ingest
  // log in memory, so rungs whose edge counts depend on their outcome
  // would make it vary from run to run.
  const double peak_rss_mb = PeakRssMb();
  PrintPhase("reference", spec.edge_path ? ref.edge_rate : ref.query_rate,
             rr, "");
  account(rr);
  keep_auc(rr);

  PhaseResult traced;
  std::vector<RungOutcome> rungs;  // the rungs that decide throughput
  double closed_loop_rate = 0.0;
  if (args.trace) {
    // The traced copy of the reference phase is shorter: at 100k edges/s
    // every second of it holds about 150k spans.
    PhaseSpec tps = ref;
    tps.seconds = std::min(ref.seconds, 3.0);
    Tracer::Get().Clear();
    Tracer::Get().SetEnabled(true);
    traced = h.RunPhase(svc.get(), tps);
    Tracer::Get().SetEnabled(false);
    PrintPhase("traced", spec.edge_path ? ref.edge_rate : ref.query_rate,
               traced, "");
    account(traced);
  } else if (spec.closed_loop_seconds > 0.0) {
    PhaseSpec ps = ref;
    ps.seconds = spec.closed_loop_seconds;
    ps.closed_loop = true;
    ps.query_threads = 1;
    const PhaseResult r = h.RunPhase(svc.get(), ps);
    closed_loop_rate =
        WindowedRate(r.query_due_s, kRateWindowS, spec.closed_loop_seconds);
    char verdict[96];
    std::snprintf(verdict, sizeof(verdict),
                  "  closed loop: %.0f q/s over %.0f-s windows",
                  closed_loop_rate, kRateWindowS);
    PrintPhase("closed", 0.0, r, verdict);
    // Its answers stay out of the served AUC: how many there are, and so
    // which pool entries they cover, depends on the rate.
    account(r);
  } else {
    // Ladder (see WorkloadSpec): it stops at the first rung that fails, so
    // exactly one overloaded rung runs, at the end (an overload leaves the
    // durable service slower for a while).
    for (int k = 0;; ++k) {
      const double rate = spec.ladder_base * std::pow(2.0, k / 8.0);
      if (rate > spec.ladder_max * 1.0001) break;
      if (NowNs() > deadline) {
        std::printf("ladder stopped at twice the time budget before "
                    "%.0f/s\n", rate);
        break;
      }
      PhaseSpec ps = ref;
      ps.seconds = spec.rung_seconds;
      ps.edge_rate = rate;
      const PhaseResult r = h.RunPhase(svc.get(), ps);
      rungs.push_back(Outcome(rate, r, spec));
      const bool held = RungSustained(rungs.back());
      char verdict[128];
      std::snprintf(verdict, sizeof(verdict),
                    "  achieved %.0f/s  windowed p99 %.3f ms  %s",
                    rungs.back().achieved_per_s,
                    rungs.back().tail_latency_ms,
                    held ? "sustained" : "NOT sustained");
      PrintPhase("rung", rate, r, verdict);
      account(r);
      keep_auc(r);
      if (!held) break;
    }
  }

  // Output checks.
  svc->Flush();
  const uint64_t published = svc->published_seq();
  report->Check(published == h.cursor().accepted_edges,
                "published seq %" PRIu64 " != accepted edges %" PRIu64
                " after Flush",
                published, h.cursor().accepted_edges);
  report->Check(checks.bad_rows == 0, "%" PRIu64 " responses without one row",
                checks.bad_rows);
  report->Check(checks.non_finite == 0,
                "%" PRIu64 " responses with non-finite scores",
                checks.non_finite);
  report->Check(checks.wm_regressions == 0,
                "%" PRIu64 " client watermark regressions",
                checks.wm_regressions);
  const splash::ServeStats final_stats = svc->Stats();
  report->Check(!final_stats.counters.degraded, "service degraded");

  if (!args.trace) {
    const double auc = Auc(auc_scores, auc_labels);
    std::printf("%s auc %.6f over %zu labelled answers\n",
                spec.train ? "prequential" : "served", auc,
                auc_scores.size());
    report->Set("setup_s", Median(setup), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    report->Set("cpu_cores", (rr.proc_cpu_s - rr.load_cpu_s) / rr.wall_s,
                "cores");
    report->Set("throughput_per_s",
                spec.closed_loop_seconds > 0.0 ? closed_loop_rate
                                               : MaxSustainedRate(rungs),
                "1/s");
    report->Set("auc", auc, "auc");
    report->Set("freshness_p50_ms",
                WindowedQuantile(rr.fresh_due_s, rr.fresh_ms, kP50WindowS,
                                 0.5, 100, kP50AcrossWindows),
                "ms");
    report->Set("query_p50_us",
                WindowedQuantile(rr.query_due_s, rr.query_us, kP50WindowS,
                                 0.5, 100, kP50AcrossWindows),
                "us");
  } else {
    // The tails, from the untraced reference phase of this run.
    report->Set("e2e.freshness_p99_ms", Q(rr.fresh_ms, 0.99), "ms");
    report->Set("e2e.query_p99_us", Q(rr.query_us, 0.99), "us");
    // serve layer: client spans and Stats() deltas of the traced phase.
    const PhaseResult& t = traced;
    const double batches = static_cast<double>(t.after.batches_applied -
                                               t.before.batches_applied);
    const double queries =
        static_cast<double>(t.after.queries - t.before.queries);
    const double groups = static_cast<double>(t.after.coalesced_groups -
                                              t.before.coalesced_groups);
    const double coalesced = static_cast<double>(t.after.coalesced_callers -
                                                 t.before.coalesced_callers);
    const double edges = static_cast<double>(t.after.ingest_accepted -
                                             t.before.ingest_accepted);
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    report->Set("serve.ingest_call_us_p50", Q(t.ingest_call_us, 0.5), "us");
    report->Set("serve.ingest_call_us_p99", Q(t.ingest_call_us, 0.99), "us");
    report->Set("serve.score_call_us_p50", Q(t.score_call_us, 0.5), "us");
    report->Set("serve.score_call_us_p99", Q(t.score_call_us, 0.99), "us");
    report->Set("serve.gen_late_ms_p99", Q(t.late_ms, 0.99), "ms");
    report->Set("serve.apply_us_p50", final_stats.apply.p50_ns * 1e-3, "us");
    report->Set("serve.apply_us_p99", final_stats.apply.p99_ns * 1e-3, "us");
    report->Set("serve.edges_per_batch", ratio(edges, batches), "count");
    report->Set("serve.queue_peak",
                static_cast<double>(t.after.queue_high_watermark), "count");
    report->Set("serve.coalesced_share", ratio(coalesced, queries), "frac");
    report->Set("serve.group_size", ratio(coalesced, groups), "count");
    report->Set("serve.fsyncs_per_batch",
                ratio(static_cast<double>(t.after.wal_fsyncs -
                                          t.before.wal_fsyncs),
                      batches),
                "count");
    report->Set("serve.checkpoints",
                static_cast<double>(t.after.checkpoints_written -
                                    t.before.checkpoints_written),
                "count");
    report->Set("serve.train_steps",
                static_cast<double>(t.after.train_steps -
                                    t.before.train_steps),
                "count");
    report->Set("serve.unseen_query_share",
                ratio(static_cast<double>(t.after.unseen_node_queries -
                                          t.before.unseen_node_queries),
                      queries),
                "frac");
    report->Set("serve.cpu_us_per_op",
                ratio((t.proc_cpu_s - t.load_cpu_s) * 1e6,
                      static_cast<double>(t.edges_sent + t.queries_sent)),
                "us");
    // Tracing overhead and residual on the workload's primary path.
    const std::vector<double>& e2e_u =
        spec.edge_path ? rr.fresh_ms : rr.query_us;
    const std::vector<double>& e2e_t =
        spec.edge_path ? t.fresh_ms : t.query_us;
    const double base = Q(e2e_u, 0.5);
    report->Set("trace.overhead_frac", ratio(Q(e2e_t, 0.5) - base, base),
                "frac");
    double e2e_sum = 0.0, call_sum = 0.0;
    if (spec.edge_path) {
      for (double v : t.fresh_ms) e2e_sum += v * 1e3;
      for (double v : t.ingest_call_us) call_sum += v;
    } else {
      for (double v : t.query_us) e2e_sum += v;
      for (double v : t.score_call_us) call_sum += v;
    }
    report->Set("trace.residual_frac", 1.0 - ratio(call_sum, e2e_sum),
                "frac");
    if (!args.out_dir.empty()) {
      Tracer::Get().WriteCsv(args.out_dir + "/spans-" + args.workload +
                             ".csv");
    }
    // Layer replays: the same inputs through a standalone predictor, in
    // batches of the edges-per-batch the live service applied.
    PredictorProbeInput pin;
    pin.warmup = &in.warmup;
    pin.split = &in.split;
    pin.live = &in.full;
    pin.live_begin = in.live_begin;
    pin.live_label_begin = in.live_label_begin;
    pin.train = spec.train;
    pin.model = ServeModelOptions(spec.wide);
    pin.fit = fit;
    pin.edges_per_batch =
        std::max<size_t>(1, static_cast<size_t>(ratio(edges, batches)));
    ProbePredictor(pin, report);
  }
  svc->Stop();
  svc.reset();
  for (int rep = 0; rep < setups; ++rep) {
    std::filesystem::remove_all(base_dir + "-" + std::to_string(rep));
  }
}

}  // namespace

void RunIngest(const RunArgs& args, Report* report) {
  WorkloadSpec s;
  s.durable = true;
  s.train = true;
  s.ref_edge_rate = 100000;
  s.ref_query_rate = 10000;
  s.ref_seconds = 10.0;
  s.query_threads = 1;
  s.ladder_base = 100000;
  s.ladder_max = 300000;
  s.latency_limit_ms = 250.0;
  RunServe(s, args, report);
}

void RunQueryWide(const RunArgs& args, Report* report) {
  WorkloadSpec s;
  s.wide = true;
  s.ref_edge_rate = 2000;
  s.ref_query_rate = 1200;
  s.ref_seconds = 14.0;
  s.setups = 3;  // each Start() fits the wide model twice
  s.query_threads = 3;
  s.edge_path = false;
  s.warmup_seconds = 4.0;
  s.closed_loop_seconds = 10.0;
  RunServe(s, args, report);
}

}  // namespace perfbench
