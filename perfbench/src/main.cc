// perfbench: the repository benchmark's measuring program. One run = one
// workload at one seed, untraced (end-to-end metrics) or traced (per-layer
// metrics). perfbench/run.py builds it and is the command to call:
//
//   perfbench --workload replay|ingest|query_wide --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--reference FILE] [--cycles N]
//
// --cycles N runs exactly N replay cycles; with N = 1 it is how the
// reference test AUCs in reference_auc.txt are recorded.
//
// The last line of stdout is the result JSON; the exit code is non-zero
// when any output check failed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "runtime/thread_pool.h"
#include "tensor/simd.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char* const kEndToEnd[] = {
    "setup_s", "peak_rss_mb",      "cpu_cores",    "throughput_per_s",
    "auc",     "freshness_p50_ms", "query_p50_us",
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload replay|ingest|query_wide "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--reference FILE] [--cycles N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else if (a == "--reference") {
      args.reference_file = v;
    } else if (a == "--cycles") {
      args.cycles = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0.0) return Usage();
  void (*run)(const RunArgs&, Report*) = nullptr;
  if (args.workload == "replay") run = RunReplay;
  if (args.workload == "ingest") run = RunIngest;
  if (args.workload == "query_wide") run = RunQueryWide;
  if (run == nullptr) return Usage();

  const splash::CacheTopology& cache = splash::DetectCacheTopology();
  std::printf("host: nproc %u, pool threads %zu, kernel backend %s, cache "
              "%s%s\n",
              std::thread::hardware_concurrency(),
              splash::ThreadPool::GlobalThreads(),
              splash::KernelBackendName(),
              splash::CacheTopologyString().c_str(),
              cache.detected ? "" : " (fallback)");
  std::printf("run: workload %s, seed %llu, seconds %.1f, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  run(args, &report);
  if (args.trace) {
    // Per span name: calls, total and self time (a span minus its
    // children) over the traced phase.
    std::printf("%-28s %10s %12s %12s\n", "span", "calls", "total_ms",
                "self_ms");
    for (const auto& [name, t] : Tracer::Totals(Tracer::Get().Collect())) {
      std::printf("%-28s %10llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ns * 1e-6,
                  t.self_ns * 1e-6);
    }
    if (Tracer::Get().dropped() != 0) {
      std::printf("spans dropped past the %zu-span cap: %llu\n",
                  Tracer::kMaxSpans,
                  static_cast<unsigned long long>(Tracer::Get().dropped()));
    }
    RunLayerProbes(args, &report);
    // Every per-layer metric is printed; one a workload cannot measure
    // must have been reported Absent() with its reason.
    for (const auto& metric : PerLayerMetrics()) report.Require(metric.first);
  } else {
    for (const char* name : kEndToEnd) report.Require(name);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
