// In-memory span recorder for traced runs. Spans wrap the benchmark's own
// calls into each library layer (name "layer.call"); the library itself is
// not instrumented. Spans are kept per thread, written out when the run
// ends, and reduced to per-layer self times.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;  // static string "layer.call"
  uint64_t id = 0;             // unique across threads, never 0
  uint64_t parent = 0;         // enclosing span on the same thread, 0 = root
  uint64_t request = 0;        // request id shared by one request's spans
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Aggregate of one span name: count, total and self time.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread and returns its id (0 = disabled).
  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);

  /// Every recorded span, all threads, in no particular order.
  std::vector<Span> Collect() const;
  /// Drops every recorded span (the per-thread buffers stay registered).
  void Clear();
  uint64_t dropped() const { return dropped_.load(); }

  /// Writes the spans as CSV (id,parent,request,thread,name,start,end).
  bool WriteCsv(const std::string& path) const;

  /// Per-name count / total / self time over `spans`. Self time is a span
  /// minus the union of its children (stats.h SelfTimeNs).
  static std::map<std::string, SpanTotals> Totals(
      const std::vector<Span>& spans);

  /// Per-thread buffers hold at most this many spans in total; further
  /// spans are counted in dropped().
  static constexpr size_t kMaxSpans = 3000000;

 private:
  struct ThreadBuf {
    std::mutex mu;  // guards spans against Collect/Clear from other threads
    std::vector<Span> spans;
    std::vector<size_t> open;  // indices of open spans (the parent stack)
    uint32_t thread = 0;
    uint64_t next_local = 1;
  };
  ThreadBuf* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> stored_{0}, dropped_{0};
  mutable std::mutex mu_;  // guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span. A no-op (one relaxed load) when tracing is off.
class SpanScope {
 public:
  explicit SpanScope(const char* name, uint64_t request = 0)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, request) : 0) {
  }
  ~SpanScope() {
    if (id_ != 0) Tracer::Get().End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
