#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
  return *tracer;                        // still hold buffers at exit
}

Tracer::ThreadBuf* Tracer::Local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    std::lock_guard<std::mutex> lock(mu_);
    owned->thread = static_cast<uint32_t>(bufs_.size());
    buf = owned.get();
    bufs_.push_back(std::move(owned));
  }
  return buf;
}

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  if (stored_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  ThreadBuf* b = Local();
  std::lock_guard<std::mutex> lock(b->mu);
  Span s;
  s.name = name;
  s.id = (static_cast<uint64_t>(b->thread) << 40) | b->next_local++;
  s.parent = b->open.empty() ? 0 : b->spans[b->open.back()].id;
  s.request = request;
  s.thread = b->thread;
  b->open.push_back(b->spans.size());
  b->spans.push_back(s);
  b->spans.back().start_ns = NowNs();
  return s.id;
}

void Tracer::End(uint64_t id) {
  const uint64_t now = NowNs();
  ThreadBuf* b = Local();
  std::lock_guard<std::mutex> lock(b->mu);
  // Spans nest on a thread, so the span being closed is the innermost
  // open one; a Clear() in between leaves nothing to close.
  if (b->open.empty()) return;
  Span& s = b->spans[b->open.back()];
  if (s.id != id) return;
  s.end_ns = now;
  b->open.pop_back();
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    for (const Span& s : b->spans) {
      if (s.end_ns != 0) out.push_back(s);
    }
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->spans.clear();
    b->open.clear();
  }
  stored_.store(0);
  dropped_.store(0);
}

bool Tracer::WriteCsv(const std::string& path) const {
  const std::vector<Span> spans = Collect();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,thread,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%u,%s,%" PRIu64
                 ",%" PRIu64 "\n",
                 s.id, s.parent, s.request, s.thread, s.name, s.start_ns,
                 s.end_ns);
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanTotals> Tracer::Totals(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  static const std::vector<std::pair<uint64_t, uint64_t>> kNone;
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    const auto it = children.find(s.id);
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += SelfTimeNs(s.start_ns, s.end_ns,
                            it == children.end() ? kNone : it->second);
  }
  return totals;
}

}  // namespace perfbench
