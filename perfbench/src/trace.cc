#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common.h"
#include "stats.h"

namespace perfbench {

std::atomic<bool> Tracer::enabled_{false};
std::atomic<uint8_t> Tracer::phase_{kPhaseSetup};

namespace {

struct ThreadBuf {
  uint32_t thread = 0;
  uint64_t request = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;  // indexes of the spans still open
};

std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>>& Bufs() {
  static auto* bufs = new std::vector<std::unique_ptr<ThreadBuf>>();
  return *bufs;
}
std::atomic<uint64_t> g_next_request{0};

/// The calling thread's buffer. Buffers are owned by the registry, so they
/// outlive their threads and can be collected after the threads join.
ThreadBuf* Local() {
  thread_local ThreadBuf* buf = [] {
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    Bufs().push_back(std::make_unique<ThreadBuf>());
    Bufs().back()->thread = static_cast<uint32_t>(Bufs().size() - 1);
    Bufs().back()->spans.reserve(1 << 16);
    return Bufs().back().get();
  }();
  return buf;
}

/// Self time of every span: its duration minus its children's durations
/// (children of one span run on its thread, nested and disjoint in time).
std::vector<int64_t> SelfNs(const std::vector<Span>& spans,
                            const std::vector<size_t>& base) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) {
      self[base[s.thread] + static_cast<size_t>(s.parent)] -=
          s.end_ns - s.start_ns;
    }
  }
  return self;
}

/// Offset of each thread's first span in a Collect() result.
std::vector<size_t> ThreadBases(const std::vector<Span>& spans) {
  std::vector<size_t> base;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].thread >= base.size()) base.resize(spans[i].thread + 1, i);
  }
  return base;
}

const char* kPhaseNames[] = {"setup", "window", "probe"};

}  // namespace

SpanScope::SpanScope(const char* name, int enc, int cls) {
  if (!Tracer::enabled()) return;
  ThreadBuf* b = Local();
  Span s;
  s.name = name;
  s.enc = static_cast<int8_t>(enc);
  s.cls = static_cast<int8_t>(cls);
  s.phase = Tracer::phase_.load(std::memory_order_relaxed);
  s.thread = b->thread;
  s.parent = b->open.empty() ? -1 : b->open.back();
  s.request = b->request;
  index_ = static_cast<int32_t>(b->spans.size());
  b->open.push_back(index_);
  s.start_ns = NowNs();
  b->spans.push_back(s);
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  int64_t end = NowNs();
  ThreadBuf* b = Local();
  b->spans[static_cast<size_t>(index_)].end_ns = end;
  b->open.pop_back();
}

RequestScope::IdSetter::IdSetter() {
  if (!Tracer::enabled()) return;
  Local()->request = g_next_request.fetch_add(1, std::memory_order_relaxed) + 1;
}

RequestScope::RequestScope(const char* name, int enc, int cls)
    : span_(name, enc, cls) {}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  std::vector<Span> all;
  for (const auto& b : Bufs()) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

size_t Tracer::WriteFile(const std::string& path,
                         const std::vector<Span>& spans, size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fatal("cannot write span file " + path);
  std::vector<size_t> base = ThreadBases(spans);
  std::vector<int64_t> self = SelfNs(spans, base);
  size_t n = std::min(spans.size(), max_spans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": \"%u.%zu\", \"parent\": \"%s\", \"request\": %llu, "
                 "\"name\": \"%s\", \"enc\": \"%s\", \"class\": \"%s\", "
                 "\"phase\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}\n",
                 s.thread, i - base[s.thread],
                 s.parent < 0 ? ""
                              : (std::to_string(s.thread) + "." +
                                 std::to_string(s.parent))
                                    .c_str(),
                 static_cast<unsigned long long>(s.request), s.name,
                 s.enc < 0 ? "" : EncName(s.enc),
                 s.cls < 0 ? "" : ClsName(s.cls), kPhaseNames[s.phase],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  std::fclose(f);
  return n;
}

void Tracer::PrintSelfTimes(const std::vector<Span>& spans) {
  struct Agg {
    std::vector<double> dur_us;
    double self_ms = 0;
  };
  std::vector<int64_t> self = SelfNs(spans, ThreadBases(spans));
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Agg& a = by_name[std::string(kPhaseNames[s.phase]) + " " + s.name];
    a.dur_us.push_back(s.DurUs());
    a.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  std::printf("span %-44s %10s %12s %12s\n", "phase name", "count",
              "median_us", "self_ms");
  for (const auto& [name, a] : by_name) {
    std::printf("span %-44s %10zu %12.3f %12.3f\n", name.c_str(),
                a.dur_us.size(), Median(a.dur_us), a.self_ms);
  }
}

std::vector<double> SpanDurationsUs(const std::vector<Span>& spans,
                                    const char* name, Phase phase, int enc,
                                    int cls) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.phase != phase || std::string_view(s.name) != name) continue;
    if (enc >= 0 && s.enc != enc) continue;
    if (cls >= 0 && s.cls != cls) continue;
    out.push_back(s.DurUs());
  }
  return out;
}

}  // namespace perfbench
