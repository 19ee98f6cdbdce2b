// Spans around the benchmark's calls into each layer (server, core,
// relational, xml). Only the traced run turns them on. Each span records
// name, start, end, parent span and request id; spans are kept in
// per-thread memory and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Which part of a run a span belongs to.
enum Phase : uint8_t { kPhaseSetup = 0, kPhaseWindow, kPhaseProbe };

struct Span {
  const char* name = nullptr;
  int8_t enc = -1;  // encoding index, -1 when not store-specific
  int8_t cls = -1;  // request class, -1 when not class-specific
  uint8_t phase = 0;
  uint32_t thread = 0;
  int32_t parent = -1;  // index into the same thread's spans
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double DurUs() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Process-wide switch plus the per-thread span buffers.
class Tracer {
 public:
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetPhase(Phase p) { phase_.store(p, std::memory_order_relaxed); }

  /// All spans of all threads. Call only after every traced thread joined.
  static std::vector<Span> Collect();
  /// Writes up to `max_spans` spans as JSON lines, each with its self time
  /// (duration minus the time its children cover). Returns spans written.
  static size_t WriteFile(const std::string& path,
                          const std::vector<Span>& spans, size_t max_spans);
  /// Per span name: count, median duration and total self time.
  static void PrintSelfTimes(const std::vector<Span>& spans);

 private:
  friend class SpanScope;
  friend class RequestScope;
  static std::atomic<bool> enabled_;
  static std::atomic<uint8_t> phase_;
};

/// Records one span for its lifetime when tracing is on; a no-op otherwise.
class SpanScope {
 public:
  explicit SpanScope(const char* name, int enc = -1, int cls = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int32_t index_ = -1;
};

/// A root span that also assigns a fresh request id to the spans under it.
class RequestScope {
 public:
  explicit RequestScope(const char* name, int enc = -1, int cls = -1);
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  // Declared before span_, so the root span already carries the new id.
  struct IdSetter {
    IdSetter();
  } id_;
  SpanScope span_;
};

/// Durations (us) of matching spans; -1 in enc/cls matches anything.
std::vector<double> SpanDurationsUs(const std::vector<Span>& spans,
                                    const char* name, Phase phase,
                                    int enc = -1, int cls = -1);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
