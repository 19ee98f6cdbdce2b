// The three workloads, the open-loop writer, and the code that runs them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "doc.h"
#include "fixture.h"
#include "stats.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  /// File-backed with the WAL at its defaults and an unbounded buffer
  /// pool; memory-resident otherwise.
  bool file_backed;
  /// Closed-loop OXWP reader connections, one thread each.
  int wire_readers;
  /// Closed-loop embedded reader threads.
  int embedded_readers;
  Mix mix;
  /// Open-loop writer: logical ops per second (0 = no writer). Each logical
  /// op is one transaction per store, scheduled 1/(3 x rate) s apart.
  double writer_rate;
};

/// Timed windows: a request belongs to the window its start (or, for the
/// open-loop writer, its scheduled time) falls in. Window 0, which the
/// end-to-end metrics use, is cut into kSlices equal slices.
struct Windows {
  static constexpr int kMax = 2;
  static constexpr int kSlices = 10;
  std::atomic<int64_t> start[kMax], end[kMax];
  std::atomic<int64_t> slice_ns{1};
  Windows() {
    for (int w = 0; w < kMax; ++w) {
      start[w] = INT64_MAX;
      end[w] = INT64_MAX;
    }
  }
  int Of(int64_t t) const {
    for (int w = 0; w < kMax; ++w) {
      if (t >= start[w].load() && t < end[w].load()) return w;
    }
    return -1;
  }
  int SliceOf(int64_t t) const {
    const int64_t k = (t - start[0].load()) / slice_ns.load();
    return static_cast<int>(std::clamp<int64_t>(k, 0, kSlices - 1));
  }
};

/// What one load thread saw, per window. Every attempted read is either
/// checked against the expected answer or counted as failed.
struct Tally {
  ClassSamples samples[Windows::kMax];
  uint64_t attempted[Windows::kMax] = {};
  uint64_t failed[Windows::kMax] = {};
  uint64_t checked[Windows::kMax] = {};
  /// Completed reads per slice of window 0.
  uint64_t slice_reads[Windows::kSlices] = {};
  Histogram writer_lag[Windows::kMax];
  std::vector<std::string> errors;

  /// `checked_answer` says the answer passed its correctness check; a
  /// failed request has none to check.
  void Record(const Windows& win, int cls, int64_t from_ns, int64_t end_ns,
              const oxml::Status& st, bool checked_answer) {
    const int w = win.Of(from_ns);
    if (w < 0) return;
    ++attempted[w];
    if (!st.ok()) {
      ++failed[w];
      if (errors.size() < 5) errors.push_back(st.ToString());
      return;
    }
    if (checked_answer) ++checked[w];
    if (w == 0 && cls != kUpdate) ++slice_reads[win.SliceOf(from_ns)];
    samples[w].Add(cls, end_ns - from_ns);
  }
};

/// The one read error a workload counts instead of aborting on: with a
/// concurrent DeleteSubtree, a wire XPath can find a node that is gone by
/// the time its subtree is reconstructed, because the server runs
/// EvaluateXPath and each ReconstructSubtree as separate statements. Only
/// mixed_update, which has a writer, tolerates it; it is never retried.
bool IsKnownReadRace(const oxml::Status& st);

/// Failed or refused requests as a share of those attempted.
inline double FailedFrac(uint64_t failed, uint64_t attempted) {
  return attempted == 0 ? 0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// Seconds a run measures when `--seconds` is not given; the bounds in
/// BENCHMARK.json were checked at this length.
constexpr double kDefaultSeconds = 34;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool trace = false;
  /// Directory for database files and the span file.
  std::string out_dir = ".";
};

/// Runs one workload and prints its metrics and the result line.
void RunWorkload(const RunArgs& args);

/// Checks the benchmark's own arithmetic and plumbing; aborts on failure.
void RunSelfTest(const RunArgs& args);

/// The metric names of the result line, in order.
std::vector<std::string> EndToEndNames();
std::vector<std::string> PerLayerNames();

/// Runs `op(i)` at `t0_ns + i * period_ns` for i = 0, 1, ... until
/// `stop(i)` returns true, never skipping a slot; a late op runs as soon as the one
/// before it ends. `record(i, scheduled_ns, start_ns, end_ns)` gets each
/// op's times, so latency counts from the scheduled time.
template <typename Stop, typename Op, typename Record>
void OpenLoop(int64_t t0_ns, int64_t period_ns, Stop stop, Op op,
              Record record) {
  for (int64_t i = 0;; ++i) {
    const int64_t sched = t0_ns + i * period_ns;
    while (NowNs() < sched) {
      if (stop(i)) return;
      int64_t wait = std::min<int64_t>(sched - NowNs(), 20'000'000);
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    if (stop(i)) return;
    const int64_t start = NowNs();
    op(i);
    record(i, sched, start, NowNs());
  }
}

/// The mixed_update writer: applies each logical op to Global, then Local,
/// then Dewey, each as one explicit transaction, and keeps a model of the
/// document in step so the stores can be checked against it.
class Writer {
 public:
  enum Type { kInsert = 0, kDelete, kUpdateValue };
  struct Op {
    Type type = kInsert;
    int k = 1;    // section (1-based)
    int pos = 0;  // paragraph index among the section's paragraphs
    std::string text;
  };

  Writer(const NewsModel& model, uint64_t seed) : mirror_(model), rng_(seed) {}
  /// Draws the next op: 40% insert, 40% delete of an earlier-inserted
  /// paragraph (an insert when none is left), 20% value update. `forced`
  /// >= 0 fixes the type instead.
  Op Plan(int forced = -1);
  /// One transaction on one store; any failure aborts the run.
  oxml::UpdateStats Apply(Fixture& f, int enc, const Op& op);
  /// Records a fully applied op in the model.
  void Commit(const Op& op);
  const NewsModel& mirror() const { return mirror_; }

 private:
  NewsModel mirror_;
  Rng rng_;
  int next_bench_ = 1;
};

/// Validate() on every store, then byte-compares each reconstructed
/// document with the model.
void CheckStoresMatch(Fixture& f, const NewsModel& model, const char* when);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
