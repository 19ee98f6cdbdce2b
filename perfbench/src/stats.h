// Sample arithmetic and the metric report: nearest-rank percentiles,
// per-class latency histograms, and the printer that emits every metric with
// its unit and sample count plus the final JSON result line.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Nearest-rank percentile (q in (0, 100]) of an unsorted sample; 0 for an
/// empty sample. The p-th percentile is the smallest value with at least
/// p% of the sample at or below it.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Fewest samples a p99 needs so that at least ten samples lie above it.
constexpr size_t kMinP99Samples = 1000;

/// Latency histogram over nanoseconds with log-linear buckets: exact below
/// 64 ns, then 64 buckets per power of two up to 2^46 ns (about 20 h), so a
/// percentile read from it is within 1/128 of the sample's. Its size is
/// fixed, so the benchmark's own memory does not grow with the number of
/// requests it measures and `peak_rss_mb` stays the engine's.
class Histogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 46;
  static constexpr int kBuckets = kSub * (kMaxExp - kSubBits + 1);

  void Add(int64_t ns);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile (q in (0, 100]) in milliseconds: the middle of
  /// the bucket holding the sample of that rank; 0 when empty.
  double PercentileMs(double q) const;

  static int BucketOf(int64_t ns);
  /// Smallest value of a bucket and its width, in nanoseconds.
  static int64_t BucketLow(int b);
  static int64_t BucketWidth(int b);

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

/// Latencies of each request class, measured from the time the request
/// started (or was scheduled, for open-loop ops).
struct ClassSamples {
  std::array<Histogram, kNumCls> cls;
  void Add(int c, int64_t latency_ns) { cls[c].Add(latency_ns); }
  void Merge(const ClassSamples& other);
  uint64_t Reads() const;
};

/// Cumulative steal and total CPU time of the machine, in clock ticks, from
/// the aggregate line of /proc/stat.
struct HostCpu {
  double steal = 0, total = 0;
  static HostCpu Read();
  static double StealFrac(const HostCpu& from, const HostCpu& to);
};

/// The read rate a run would have had without host steal: the intercept at
/// steal 0 of the least-squares line through the slices' (steal share,
/// read rate) points; their mean when every slice has the same steal.
double ZeroStealRate(const std::vector<double>& steal_frac,
                     const std::vector<double>& rate);

/// One reported metric: value, unit and how many samples it rests on
/// (0 when it is a count or ratio rather than a sample statistic).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples = 0);
  /// `<cls>_p50_ms` and `<cls>_p99_ms` of one class. A class with no
  /// samples is omitted, as its workload has no such request.
  void AddLatency(int cls, const ClassSamples& s);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  /// Human-readable lines, one per metric, with unit and sample count.
  void PrintLines(const char* section) const;
  /// The result line: `names` selects, in order, the metrics that go into
  /// the JSON object (every name must be present).
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
