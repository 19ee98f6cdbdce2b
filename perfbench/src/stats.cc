#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  // The epsilon keeps q * n / 100 that is an integer in exact arithmetic
  // from rounding up past it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size()) / 100.0 - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

int Histogram::BucketOf(int64_t ns) {
  if (ns < kSub) return ns < 0 ? 0 : static_cast<int>(ns);
  if (ns >= (int64_t{1} << kMaxExp)) return kBuckets - 1;
  // ns in [2^e, 2^(e+1)) with e >= kSubBits: 64 buckets of width 2^shift.
  const int e = 63 - __builtin_clzll(static_cast<uint64_t>(ns));
  const int shift = e - kSubBits;
  return (shift + 1) * kSub + static_cast<int>((ns >> shift) - kSub);
}

int64_t Histogram::BucketLow(int b) {
  if (b < kSub) return b;
  const int shift = b / kSub - 1;
  return static_cast<int64_t>(kSub + b % kSub) << shift;
}

int64_t Histogram::BucketWidth(int b) {
  return b < kSub ? 1 : int64_t{1} << (b / kSub - 1);
}

void Histogram::Add(int64_t ns) {
  ++counts_[static_cast<size_t>(BucketOf(ns))];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double Histogram::PercentileMs(double q) const {
  if (count_ == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_) / 100.0 - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  int b = 0;
  for (; b < kBuckets - 1; ++b) {
    seen += counts_[b];
    if (seen >= rank) break;
  }
  const double mid = static_cast<double>(BucketLow(b)) +
                     static_cast<double>(BucketWidth(b) - 1) / 2;
  return mid / 1e6;
}

void ClassSamples::Merge(const ClassSamples& other) {
  for (int c = 0; c < kNumCls; ++c) cls[c].Merge(other.cls[c]);
}

uint64_t ClassSamples::Reads() const {
  uint64_t n = 0;
  for (int c = 0; c < kNumCls; ++c) {
    if (c != kUpdate) n += cls[c].count();
  }
  return n;
}

HostCpu HostCpu::Read() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) Fatal("cannot read /proc/stat");
  char line[512];
  HostCpu out;
  if (std::fgets(line, sizeof(line), f) != nullptr &&
      std::strncmp(line, "cpu ", 4) == 0) {
    // user nice system idle iowait irq softirq steal
    char* p = line + 4;
    for (int field = 0; field < 8; ++field) {
      const double v = std::strtod(p, &p);
      out.total += v;
      if (field == 7) out.steal = v;
    }
  }
  std::fclose(f);
  if (out.total <= 0) Fatal("no aggregate cpu line in /proc/stat");
  return out;
}

double HostCpu::StealFrac(const HostCpu& from, const HostCpu& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0;
}

double ZeroStealRate(const std::vector<double>& steal_frac,
                     const std::vector<double>& rate) {
  const double n = static_cast<double>(rate.size());
  double mx = 0, my = 0;
  for (size_t i = 0; i < rate.size(); ++i) {
    mx += steal_frac[i] / n;
    my += rate[i] / n;
  }
  double sxx = 0, sxy = 0;
  for (size_t i = 0; i < rate.size(); ++i) {
    sxx += (steal_frac[i] - mx) * (steal_frac[i] - mx);
    sxy += (steal_frac[i] - mx) * (rate[i] - my);
  }
  return sxx > 1e-12 ? my - sxy / sxx * mx : my;
}

void Report::Add(std::string name, double value, std::string unit,
                 size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::AddLatency(int cls, const ClassSamples& s) {
  const Histogram& h = s.cls[cls];
  const size_t n = h.count();
  if (n == 0) return;
  std::string base = ClsName(cls);
  Add(base + "_p50_ms", h.PercentileMs(50), "ms", n);
  Add(base + "_p99_ms", h.PercentileMs(99), "ms", n);
  if (n < kMinP99Samples) {
    std::printf("warning: %s_p99_ms rests on %zu samples (< %zu)\n",
                base.c_str(), n, kMinP99Samples);
  }
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::PrintLines(const char* section) const {
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("%s %-40s %14.6g %-8s n=%zu\n", section, m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("%s %-40s %14.6g %s\n", section, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

void Report::PrintJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = Find(name);
    if (m == nullptr) Fatal("metric " + name + " was not measured");
    if (!std::isfinite(m->value)) Fatal("metric " + name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m->value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m->unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
