// Shared vocabulary of the benchmark: clocks, the seeded generator, the
// three encodings and request classes, and fatal-error helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/status.h"
#include "src/core/order_encoding.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Prints the message and exits non-zero without a result line. Used for
/// set-up errors and correctness violations: any wrong answer aborts a run.
/// Load threads may call it, so it exits without running destructors.
[[noreturn]] inline void Fatal(const std::string& msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::_Exit(2);
}

inline void CheckOk(const oxml::Status& st, const std::string& what) {
  if (!st.ok()) Fatal(what + ": " + st.ToString());
}

template <typename R>
auto Unwrap(R&& r, const std::string& what) {
  if (!r.ok()) Fatal(what + ": " + r.status().ToString());
  return std::move(r).value();
}

inline void Require(bool cond, const std::string& what) {
  if (!cond) Fatal("correctness check failed: " + what);
}

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when the engine's or the standard library's generators do.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  /// Uniform in [lo, hi].
  int Between(int lo, int hi) { return lo + Below(hi - lo + 1); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream from the run seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x100000001B3ull + stream);
  return r.Next();
}

constexpr int kNumEnc = 3;
inline const char* EncName(int enc) {
  static const char* kNames[] = {"global", "local", "dewey"};
  return kNames[enc];
}
inline oxml::OrderEncoding EncOf(int enc) {
  static const oxml::OrderEncoding kEnc[] = {oxml::OrderEncoding::kGlobal,
                                             oxml::OrderEncoding::kLocal,
                                             oxml::OrderEncoding::kDewey};
  return kEnc[enc];
}

/// Request classes. kUpdate is the mixed_update writer's op; the others are
/// reads.
enum Cls : int { kPoint = 0, kSubtree, kCount, kScan, kUpdate, kNumCls };
inline const char* ClsName(int cls) {
  static const char* kNames[] = {"point", "subtree", "count", "scan",
                                 "update"};
  return kNames[cls];
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
