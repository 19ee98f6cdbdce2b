// Self-tests of the benchmark itself: sample arithmetic, seeded request
// generation, failure accounting and open-loop timing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/xml/xml_writer.h"
#include "workloads.h"

namespace perfbench {

namespace {

void Expect(bool cond, const std::string& what) {
  if (!cond) Fatal("self-test failed: " + what);
  std::printf("selftest ok: %s\n", what.c_str());
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  std::reverse(v.begin(), v.end());
  Expect(Percentile(v, 50) == 50 && Percentile(v, 99) == 99 &&
             Percentile(v, 100) == 100 && Median(v) == 50,
         "nearest-rank p50/p99/p100 of 1..100 are 50/99/100");
  Expect(Percentile({7}, 99) == 7 && Percentile({}, 50) == 0,
         "percentiles of a one-element and an empty sample");
  Expect(Percentile({1, 2, 3, 4}, 50) == 2, "median of 1..4 is 2");

  // 1..100 ms: each value lands in a bucket whose middle is within 1/128
  // of it, so the histogram's nearest-rank percentiles are too.
  Histogram h;
  for (int i = 100; i >= 1; --i) h.Add(i * 1'000'000LL);
  auto near = [](double got, double want) {
    return std::abs(got - want) <= want / 128;
  };
  Expect(h.count() == 100 && near(h.PercentileMs(50), 50) &&
             near(h.PercentileMs(99), 99) && near(h.PercentileMs(100), 100) &&
             Histogram().PercentileMs(50) == 0,
         "histogram p50/p99/p100 of 1..100 ms are within 1/128");
  bool buckets_ok = true;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const int64_t lo = Histogram::BucketLow(b);
    const int64_t hi = lo + Histogram::BucketWidth(b) - 1;
    buckets_ok = buckets_ok && Histogram::BucketOf(lo) == b &&
                 Histogram::BucketOf(hi) == b &&
                 (b + 1 == Histogram::kBuckets ||
                  Histogram::BucketLow(b + 1) == hi + 1);
  }
  Expect(buckets_ok && Histogram::BucketOf(63) == 63 &&
             Histogram::BucketOf(int64_t{1} << 62) == Histogram::kBuckets - 1,
         "histogram buckets tile the range without gaps");

  ClassSamples a, b;
  a.Add(kPoint, 1'000'000);
  a.Add(kPoint, 2'000'000);
  b.Add(kPoint, 3'000'000);
  b.Add(kScan, 4'000'000);
  b.Add(kUpdate, 5'000'000);
  a.Merge(b);
  Report r;
  r.AddLatency(kPoint, a);
  r.AddLatency(kCount, a);
  Expect(a.Reads() == 4 && near(r.Find("point_p50_ms")->value, 2) &&
             r.Find("point_p99_ms")->samples == 3 &&
             r.Find("count_p50_ms") == nullptr,
         "merged samples count reads only and carry their sample count");
}

/// Slices on the line rate = 1400 - 3500 x steal give 1400; slices that
/// all have the same steal give their mean.
void TestZeroStealRate() {
  const std::vector<double> steal = {0.02, 0.15, 0.06, 0.1};
  std::vector<double> rate;
  for (double s : steal) rate.push_back(1400 - 3500 * s);
  Expect(std::abs(ZeroStealRate(steal, rate) - 1400) < 1e-6 &&
             ZeroStealRate({0.1, 0.1}, {900, 1100}) == 1000,
         "the read rate is taken at zero host steal");
}

void TestSeededRequests() {
  auto draw = [](uint64_t seed) {
    Rng rng(SubSeed(seed, 100));
    std::string seq;
    for (int i = 0; i < 1000; ++i) {
      Request r = DrawRequest(&rng, AllWorkloads()[0].mix);
      seq += std::to_string(r.enc) + r.text + "\n";
    }
    return seq;
  };
  Expect(draw(1) == draw(1), "the same seed gives the same request sequence");
  Expect(draw(1) != draw(2), "another seed gives another request sequence");
  Expect(oxml::WriteXml(*BuildDom(GenerateNews(5))) ==
                 oxml::WriteXml(*BuildDom(GenerateNews(5))) &&
             oxml::WriteXml(*BuildDom(GenerateNews(5))) !=
                 oxml::WriteXml(*BuildDom(GenerateNews(6))),
         "the document is a function of the seed");
}

/// A request to a store name the server does not know must count as
/// failed, exactly as the workloads count failures.
void TestFailedRequestCounts(const RunArgs& args) {
  NewsModel model = GenerateNews(args.seed);
  Oracle oracle(model);
  FixtureConfig config;
  config.wire_clients = 1;
  double secs = 0;
  std::unique_ptr<Fixture> f =
      SetUp(config, oxml::WriteXml(*BuildDom(model)), [](Fixture&) {}, &secs);
  Tally tally;
  Windows win;
  win.start[0] = 0;
  win.slice_ns = INT64_MAX / Windows::kSlices;
  for (int i = 0; i < 3; ++i) {
    Request r = MakeRequest(kPoint, i, 0, 1, 1);
    int64_t t0 = NowNs();
    ReadResult got = WireRead(f->clients[0].get(), r);
    CheckOk(got.status(), "self-test read");
    CheckRead(oracle, r, *got);
    tally.Record(win, kPoint, t0, NowNs(), got.status(), true);
  }
  int64_t t0 = NowNs();
  auto bad = f->clients[0]->XPath("no_such_store", "/nitf");
  tally.Record(win, kPoint, t0, NowNs(), bad.status(), false);
  Expect(!bad.ok() && tally.attempted[0] == 4 && tally.failed[0] == 1 &&
             tally.checked[0] == 3 && tally.slice_reads[0] == 3 &&
             FailedFrac(tally.failed[0], tally.attempted[0]) == 0.25 &&
             tally.samples[0].cls[kPoint].count() == 3,
         "a request to an unregistered store lands in failed_frac");
  // A workload aborts on any failure but the known reconstruction race.
  Expect(!IsKnownReadRace(bad.status()) &&
             IsKnownReadRace(oxml::Status::Internal(
                 "subtree reconstruction produced 0 roots")) &&
             !IsKnownReadRace(oxml::Status::Internal(
                 "subtree reconstruction produced 2 roots")),
         "only the known 0-roots race is tolerated");
}

/// One op stalls for 30 ms in a 10 ms schedule: the ops queued behind it
/// must carry the stall in their latency.
void TestOpenLoopLatency() {
  std::vector<int64_t> sched, start, end;
  const int64_t t0 = NowNs() + 1'000'000;
  OpenLoop(
      t0, 10'000'000, [&](int64_t) { return sched.size() >= 5; },
      [&](int64_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
      },
      [&](int64_t, int64_t s, int64_t b, int64_t e) {
        sched.push_back(s);
        start.push_back(b);
        end.push_back(e);
      });
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  Expect(sched.size() == 5 && sched[1] - sched[0] == 10'000'000 &&
             ms(end[1] - sched[1]) >= 19.5 && ms(end[2] - sched[2]) >= 9.5 &&
             ms(start[1] - sched[1]) >= 19.5,
         "open-loop latency and lag count from the scheduled time");
}

}  // namespace

void RunSelfTest(const RunArgs& args) {
  TestPercentiles();
  TestZeroStealRate();
  TestSeededRequests();
  TestOpenLoopLatency();
  TestFailedRequestCounts(args);
  std::printf("selftest passed\n");
}

}  // namespace perfbench
