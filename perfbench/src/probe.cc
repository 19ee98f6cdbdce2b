#include "probe.h"

#include <atomic>
#include <numeric>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Requests per class and encoding in the layer replay, and replay rounds.
constexpr int kReplayPerClass = 6;
constexpr int kReplayRounds = 3;
/// Calls per encoding for the Root()/ChildAt timings.
constexpr int kNavCalls = 200;
/// Writer ops per type per encoding.
constexpr int kWriteOps = 20;
/// Length of each pass of the 1-vs-4-thread speed-up measurement.
constexpr double kScalingSeconds = 1.0;

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::string Name(const char* base, const char* a, const char* b = nullptr) {
  std::string s = base;
  s.append(".").append(a);
  if (b != nullptr) s.append(".").append(b);
  return s;
}

/// The fixed replay sample: every class x encoding, drawn from the seed.
std::vector<Request> ReplaySample(uint64_t seed) {
  Rng rng(SubSeed(seed, 7));
  std::vector<Request> out;
  for (int e = 0; e < kNumEnc; ++e) {
    for (int cls : {kPoint, kSubtree, kCount, kScan}) {
      int n = cls == kPoint || cls == kSubtree ? kReplayPerClass
                                               : ShapesOf(cls);
      for (int i = 0; i < n; ++i) {
        int shape = i % ShapesOf(cls);
        int k = rng.Between(1, kSections - 1);
        out.push_back(MakeRequest(cls, e, shape, k, rng.Between(1, kParas)));
      }
    }
  }
  return out;
}

/// Operations per second of `op` run in a closed loop by `threads` threads.
template <typename Op>
double RateOf(int threads, Op op) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> done(static_cast<size_t>(threads), 0);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        op(&rng);
        ++done[static_cast<size_t>(t)];
      }
    });
  }
  int64_t t0 = NowNs();
  std::this_thread::sleep_for(std::chrono::duration<double>(kScalingSeconds));
  stop = true;
  for (std::thread& t : ts) t.join();
  double secs = static_cast<double>(NowNs() - t0) / 1e9;
  return static_cast<double>(std::accumulate(done.begin(), done.end(),
                                             uint64_t{0})) /
         secs;
}

}  // namespace

void RunLayerProbe(const FixtureConfig& config, uint64_t seed,
                   const NewsModel& model, const std::string& xml_text,
                   const Oracle& oracle, Report* report) {
  Tracer::SetEnabled(true);
  double setup_secs = 0;
  const Mix every{0.25, 0.25, 0.25, 0.25};
  std::unique_ptr<Fixture> f = SetUp(
      config, xml_text,
      [&](Fixture& fx) {
        for (const Request& r : EveryShape(every)) {
          ReadResult got = WireRead(fx.clients[0].get(), r);
          CheckOk(got.status(), "probe warm-up " + r.text);
          CheckRead(oracle, r, *got);
        }
      },
      &setup_secs);

  // ---- layer replay: each request over the wire, then through the public
  // functions the server calls for it. The first rounds are traced (layer
  // spans, exact statement counts); the wire-vs-embedded timings come from
  // the untraced rounds after them.
  const std::vector<Request> sample = ReplaySample(seed);
  double xpath_stmts[kNumCls][kNumEnc] = {};
  double xpath_calls[kNumCls][kNumEnc] = {};
  double recon_stmts[kNumEnc] = {}, recon_calls[kNumEnc] = {};
  // Per sample request: untraced wire and embedded durations (us).
  std::vector<std::vector<double>> wire_us(sample.size()), emb_us(sample.size());
  for (int round = 0; round < 2 * kReplayRounds; ++round) {
    const bool timed = round >= kReplayRounds;
    Tracer::SetEnabled(!timed);
    for (size_t i = 0; i < sample.size(); ++i) {
      const Request& r = sample[i];
      ReadResult wire = oxml::Status::Internal("unset");
      int64_t t0 = NowNs();
      {
        RequestScope span("replay.wire", r.enc, r.cls);
        wire = WireRead(f->clients[0].get(), r);
      }
      if (timed) wire_us[i].push_back(static_cast<double>(NowNs() - t0) / 1e3);
      CheckOk(wire.status(), "replay wire " + r.text);
      CheckRead(oracle, r, *wire);
      std::array<uint64_t, 2> st{};
      ReadResult emb = oxml::Status::Internal("unset");
      t0 = NowNs();
      {
        RequestScope span("replay.embedded", r.enc, r.cls);
        emb = EmbeddedRead(*f, r, &st);
      }
      if (timed) emb_us[i].push_back(static_cast<double>(NowNs() - t0) / 1e3);
      CheckOk(emb.status(), "replay embedded " + r.text);
      Require(*emb == *wire, "wire and embedded answers differ for " + r.text);
      if (round == 0 && r.cls != kCount) {
        xpath_stmts[r.cls][r.enc] += static_cast<double>(st[0]);
        xpath_calls[r.cls][r.enc] += 1;
        recon_stmts[r.enc] += static_cast<double>(st[1]);
        recon_calls[r.enc] += static_cast<double>(emb->size());
        std::printf("replay %-6s %-7s %-58s statements xpath %llu "
                    "reconstruct %llu nodes %zu\n",
                    EncName(r.enc), ClsName(r.cls), r.text.c_str(),
                    static_cast<unsigned long long>(st[0]),
                    static_cast<unsigned long long>(st[1]), emb->size());
      }
    }
  }
  Tracer::SetEnabled(true);

  // ---- navigation calls
  for (int e = 0; e < kNumEnc; ++e) {
    Rng rng(SubSeed(seed, 8));
    for (int i = 0; i < kNavCalls; ++i) {
      SpanScope span("core.root", e);
      CheckOk(f->stores[e]->Root().status(), "Root()");
    }
    for (int i = 0; i < kNavCalls; ++i) {
      SpanScope span("core.child_at", e);
      CheckOk(f->stores[e]
                  ->ChildAt(f->body[e], oxml::NodeTest::Tag("section"),
                            static_cast<size_t>(rng.Below(kSections)))
                  .status(),
              "ChildAt()");
    }
  }

  // ---- write path: inserts before the first paragraph of section 1, then
  // value updates, then deletes of the inserted paragraphs, each op applied
  // to every store in turn.
  Writer writer(model, SubSeed(seed, 9));
  double upd_stmts[kNumEnc] = {}, renumbered[kNumEnc] = {},
         renumber_events[kNumEnc] = {};
  for (int type : {Writer::kInsert, Writer::kUpdateValue, Writer::kDelete}) {
    for (int i = 0; i < kWriteOps; ++i) {
      Writer::Op op = writer.Plan(type);
      if (type == Writer::kInsert) {
        // Every insert goes to one spot, so the sparse numbering runs out
        // there and renumbering is measured too.
        op.k = 1;
        op.pos = 0;
      }
      for (int e = 0; e < kNumEnc; ++e) {
        RequestScope span("writer.op", e, kUpdate);
        oxml::UpdateStats us = writer.Apply(*f, e, op);
        upd_stmts[e] += static_cast<double>(us.statements);
        if (type == Writer::kInsert) {
          renumbered[e] += static_cast<double>(us.rows_renumbered);
        }
        if (us.renumbering_triggered) renumber_events[e] += 1;
      }
      writer.Commit(op);
    }
  }
  CheckStoresMatch(*f, writer.mirror(), "after the layer probe");

  // ---- 1-vs-4-thread scaling, untraced.
  Tracer::SetEnabled(false);
  oxml::OrderedXmlStore* global = f->stores[0].get();
  auto probe = [&](Rng*) { CheckOk(global->Root().status(), "Root()"); };
  auto count = [&](Rng* rng) {
    Request r = MakeRequest(kCount, rng->Below(kNumEnc), rng->Below(3), 1, 1);
    ReadResult got = EmbeddedRead(*f, r);
    CheckOk(got.status(), "count");
    CheckRead(oracle, r, *got);
  };
  const double probe1 = RateOf(1, probe), probe4 = RateOf(4, probe);
  const double count1 = RateOf(1, count), count4 = RateOf(4, count);
  std::printf("scaling Global Root() %.0f/s at 1 thread, %.0f/s at 4; "
              "COUNT(*) %.0f/s at 1 thread, %.0f/s at 4\n",
              probe1, probe4, count1, count4);

  // ---- metrics from the probe's spans and counts
  const std::vector<Span> spans = Tracer::Collect();
  auto durs = [&](const char* name, int enc = -1, int cls = -1) {
    return SpanDurationsUs(spans, name, kPhaseProbe, enc, cls);
  };
  // Per request, the median wire call minus the median embedded replay;
  // per class, the median of those differences.
  for (int cls : {kPoint, kSubtree, kCount, kScan}) {
    std::vector<double> diff;
    for (size_t i = 0; i < sample.size(); ++i) {
      if (sample[i].cls == cls) diff.push_back(Median(wire_us[i]) - Median(emb_us[i]));
    }
    report->Add(Name("server.overhead_us", ClsName(cls)), Median(diff), "us",
                diff.size() * kReplayRounds);
  }
  for (int cls : {kPoint, kSubtree, kScan}) {
    for (int e = 0; e < kNumEnc; ++e) {
      std::vector<double> d = durs("core.evaluate_xpath", e, cls);
      report->Add(Name("core.xpath_eval_us", ClsName(cls), EncName(e)),
                  Median(d), "us", d.size());
      report->Add(Name("core.statements_per_xpath", ClsName(cls), EncName(e)),
                  xpath_stmts[cls][e] / xpath_calls[cls][e], "count");
    }
  }
  for (int e = 0; e < kNumEnc; ++e) {
    std::vector<double> d = durs("core.reconstruct_subtree", e);
    report->Add(Name("core.reconstruct_us_per_node", EncName(e)), Mean(d),
                "us", d.size());
    report->Add(Name("core.statements_per_reconstruct", EncName(e)),
                recon_stmts[e] / recon_calls[e], "count");
    d = durs("core.root", e);
    report->Add(Name("core.root_us", EncName(e)), Median(d), "us", d.size());
    d = durs("core.child_at", e);
    report->Add(Name("core.child_at_us", EncName(e)), Median(d), "us",
                d.size());
  }
  std::vector<double> d = durs("core.locate");
  report->Add("core.locate_us", Median(d), "us", d.size());
  for (int e = 0; e < kNumEnc; ++e) {
    d = durs("core.insert_subtree", e);
    report->Add(Name("core.insert_us", EncName(e)), Median(d), "us", d.size());
    d = durs("core.delete_subtree", e);
    report->Add(Name("core.delete_us", EncName(e)), Median(d), "us", d.size());
    d = durs("core.update_value", e);
    report->Add(Name("core.update_value_us", EncName(e)), Median(d), "us",
                d.size());
    report->Add(Name("core.statements_per_update", EncName(e)),
                upd_stmts[e] / (3 * kWriteOps), "count");
    report->Add(Name("core.rows_renumbered_per_insert", EncName(e)),
                renumbered[e] / kWriteOps, "count");
    report->Add(Name("core.renumber_events", EncName(e)), renumber_events[e],
                "count");
  }
  for (int e = 0; e < kNumEnc; ++e) {
    d = durs("relational.query", e, kCount);
    report->Add(Name("relational.query_us.count", EncName(e)), Median(d),
                "us", d.size());
  }
  report->Add("relational.probe_speedup_4v1", probe4 / probe1, "ratio");
  report->Add("relational.count_speedup_4v1", count4 / count1, "ratio");
  d = durs("relational.begin");
  report->Add("relational.begin_us", Median(d), "us", d.size());
  d = durs("relational.commit");
  report->Add("relational.commit_us", Median(d), "us", d.size());
  d = durs("xml.write_xml");
  report->Add("xml.write_us_per_node", Mean(d), "us", d.size());
  f->TearDown();
}

}  // namespace perfbench
