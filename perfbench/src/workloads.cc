#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "probe.h"
#include "src/core/xpath_eval.h"
#include "src/xml/xml_writer.h"
#include "trace.h"

namespace perfbench {

using oxml::NodeTest;
using oxml::StoredNode;

namespace {

// The three workloads (README.md gives the reasons and sizes).
const std::vector<WorkloadSpec> kWorkloads = {
    {"wire_read", false, 3, 0, {0.60, 0.25, 0.10, 0.05}, 0},
    {"embedded_probe", false, 0, 4, {0.80, 0.00, 0.20, 0.00}, 0},
    {"mixed_update", true, 2, 0, {0.70, 0.30, 0.00, 0.00}, 10},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Load before the first timed window, so caches fill and threads start.
constexpr double kRampSeconds = 0.5;

/// Counters read through public accessors at a window's edges.
struct Counters {
  uint64_t statements = 0, rows_scanned = 0, index_probes = 0;
  uint64_t plan_hits = 0, plan_misses = 0, parse_plan_ns = 0;
  uint64_t snapshot_reads = 0, governance_aborts = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t frames = 0, protocol_errors = 0, admission_rejected = 0;
  /// A high-water mark, reported as read, not as a difference.
  uint64_t admission_queued_peak = 0;

  static Counters Read(Fixture& f) {
    Counters c;
    oxml::ExecStats* s = f.db->stats();
    c.statements = s->statements;
    c.rows_scanned = s->rows_scanned;
    c.index_probes = s->index_probes;
    c.plan_hits = s->plan_cache_hits;
    c.plan_misses = s->plan_cache_misses;
    c.parse_plan_ns = s->parse_plan_ns;
    c.snapshot_reads = s->snapshot_reads;
    c.governance_aborts = s->statements_timed_out + s->statements_cancelled +
                          s->mem_budget_rejections;
    c.pool_hits = f.db->buffer_pool()->hit_count();
    c.pool_misses = f.db->buffer_pool()->miss_count();
    if (f.server != nullptr) {
      c.frames = f.server->stats()->frames_received;
      c.protocol_errors = f.server->stats()->protocol_errors;
      const oxml::server::AdmissionStats& a =
          f.server->session_manager()->admission_stats();
      c.admission_rejected = a.rejected;
      c.admission_queued_peak = a.queued_peak;
    }
    return c;
  }
};

/// Counter difference, as doubles for the ratio metrics.
struct Delta {
  Delta(const Counters& a, const Counters& b)
      : statements(D(a.statements, b.statements)),
        rows_scanned(D(a.rows_scanned, b.rows_scanned)),
        index_probes(D(a.index_probes, b.index_probes)),
        plan_hits(D(a.plan_hits, b.plan_hits)),
        plan_misses(D(a.plan_misses, b.plan_misses)),
        parse_plan_ns(D(a.parse_plan_ns, b.parse_plan_ns)),
        snapshot_reads(D(a.snapshot_reads, b.snapshot_reads)),
        governance_aborts(D(a.governance_aborts, b.governance_aborts)),
        pool_hits(D(a.pool_hits, b.pool_hits)),
        pool_misses(D(a.pool_misses, b.pool_misses)),
        frames(D(a.frames, b.frames)),
        protocol_errors(D(a.protocol_errors, b.protocol_errors)),
        admission_rejected(D(a.admission_rejected, b.admission_rejected)) {}
  static double D(uint64_t a, uint64_t b) { return static_cast<double>(b - a); }
  double statements, rows_scanned, index_probes, plan_hits, plan_misses,
      parse_plan_ns, snapshot_reads, governance_aborts, pool_hits,
      pool_misses, frames, protocol_errors, admission_rejected;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------ read checks

/// mixed_update reads race the writer, so they are checked with what holds
/// under concurrent inserts and deletes of bench paragraphs: positions k
/// and j <= 15 always exist, and every answer has the expected node kind.
void CheckConcurrentRead(const Request& r, const std::vector<std::string>& got) {
  auto starts = [](const std::string& s, const std::string& p) {
    return s.compare(0, p.size(), p) == 0;
  };
  bool ok = false;
  if (r.cls == kPoint) {
    ok = got.size() == 1 && starts(got[0], r.shape == 0 ? "<title>" : "<para");
  } else if (r.cls == kSubtree && r.shape == 0) {
    ok = got.size() >= static_cast<size_t>(kParas) &&
         std::all_of(got.begin(), got.end(),
                     [&](const std::string& s) { return starts(s, "<para"); });
  } else if (r.cls == kSubtree) {
    int want = r.shape == 1 ? r.k : r.k + 1;
    ok = got.size() == 1 &&
         starts(got[0], "<section id=\"s" + std::to_string(want) + "\">");
  }
  Require(ok, std::string(EncName(r.enc)) + " '" + r.text +
                  "' returned a wrong answer under concurrent writes");
}

/// The embedded_probe point and count ops. Tags and counts are checked.
oxml::Status ProbeOp(Fixture& f, const Oracle& o, const Request& r) {
  oxml::OrderedXmlStore* store = f.stores[r.enc].get();
  if (r.cls == kCount) {
    ReadResult got = EmbeddedRead(f, r);
    if (got.ok()) CheckRead(o, r, *got);
    return got.ok() ? oxml::Status::OK() : got.status();
  }
  if (r.shape == 0) {
    SpanScope span("core.root", r.enc, r.cls);
    oxml::Result<StoredNode> n = store->Root();
    if (!n.ok()) return n.status();
    Require(n->tag == "nitf", "Root() returned <" + n->tag + ">");
  } else if (r.shape == 1) {
    SpanScope span("core.child_at", r.enc, r.cls);
    oxml::Result<StoredNode> n =
        store->ChildAt(f.body[r.enc], NodeTest::Tag("section"), r.k - 1);
    if (!n.ok()) return n.status();
    Require(n->tag == "section", "ChildAt returned <" + n->tag + ">");
  } else {
    SpanScope span("core.evaluate_xpath", r.enc, r.cls);
    auto nodes = oxml::EvaluateXPath(store, r.text);
    if (!nodes.ok()) return nodes.status();
    Require(nodes->size() == 1 && (*nodes)[0].tag == "title",
            r.text + " did not return one <title>");
  }
  return oxml::Status::OK();
}

/// An embedded_probe request: its point shapes are Root(), ChildAt(body,
/// section, k) and EvaluateXPath(/nitf/body/section[k]/title).
Request AsProbe(Request r) {
  if (r.cls == kPoint && r.shape == 2) {
    r.text = MakeRequest(kPoint, r.enc, 0, r.k, 1).text;
  }
  return r;
}

void WarmUp(const WorkloadSpec& spec, const Oracle& oracle, Fixture& f) {
  for (const Request& r : EveryShape(spec.mix)) {
    if (spec.wire_readers > 0) {
      ReadResult got = WireRead(f.clients[0].get(), r);
      CheckOk(got.status(), "warm-up " + r.text);
      CheckRead(oracle, r, *got);
    } else {
      CheckOk(ProbeOp(f, oracle, AsProbe(r)), "warm-up " + r.text);
    }
  }
}

std::string DbPath(const RunArgs& args, const char* tag) {
  return args.out_dir + "/" + tag + "-" + std::to_string(::getpid()) + ".db";
}

}  // namespace

bool IsKnownReadRace(const oxml::Status& st) {
  return st.IsInternal() &&
         st.message().find("subtree reconstruction produced 0 roots") !=
             std::string::npos;
}

// ---------------------------------------------------------------- writer

Writer::Op Writer::Plan(int forced) {
  Op op;
  double u = rng_.Unit();
  op.type = forced >= 0 ? static_cast<Type>(forced)
            : u < 0.4   ? kInsert
            : u < 0.8   ? kDelete
                        : kUpdateValue;
  if (op.type == kDelete) {
    std::vector<std::pair<int, int>> bench;
    for (size_t k = 0; k < mirror_.sections.size(); ++k) {
      const auto& paras = mirror_.sections[k].paras;
      for (size_t p = 0; p < paras.size(); ++p) {
        if (paras[p].cls == "bench") {
          bench.emplace_back(static_cast<int>(k) + 1, static_cast<int>(p));
        }
      }
    }
    if (bench.empty()) {
      op.type = kInsert;
    } else {
      auto [k, pos] = bench[static_cast<size_t>(
          rng_.Below(static_cast<int>(bench.size())))];
      op.k = k;
      op.pos = pos;
      return op;
    }
  }
  op.k = rng_.Between(1, kSections);
  op.pos = rng_.Below(static_cast<int>(mirror_.sections[op.k - 1].paras.size()));
  op.text = op.type == kInsert
                ? "bench " + std::to_string(next_bench_++) + " " +
                      RandomSentence(&rng_, 6)
                : RandomSentence(&rng_, 18);
  return op;
}

oxml::UpdateStats Writer::Apply(Fixture& f, int enc, const Op& op) {
  oxml::OrderedXmlStore* store = f.stores[enc].get();
  auto fail = [&](const oxml::Status& st, const char* what) {
    if (f.db->InTransaction()) (void)f.db->Rollback();
    Fatal(std::string("writer ") + what + " on " + EncName(enc) + ": " +
          st.ToString());
  };
  // The target is located before Begin: this writer is the only one, so
  // the handle stays valid. Inside a transaction every page fetch takes the
  // buffer pool's exclusive path, and a Dewey Root() scan measured ~60 ms
  // against two concurrent readers, which kept the writer near saturation.
  StoredNode target;
  {
    SpanScope span("core.locate", enc, kUpdate);
    auto root = store->Root();
    if (!root.ok()) fail(root.status(), "locate root");
    auto body = store->ChildAt(*root, NodeTest::Tag("body"), 0);
    if (!body.ok()) fail(body.status(), "locate body");
    auto sec = store->ChildAt(*body, NodeTest::Tag("section"), op.k - 1);
    if (!sec.ok()) fail(sec.status(), "locate section");
    auto para = store->ChildAt(*sec, NodeTest::Tag("para"), op.pos);
    if (!para.ok()) fail(para.status(), "locate paragraph");
    target = *para;
    if (op.type == kUpdateValue) {
      auto text = store->ChildAt(target, NodeTest::Text(), 0);
      if (!text.ok()) fail(text.status(), "locate text");
      target = *text;
    }
  }
  {
    SpanScope span("relational.begin", enc, kUpdate);
    oxml::Status st = f.db->Begin();
    if (!st.ok()) fail(st, "begin");
  }
  oxml::Result<oxml::UpdateStats> us = oxml::Status::Internal("unset");
  if (op.type == kInsert) {
    SpanScope span("core.insert_subtree", enc, kUpdate);
    auto para = oxml::XmlNode::Element("para");
    para->SetAttribute("class", "bench");
    para->AppendChild(oxml::XmlNode::Text(op.text));
    us = store->InsertSubtree(target, oxml::InsertPosition::kBefore, *para);
  } else if (op.type == kDelete) {
    SpanScope span("core.delete_subtree", enc, kUpdate);
    us = store->DeleteSubtree(target);
  } else {
    SpanScope span("core.update_value", enc, kUpdate);
    us = store->UpdateNodeValue(target, op.text);
  }
  if (!us.ok()) fail(us.status(), "update");
  {
    SpanScope span("relational.commit", enc, kUpdate);
    oxml::Status st = f.db->Commit();
    if (!st.ok()) fail(st, "commit");
  }
  return *us;
}

void Writer::Commit(const Op& op) {
  auto& paras = mirror_.sections[op.k - 1].paras;
  if (op.type == kInsert) {
    paras.insert(paras.begin() + op.pos, NewsModel::Para{"bench", op.text});
  } else if (op.type == kDelete) {
    paras.erase(paras.begin() + op.pos);
  } else {
    paras[op.pos].text = op.text;
  }
}

void CheckStoresMatch(Fixture& f, const NewsModel& model, const char* when) {
  const std::string want = oxml::WriteXml(*BuildDom(model));
  for (int e = 0; e < kNumEnc; ++e) {
    CheckOk(f.stores[e]->Validate(),
            std::string("Validate() ") + when + " on " + EncName(e));
    auto doc = Unwrap(f.stores[e]->ReconstructDocument(), "reconstruct");
    Require(oxml::WriteXml(*doc) == want,
            std::string(EncName(e)) + " document " + when +
                " differs from the writer's model");
  }
}

// ------------------------------------------------------------------- run

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> EndToEndNames() {
  return {"setup_s", "peak_rss_mb", "read_ops_per_s"};
}

std::vector<std::string> PerLayerNames() {
  std::vector<std::string> n;
  const int reads[] = {kPoint, kSubtree, kCount, kScan};
  const int xpaths[] = {kPoint, kSubtree, kScan};
  for (int c : reads) n.push_back(std::string("server.overhead_us.") + ClsName(c));
  for (const char* s : {"frames_per_request", "admission_rejected",
                        "admission_queued_peak", "protocol_errors"}) {
    n.push_back(std::string("server.") + s);
  }
  for (const char* m : {"core.xpath_eval_us.", "core.statements_per_xpath."}) {
    for (int c : xpaths) {
      for (int e = 0; e < kNumEnc; ++e) {
        n.push_back(m + std::string(ClsName(c)) + "." + EncName(e));
      }
    }
  }
  n.push_back("core.locate_us");
  for (const char* m :
       {"core.reconstruct_us_per_node.", "core.statements_per_reconstruct.",
        "core.root_us.", "core.child_at_us.", "core.insert_us.",
        "core.delete_us.", "core.update_value_us.",
        "core.statements_per_update.", "core.rows_renumbered_per_insert.",
        "core.renumber_events.", "core.load_ms.",
        "relational.query_us.count."}) {
    for (int e = 0; e < kNumEnc; ++e) n.push_back(m + std::string(EncName(e)));
  }
  for (const char* s :
       {"statements_per_s", "rows_scanned_per_request",
        "index_probes_per_request", "plan_cache_hit_rate",
        "parse_plan_us_per_miss", "probe_speedup_4v1", "count_speedup_4v1",
        "begin_us", "commit_us", "buffer_hit_rate", "buffer_misses_per_s",
        "snapshot_reads_per_request", "storage_bytes_per_xml_byte",
        "governance_aborts"}) {
    n.push_back(std::string("relational.") + s);
  }
  for (const char* s : {"xml.parse_ms", "xml.write_us_per_node",
                        "bench.writer_lag_p99_ms", "bench.trace_overhead_frac"}) {
    n.push_back(s);
  }
  return n;
}

void RunWorkload(const RunArgs& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Fatal("unknown workload '" + args.workload + "'");
  const NewsModel model = GenerateNews(args.seed);
  const Oracle oracle(model);
  const std::string xml_text = oxml::WriteXml(*BuildDom(model));
  std::printf("workload %s seed %llu seconds %.3g trace %d nproc %ld\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN));

  FixtureConfig config;
  config.wire_clients = spec->wire_readers;
  if (spec->file_backed) config.file_path = DbPath(args, spec->name);

  Tracer::SetEnabled(args.trace);
  Tracer::SetPhase(kPhaseSetup);
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (f != nullptr) f->TearDown();
    if (spec->file_backed) RemoveDatabaseFiles(config.file_path);
    double secs = 0;
    f = SetUp(config, xml_text,
              [&](Fixture& fx) { WarmUp(*spec, oracle, fx); }, &secs);
    setup_s.push_back(secs);
  }
  std::printf("set-ups (s):");
  for (double secs : setup_s) std::printf(" %.4f", secs);
  std::printf("\n");
  Tracer::SetEnabled(false);
  Tracer::SetPhase(kPhaseWindow);
  const oxml::StorageStats loaded = f->db->GetStorageStats();
  std::printf("loaded %llu rows per store, %llu heap pages in all, %zu bytes "
              "of XML\n",
              static_cast<unsigned long long>(loaded.heap_rows / kNumEnc),
              static_cast<unsigned long long>(loaded.heap_pages),
              xml_text.size());

  // ---- load threads
  std::atomic<bool> stop{false};
  Windows win;
  const int threads = spec->wire_readers + spec->embedded_readers +
                      (spec->writer_rate > 0 ? 1 : 0);
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < spec->wire_readers + spec->embedded_readers; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(SubSeed(args.seed, 100 + static_cast<uint64_t>(t)));
      Tally& tally = tallies[static_cast<size_t>(t)];
      const bool wire = t < spec->wire_readers;
      while (!stop.load(std::memory_order_relaxed)) {
        Request r = wire ? DrawRequest(&rng, spec->mix)
                         : AsProbe(DrawRequest(&rng, spec->mix));
        const int64_t start = NowNs();
        oxml::Status st;
        bool checked = false;
        {
          RequestScope span(wire ? "wire.request" : "probe.request", r.enc,
                            r.cls);
          if (wire) {
            ReadResult got = WireRead(f->clients[static_cast<size_t>(t)].get(), r);
            st = got.status();
            if (got.ok()) {
              if (spec->writer_rate > 0) {
                CheckConcurrentRead(r, *got);
              } else {
                CheckRead(oracle, r, *got);
              }
              checked = true;
            }
          } else {
            // ProbeOp checks every answer it returns OK for.
            st = ProbeOp(*f, oracle, r);
            checked = st.ok();
          }
        }
        const int64_t end = NowNs();
        if (!st.ok() && !(spec->writer_rate > 0 && IsKnownReadRace(st))) {
          Fatal(std::string(EncName(r.enc)) + " '" + r.text +
                "' failed: " + st.ToString());
        }
        tally.Record(win, r.cls, start, end, st, checked);
      }
    });
  }
  std::unique_ptr<Writer> writer;
  if (spec->writer_rate > 0) {
    writer = std::make_unique<Writer>(model, SubSeed(args.seed, 3));
    workers.emplace_back([&] {
      Tally& tally = tallies.back();
      Writer::Op op;
      OpenLoop(
          NowNs(), static_cast<int64_t>(1e9 / (3 * spec->writer_rate)),
          // Stop only between logical ops, so all stores stay identical.
          [&](int64_t i) {
            return i % kNumEnc == 0 && stop.load(std::memory_order_relaxed);
          },
          [&](int64_t i) {
            if (i % kNumEnc == 0) op = writer->Plan();
            RequestScope span("writer.op", static_cast<int>(i % kNumEnc),
                              kUpdate);
            writer->Apply(*f, static_cast<int>(i % kNumEnc), op);
            if (i % kNumEnc == kNumEnc - 1) writer->Commit(op);
          },
          [&](int64_t, int64_t sched, int64_t start, int64_t end) {
            // Writer ops are checked together at the end of the run.
            tally.Record(win, kUpdate, sched, end, oxml::Status::OK(), false);
            const int w = win.Of(sched);
            if (w >= 0) tally.writer_lag[w].Add(start - sched);
          });
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(kRampSeconds));
  const int windows = args.trace ? 2 : 1;
  Counters before, after;
  double cpu_s = 0;  // process CPU time during window 0
  std::vector<double> steal_frac;  // per slice of window 0
  win.slice_ns =
      static_cast<int64_t>(args.seconds / windows * 1e9) / Windows::kSlices;
  for (int w = 0; w < windows; ++w) {
    // The traced run splits its time into an untraced window and a traced
    // one whose counters and spans give the per-layer metrics.
    Tracer::SetEnabled(args.trace && w == 1);
    if (w == windows - 1) before = Counters::Read(*f);
    const double cpu0 = ProcessCpuSeconds();
    const int64_t start = NowNs();
    win.start[w] = start;
    HostCpu host = HostCpu::Read();
    for (int k = 1; k <= Windows::kSlices; ++k) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(start + k * win.slice_ns)));
      const HostCpu now = HostCpu::Read();
      if (w == 0) steal_frac.push_back(HostCpu::StealFrac(host, now));
      host = now;
    }
    win.end[w] = start + Windows::kSlices * win.slice_ns;
    if (w == 0) cpu_s = ProcessCpuSeconds() - cpu0;
    if (w == windows - 1) after = Counters::Read(*f);
  }
  Tracer::SetEnabled(false);
  stop = true;
  for (std::thread& t : workers) t.join();
  // Read before the end-of-run checks, which reconstruct whole documents.
  const double peak_rss_mb = PeakRssMb();

  // ---- tallies
  ClassSamples samples[Windows::kMax];
  uint64_t attempted[Windows::kMax] = {}, failed[Windows::kMax] = {},
           checked[Windows::kMax] = {};
  uint64_t slice_reads[Windows::kSlices] = {};
  Histogram lag;
  for (const Tally& t : tallies) {
    for (int w = 0; w < windows; ++w) {
      samples[w].Merge(t.samples[w]);
      attempted[w] += t.attempted[w];
      failed[w] += t.failed[w];
      checked[w] += t.checked[w];
    }
    for (int k = 0; k < Windows::kSlices; ++k) slice_reads[k] += t.slice_reads[k];
    lag.Merge(t.writer_lag[windows - 1]);
    for (const std::string& e : t.errors) {
      std::printf("failed request: %s\n", e.c_str());
    }
  }
  if (attempted[0] == 0) Fatal("no request was attempted in the window");
  auto window_s = [&](int w) {
    return static_cast<double>(win.end[w] - win.start[w]) / 1e9;
  };

  // ---- end-of-run correctness: every acknowledged write survives restart
  bool stores_checked = writer == nullptr;
  if (writer != nullptr) {
    CheckStoresMatch(*f, writer->mirror(), "after the run");
    f->TearDown();
    FixtureConfig reopen = config;
    reopen.reopen = true;
    reopen.wire_clients = 0;
    double secs = 0;
    f = SetUp(reopen, xml_text, [](Fixture&) {}, &secs);
    CheckStoresMatch(*f, writer->mirror(), "after reopen");
    stores_checked = true;
    std::printf("check stores: Validate() and byte-equal documents before "
                "and after reopen on all encodings\n");
  }

  Report report;
  const int w = windows - 1;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("peak_rss_mb", peak_rss_mb, "MiB");
    report.Add("failed_frac", FailedFrac(failed[0], attempted[0]), "fraction",
               attempted[0]);
    // Host steal slows every thread but is no part of the program, so the
    // read rate is taken at zero steal (README.md gives the evidence).
    std::vector<double> rates;
    double steal = 0;
    for (int k = 0; k < Windows::kSlices; ++k) {
      rates.push_back(static_cast<double>(slice_reads[k]) * 1e9 /
                      static_cast<double>(win.slice_ns));
      steal += steal_frac[k] / Windows::kSlices;
      std::printf("slice %d reads_per_s %.1f steal %.4f\n", k, rates.back(),
                  steal_frac[k]);
    }
    std::printf("host steal %.2f%% over the window; read rate %.1f/s over "
                "the window\n",
                100 * steal,
                static_cast<double>(samples[0].Reads()) / window_s(0));
    report.Add("read_ops_per_s", ZeroStealRate(steal_frac, rates), "1/s",
               samples[0].Reads());
    report.Add("cpu_ms_per_request",
               1e3 * cpu_s / static_cast<double>(attempted[0]), "ms",
               attempted[0]);
    for (int c = 0; c < kNumCls; ++c) report.AddLatency(c, samples[0]);
  } else {
    const Delta d(before, after);
    const double reqs = static_cast<double>(attempted[w]);
    const double reads = static_cast<double>(samples[w].Reads());
    const double wire_reqs = spec->wire_readers > 0 ? reads : 0;
    std::vector<Span> spans = Tracer::Collect();
    report.Add("server.frames_per_request", Ratio(d.frames, wire_reqs), "count");
    report.Add("server.admission_rejected", d.admission_rejected, "count");
    report.Add("server.admission_queued_peak",
               static_cast<double>(after.admission_queued_peak), "count");
    report.Add("server.protocol_errors", d.protocol_errors, "count");
    for (int e = 0; e < kNumEnc; ++e) {
      report.Add(std::string("core.load_ms.") + EncName(e),
                 Median(SpanDurationsUs(spans, "core.load_document",
                                        kPhaseSetup, e)) / 1e3,
                 "ms", kSetupRepeats);
    }
    report.Add("relational.statements_per_s", d.statements / window_s(w), "1/s");
    report.Add("relational.rows_scanned_per_request",
               Ratio(d.rows_scanned, reqs), "count");
    report.Add("relational.index_probes_per_request",
               Ratio(d.index_probes, reqs), "count");
    report.Add("relational.plan_cache_hit_rate",
               Ratio(d.plan_hits, d.plan_hits + d.plan_misses), "fraction");
    report.Add("relational.parse_plan_us_per_miss",
               Ratio(d.parse_plan_ns / 1e3, d.plan_misses), "us");
    report.Add("relational.buffer_hit_rate",
               Ratio(d.pool_hits, d.pool_hits + d.pool_misses), "fraction");
    report.Add("relational.buffer_misses_per_s", d.pool_misses / window_s(w),
               "1/s");
    report.Add("relational.snapshot_reads_per_request",
               Ratio(d.snapshot_reads, reqs), "count");
    report.Add("relational.governance_aborts", d.governance_aborts, "count");
    oxml::StorageStats ss = f->db->GetStorageStats();
    report.Add("relational.storage_bytes_per_xml_byte",
               static_cast<double>(ss.heap_bytes + ss.index_bytes) /
                   (kNumEnc * static_cast<double>(xml_text.size())),
               "ratio");
    report.Add("xml.parse_ms",
               Median(SpanDurationsUs(spans, "xml.parse", kPhaseSetup)) / 1e3,
               "ms", kSetupRepeats);
    report.Add("bench.writer_lag_p99_ms", lag.PercentileMs(99), "ms",
               lag.count());
    const double untraced = static_cast<double>(samples[0].Reads()) / window_s(0);
    const double traced = reads / window_s(w);
    report.Add("bench.trace_overhead_frac", Ratio(untraced - traced, untraced),
               "fraction");
    std::printf("read_ops_per_s untraced %.1f traced %.1f\n", untraced,
                traced);
    // The layer probe runs on a fresh fixture of the same configuration,
    // single-threaded, after the workload's own fixture is gone.
    f.reset();
    if (spec->file_backed) RemoveDatabaseFiles(config.file_path);
    Tracer::SetPhase(kPhaseProbe);
    FixtureConfig pconf = config;
    pconf.wire_clients = 1;
    if (spec->file_backed) pconf.file_path = DbPath(args, "probe");
    RunLayerProbe(pconf, args.seed, model, xml_text, oracle, &report);
    if (spec->file_backed) RemoveDatabaseFiles(pconf.file_path);

    spans = Tracer::Collect();
    Tracer::PrintSelfTimes(spans);
    const std::string span_path = args.out_dir + "/spans-" + spec->name +
                                  "-seed" + std::to_string(args.seed) +
                                  ".jsonl";
    size_t written = Tracer::WriteFile(span_path, spans, 400000);
    std::printf("span file %s (%zu of %zu spans)\n", span_path.c_str(),
                written, spans.size());
  }
  f.reset();
  if (spec->file_backed) RemoveDatabaseFiles(config.file_path);

  // Every attempted read was checked or failed with the known race (any
  // other failure or wrong answer aborted the run), and the writer's ops
  // are in the stores that were checked after the run and after reopen.
  bool correct = stores_checked;
  for (int v = 0; v < windows; ++v) {
    correct = correct && checked[v] + failed[v] +
                                 samples[v].cls[kUpdate].count() ==
                             attempted[v];
  }
  report.PrintLines(args.trace ? "layer" : "metric");
  report.PrintJson(correct, attempted[w], failed[w],
                   args.trace ? PerLayerNames() : EndToEndNames());
}

}  // namespace perfbench
