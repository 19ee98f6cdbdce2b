// Experiment E18 — MVCC snapshot reads. Reader throughput against one
// shared store with and without a concurrent long-running writer:
//
//  * writer=0: baseline read throughput (the snapshot machinery idles —
//    this measures its overhead on uncontended reads).
//  * writer=1: a background thread keeps a write transaction open almost
//    continuously (Begin → delete a subtree → Rollback, no pauses).
//    Readers are served committed page versions and index deltas; their
//    throughput should stay within a small factor of the uncontended run.
//
// The version-chain counters (snapshot_reads, versions_retained,
// version_chain_max) are attached to every report line; under writer=1 a
// zero snapshot_reads would mean the benchmark never actually exercised
// the snapshot path.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench/bench_util.h"

namespace oxml {
namespace bench {
namespace {

int Sections() { return static_cast<int>(SmokeScaled(60, 10)); }
int Paragraphs() { return static_cast<int>(SmokeScaled(10, 4)); }

// One fixture per encoding, shared by the reader threads.
StoreFixture& SharedFixture(OrderEncoding enc) {
  static auto* fixtures = new std::map<OrderEncoding, StoreFixture>();
  auto it = fixtures->find(enc);
  if (it == fixtures->end()) {
    auto doc = NewsDoc(Sections(), Paragraphs());
    it = fixtures->emplace(enc, MakeLoadedStore(enc, *doc)).first;
  }
  return it->second;
}

// The long writer: open a transaction, delete one subtree inside it, sit
// on the open transaction for a moment, roll back, repeat. Every round
// publishes page versions and index deltas; nothing ever commits, so the
// readers' expected answer never changes.
void WriterLoop(StoreFixture* f, std::atomic<bool>* stop) {
  while (!stop->load(std::memory_order_acquire)) {
    OXML_BENCH_CHECK(f->db->Begin().ok());
    auto paras = EvaluateXPath(f->store.get(), "//para");  // owner read
    OXML_BENCH_OK(paras);
    if (!paras->empty()) {
      OXML_BENCH_OK(f->store->DeleteSubtree(paras->back()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    OXML_BENCH_CHECK(f->db->Rollback().ok());
  }
}

// N benchmark threads run the read-only mix (XPath tag scan + aggregate)
// while the writer (if any) churns. Reported per-thread by the framework;
// items_processed gives the aggregate statement rate.
void BM_SnapshotReaders(benchmark::State& state) {
  OrderEncoding enc = EncodingFromIndex(state.range(0));
  bool with_writer = state.range(1) != 0;
  StoreFixture& f = SharedFixture(enc);

  static std::atomic<bool> stop{false};
  static std::thread writer;
  if (state.thread_index() == 0 && with_writer) {
    stop.store(false, std::memory_order_release);
    writer = std::thread(WriterLoop, &f, &stop);
  }

  int64_t statements = 0;
  for (auto _ : state) {
    auto r = EvaluateXPath(f.store.get(), "//para");
    OXML_BENCH_OK(r);
    benchmark::DoNotOptimize(r->size());
    auto q = f.db->Query("SELECT COUNT(*) FROM nodes");
    OXML_BENCH_OK(q);
    benchmark::DoNotOptimize(q->rows.size());
    statements += 2;
  }
  state.SetItemsProcessed(statements);

  if (state.thread_index() == 0) {
    if (with_writer) {
      stop.store(true, std::memory_order_release);
      writer.join();
    }
    const ExecStats& s = *f.db->stats();
    state.counters["snapshot_reads"] =
        static_cast<double>(s.snapshot_reads);
    state.counters["versions_retained"] =
        static_cast<double>(s.versions_retained);
    state.counters["version_chain_max"] =
        static_cast<double>(s.version_chain_max);
    ReportExecStats(state, s);
    state.SetLabel(std::string(OrderEncodingToString(enc)) +
                   (with_writer ? "/writer" : "/no_writer") +
                   "/readers_x" + std::to_string(state.threads()));
  }
}

}  // namespace
}  // namespace bench
}  // namespace oxml

// Uncontended baseline (no writer) and the long-writer run.
BENCHMARK(oxml::bench::BM_SnapshotReaders)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

OXML_BENCH_MAIN();
