// Experiment E1 — dataset + storage profile (paper: dataset/loading table).
//
// Shreds synthetic documents of increasing size under each order encoding
// and reports load time plus the resulting storage footprint: node rows,
// heap pages/bytes, and index entries/bytes. The Dewey encoding pays for
// its variable-length keys in index bytes; Global pays one extra integer
// column (eord); Local is the leanest per row but needs more indexes to
// navigate.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace oxml {
namespace bench {
namespace {

const XmlDocument& DocOfSize(int64_t nodes) {
  static auto* cache =
      new std::map<int64_t, std::unique_ptr<XmlDocument>>();
  auto it = cache->find(nodes);
  if (it == cache->end()) {
    XmlGeneratorOptions opts;
    opts.target_nodes = static_cast<size_t>(nodes);
    opts.seed = 42;
    it = cache->emplace(nodes, GenerateXml(opts)).first;
  }
  return *it->second;
}

void BM_Load(benchmark::State& state) {
  OrderEncoding enc = EncodingFromIndex(state.range(0));
  const XmlDocument& doc = DocOfSize(SmokeCapped(state.range(1), 2000));

  StorageStats last{};
  ExecStats exec;
  for (auto _ : state) {
    StoreFixture f = MakeLoadedStore(enc, doc);
    last = f.db->GetStorageStats();
    exec = *f.db->stats();
    benchmark::DoNotOptimize(last.heap_rows);
  }
  state.counters["rows"] = static_cast<double>(last.heap_rows);
  state.counters["heap_pages"] = static_cast<double>(last.heap_pages);
  state.counters["heap_KB"] = static_cast<double>(last.heap_bytes) / 1024.0;
  state.counters["index_entries"] =
      static_cast<double>(last.index_entries);
  state.counters["index_KB"] = static_cast<double>(last.index_bytes) / 1024.0;
  ReportExecStats(state, exec);
  state.SetLabel(OrderEncodingToString(enc));
}

// Experiment E17 — parallel bulk-load scaling (see EXPERIMENTS.md).
//
// Loads the same document through the load pipeline (partition →
// multi-threaded shred into sorted runs → k-way merge → bulk-built heap
// and indexes) at increasing worker counts. Arg 2 is the load pool size;
// 0 runs the pipeline inline on the calling thread, the same-binary
// baseline. Counters surface the pipeline's fan-out (load_threads,
// runs_merged, rows_shredded) and the AppendBatch tail-page fetch
// savings, so the scaling story is auditable even on single-core CI
// where wall-clock speedup is not observable.
void BM_LoadParallel(benchmark::State& state) {
  OrderEncoding enc = EncodingFromIndex(state.range(0));
  const XmlDocument& doc = DocOfSize(SmokeCapped(state.range(1), 2000));
  const int64_t threads = state.range(2);

  DatabaseOptions db_opts;
  db_opts.num_load_threads = static_cast<size_t>(threads);
  // Small runs keep the k-way merge in play at every dataset size.
  db_opts.load_run_bytes = 256 * 1024;

  ExecStats exec;
  uint64_t saved_fetches = 0;
  uint64_t rows = 0;
  for (auto _ : state) {
    StoreFixture f = MakeStore(enc, db_opts);
    OXML_BENCH_CHECK(f.store->LoadDocument(doc).ok());
    exec = *f.db->stats();
    rows = f.db->GetStorageStats().heap_rows;
    saved_fetches = f.db->buffer_pool()->saved_fetch_count();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["load_threads"] =
      static_cast<double>(exec.load_threads_used);
  state.counters["rows_shredded"] = static_cast<double>(exec.rows_shredded);
  state.counters["runs_merged"] = static_cast<double>(exec.runs_merged);
  state.counters["saved_fetches"] = static_cast<double>(saved_fetches);
  state.SetLabel(std::string(OrderEncodingToString(enc)) +
                 (threads > 0 ? "/parallel" : "/inline"));
}

}  // namespace
}  // namespace bench
}  // namespace oxml

BENCHMARK(oxml::bench::BM_Load)
    ->ArgsProduct({{0, 1, 2}, {2000, 10000, 30000}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

BENCHMARK(oxml::bench::BM_LoadParallel)
    ->ArgsProduct({{0, 1, 2}, {30000}, {0, 1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

OXML_BENCH_MAIN();
