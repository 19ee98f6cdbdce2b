// Experiment E16 — multi-threaded query execution. Two grains:
//
//  * Inter-query throughput: N client threads hammer one shared store with
//    read-only statements (google-benchmark's ->Threads()). The database
//    serves them under the shared statement latch; scaling measures how
//    much of the read path really runs concurrently.
//  * Intra-query scaling: a single large scan / structural-join query with
//    enable_parallel_execution on, sweeping the worker-pool size. Thread
//    count 0 is the serial baseline (parallel plans disabled).
//
// Expected shape (on a multi-core host): near-linear inter-query scaling
// until the core count, and parallel-plan speedups on QR1/QR5-class
// queries that grow with the pool. On a single-core container both grains
// degrade to ~1x — the counters (threads_used, morsels, parallel_joins)
// still prove the fan-out happened.

#include <benchmark/benchmark.h>

#include "src/core/sql_translator.h"

#include "bench/bench_util.h"

namespace oxml {
namespace bench {
namespace {

int Sections() { return static_cast<int>(SmokeScaled(150, 60)); }
int Paragraphs() { return static_cast<int>(SmokeScaled(20, 4)); }

// Builds a loaded store whose database has the execution pool configured.
// threads == 0 means "serial": parallel plans off, no pool.
StoreFixture MakeParallelStore(OrderEncoding enc, int threads) {
  DatabaseOptions opts;
  if (threads > 0) {
    opts.enable_parallel_execution = true;
    opts.num_threads = static_cast<size_t>(threads);
    opts.parallel_scan_min_rows = 256;
  }
  auto dbr = Database::Open(opts);
  OXML_BENCH_CHECK(dbr.ok());
  StoreFixture f;
  f.db = std::move(dbr).value();
  auto sr = OrderedXmlStore::Create(f.db.get(), enc, StoreOptions{});
  OXML_BENCH_CHECK(sr.ok());
  f.store = std::move(sr).value();
  auto doc = NewsDoc(Sections(), Paragraphs());
  OXML_BENCH_CHECK(f.store->LoadDocument(*doc).ok());
  return f;
}

// One shared serial-planned store per encoding for the inter-query grain
// (clients supply the concurrency; plans stay serial).
StoreFixture& SharedFixture(OrderEncoding enc) {
  static auto* fixtures = new std::map<OrderEncoding, StoreFixture>();
  auto it = fixtures->find(enc);
  if (it == fixtures->end()) {
    it = fixtures->emplace(enc, MakeParallelStore(enc, 0)).first;
  }
  return it->second;
}

// ----------------------------------------------------------- inter-query

// N benchmark threads each run the same read-only mix against one store:
// an XPath tag scan plus an aggregate over the node table. Throughput is
// reported per-thread by the framework; items_processed gives the
// aggregate statement rate.
void BM_InterQueryReaders(benchmark::State& state) {
  OrderEncoding enc = EncodingFromIndex(state.range(0));
  StoreFixture& f = SharedFixture(enc);

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
    ReportExecStats(state, f.db.get());
    state.SetLabel(std::string(OrderEncodingToString(enc)) +
                   "/readers_x" + std::to_string(state.threads()));
  }
}

// ------------------------------------------------------------ intra-query

// One large query, executed by a single client, with the planner's
// parallel operators fanning out over `threads` workers (0 = serial
// baseline). QR1 drives a full-tag scan, QR5 a descendant step (the step
// evaluator's parameterized probes), heap_count a bare heap scan, and
// structural a one-shot translated descendant query — the shape that plans
// a StructuralJoinOp, inline at 0 threads and on the pool otherwise
// (Global/Dewey only; Local cannot express a descendant step as one SQL
// statement).
struct IntraQuery {
  const char* id;
  const char* xpath;     // null = run `sql` through Database::Query instead
  const char* sql;
  bool via_sql;          // evaluate xpath as one translated SQL statement
};

const IntraQuery kIntraQueries[] = {
    {"QR1_tag_scan", "//para", nullptr, false},
    {"QR5_descendant_ordered", "/nitf/body//para", nullptr, false},
    {"heap_count", nullptr, "SELECT COUNT(*) FROM nodes", false},
    {"structural_descendant", "//section//para", nullptr, true},
};

void BM_IntraQuery(benchmark::State& state) {
  OrderEncoding enc = EncodingFromIndex(state.range(0));
  const IntraQuery& q = kIntraQueries[state.range(1)];
  int threads = static_cast<int>(state.range(2));
  StoreFixture f = MakeParallelStore(enc, threads);

  size_t results = 0;
  for (auto _ : state) {
    if (q.via_sql) {
      auto r = EvaluateXPathViaSql(f.store.get(), q.xpath);
      OXML_BENCH_OK(r);
      results = r->size();
    } else if (q.xpath != nullptr) {
      auto r = EvaluateXPath(f.store.get(), q.xpath);
      OXML_BENCH_OK(r);
      results = r->size();
    } else {
      auto r = f.db->Query(q.sql);
      OXML_BENCH_OK(r);
      results = r->rows.size();
    }
    benchmark::DoNotOptimize(results);
  }
  OXML_BENCH_CHECK(results >= 1);
  state.counters["results"] = static_cast<double>(results);
  const ExecStats& s = *f.db->stats();
  state.counters["threads_used"] = static_cast<double>(s.threads_used);
  state.counters["morsels"] = static_cast<double>(s.morsels);
  state.counters["parallel_joins"] = static_cast<double>(s.parallel_joins);
  ReportExecStats(state, s);
  state.SetLabel(std::string(OrderEncodingToString(enc)) + "/" + q.id +
                 (threads == 0 ? "/serial"
                               : "/pool" + std::to_string(threads)));
}

}  // namespace
}  // namespace bench
}  // namespace oxml

BENCHMARK(oxml::bench::BM_InterQueryReaders)
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(oxml::bench::BM_IntraQuery)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2}, {0, 1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
// The translated structural-join query only exists on Global and Dewey.
BENCHMARK(oxml::bench::BM_IntraQuery)
    ->ArgsProduct({{0, 2}, {3}, {0, 1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

OXML_BENCH_MAIN();
