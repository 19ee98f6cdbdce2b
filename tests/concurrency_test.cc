// Multi-threaded execution: thread-pool and statement-latch units,
// concurrent-reader stress on every encoding, the writers-exclude-readers
// invariant, and a parallel-vs-serial differential over the QR workload
// (plans with ParallelScanOp / StructuralJoinOp on the pool must give
// byte-identical ordered results to the serial plans).
//
// Built with -DOXML_TSAN=ON in CI, these tests double as the
// ThreadSanitizer workload for the latched buffer pool and plan cache.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/xpath_eval.h"
#include "src/relational/database.h"
#include "src/relational/thread_pool.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryShardOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kShards = 100;  // more shards than workers
  std::vector<std::atomic<int>> hits(kShards);
  Status st = pool.ParallelFor(kShards, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st;
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(ThreadPoolTest, ZeroAndSingleShardShortCircuit) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.ParallelFor(0, [](size_t) {
    ADD_FAILURE() << "zero shards must not invoke the body";
    return Status::OK();
  }).ok());
  std::atomic<int> calls{0};
  EXPECT_TRUE(pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
    return Status::OK();
  }).ok());
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, PropagatesAnError) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(64, [&](size_t i) {
    if (i == 13) return Status::Internal("shard 13 failed");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shard 13"), std::string::npos);
}

TEST(ThreadPoolTest, RunsShardsConcurrently) {
  ThreadPool pool(3);
  // All four participants (three workers + the caller) must be inside the
  // body at once before any may leave.
  std::atomic<size_t> inside{0};
  Status st = pool.ParallelFor(4, [&](size_t) {
    inside.fetch_add(1);
    while (inside.load() < 4) std::this_thread::yield();
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st;
}

// --------------------------------------------------------- StatementLatch

TEST(StatementLatchTest, ExclusiveIsReentrantAndAbsorbsShared) {
  StatementLatch latch;
  latch.LockExclusive();
  latch.LockExclusive();        // nested (auto-commit inside a statement)
  latch.LockShared();           // read inside own transaction: no deadlock
  latch.UnlockShared();
  latch.UnlockExclusive();
  // Still held once: another thread must not get the shared lock yet.
  std::atomic<bool> acquired{false};
  std::thread reader([&] {
    latch.LockShared();
    acquired.store(true);
    latch.UnlockShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  latch.UnlockExclusive();
  reader.join();
  EXPECT_TRUE(acquired.load());
}

// Shared acquisition is reentrant per thread: a queued writer must not
// deadlock a thread re-acquiring shared against its own outstanding hold
// (writer preference blocks *new* readers, not admitted ones).
TEST(StatementLatchTest, SharedIsReentrantUnderWriterPressure) {
  StatementLatch latch;
  latch.LockShared();
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    latch.LockExclusive();
    writer_done.store(true);
    latch.UnlockExclusive();
  });
  // Give the writer time to queue; without reentrancy the nested shared
  // acquisition below then deadlocks rather than merely racing past.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  latch.LockShared();
  latch.UnlockShared();
  EXPECT_FALSE(writer_done.load());  // writer still excluded by outer hold
  latch.UnlockShared();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

// The undo-capture race distilled: with a transaction open, threads
// fetching resident pages concurrently (the txn owner's parallel-scan
// workers do exactly this) must not touch the unsynchronized undo map —
// every transactional fetch takes the exclusive page-table path. Without
// that, TSan flags concurrent undo-map access here deterministically.
TEST(BufferPoolTxnTest, ConcurrentFetchesInsideTxnAreRaceFree) {
  BufferPool pool(std::make_unique<MemoryBackend>());
  constexpr uint32_t kPages = 16;
  for (uint32_t i = 0; i < kPages; ++i) {
    auto p = pool.NewPage();
    ASSERT_TRUE(p.ok()) << p.status();
  }
  ASSERT_TRUE(pool.BeginTxn().ok());
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (uint32_t i = 0; i < 200; ++i) {
        auto p = pool.FetchPage((static_cast<uint32_t>(t) + i) % kPages);
        if (!p.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(pool.RollbackTxn().ok());
}

// ------------------------------------------------------- reader-level tests

struct LoadedStore {
  std::unique_ptr<Database> db;
  std::unique_ptr<OrderedXmlStore> store;
};

LoadedStore LoadNews(OrderEncoding enc, bool parallel_exec,
                     size_t num_threads = 4) {
  DatabaseOptions opts;
  opts.enable_parallel_execution = parallel_exec;
  opts.num_threads = num_threads;
  opts.parallel_scan_min_rows = 1;  // force parallel plans on the fixture
  LoadedStore out;
  auto db = Database::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status();
  out.db = std::move(db).value();
  auto store = OrderedXmlStore::Create(out.db.get(), enc, StoreOptions{});
  EXPECT_TRUE(store.ok()) << store.status();
  out.store = std::move(store).value();

  // Large enough that index scans span several B+tree leaves and the heap
  // chain several pages — otherwise parallel plans degenerate to one morsel.
  NewsGeneratorOptions gen;
  gen.sections = 25;
  gen.paragraphs_per_section = 12;
  gen.seed = 42;
  auto doc = GenerateNewsXml(gen);
  EXPECT_TRUE(out.store->LoadDocument(*doc).ok());
  return out;
}

std::vector<std::string> Identities(OrderEncoding enc,
                                    const std::vector<StoredNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const StoredNode& n : nodes) out.push_back(NodeIdentity(enc, n));
  return out;
}

class ConcurrencyTest : public ::testing::TestWithParam<OrderEncoding> {};

// N threads x M iterations of mixed read-only work — XPath evaluation
// (which fans out into many QueryP calls) and raw SQL — against one store.
// Every thread must observe exactly the single-threaded answer every time.
TEST_P(ConcurrencyTest, ConcurrentReadersSeeConsistentResults) {
  OrderEncoding enc = GetParam();
  LoadedStore ls = LoadNews(enc, /*parallel_exec=*/false);

  auto baseline = EvaluateXPath(ls.store.get(), "//para");
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_FALSE(baseline->empty());
  std::vector<std::string> expect = Identities(enc, *baseline);

  constexpr int kThreads = 8;
  constexpr int kIters = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Alternate between the XPath driver and ad-hoc SQL so both the
        // QueryP instance pool and the plain Query path are exercised.
        if ((t + i) % 2 == 0) {
          auto r = EvaluateXPath(ls.store.get(), "//para");
          if (!r.ok() || Identities(enc, *r) != expect) ++failures;
        } else {
          auto r = ls.db->Query("SELECT COUNT(*) FROM nodes");
          if (!r.ok() || r->rows.size() != 1) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// A writer appending rows in fixed-size transactions while readers count:
// the statement latch must never let a reader observe a partial batch.
TEST(ConcurrencyWriterTest, WritersExcludeReaders) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());

  constexpr int kBatch = 10;
  constexpr int kBatches = 30;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto rs = db->Query("SELECT COUNT(*) FROM t");
        if (!rs.ok()) {
          ++violations;
          continue;
        }
        int64_t n = rs->rows[0][0].AsInt();
        if (n % kBatch != 0) ++violations;  // saw inside a transaction
      }
    });
  }

  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(db->Begin().ok());
    for (int i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(
          db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(i)}).ok());
    }
    ASSERT_TRUE(db->Commit().ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);

  auto rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), int64_t{kBatch} * kBatches);
}

// Concurrent parameterized queries on one SQL text: the per-text instance
// pool must keep every thread's bindings private.
TEST(ConcurrencyWriterTest, QueryPBindingsStayPrivatePerThread) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE kv (k INT, v INT)").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db->ExecuteP("INSERT INTO kv VALUES (?, ?)",
                             {Value::Int(i), Value::Int(i * 100)})
                    .ok());
  }
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        int k = (t * 50 + i) % 64;
        auto rs = db->QueryP("SELECT v FROM kv WHERE k = ?", {Value::Int(k)});
        if (!rs.ok() || rs->rows.size() != 1 ||
            rs->rows[0][0].AsInt() != k * 100) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, ConcurrencyTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

// --------------------------------------------- parallel-vs-serial differential

const char* const kQueries[] = {
    "//para",                                            // QR1
    "/nitf/body/section[5]/title",                       // QR2
    "/nitf/body/section[last()]/para[last()]",           // QR3
    "//section[@id = 's3']/following-sibling::section",  // QR4
    "/nitf/body//para",                                  // QR5
    "//para[@class = 'lead']",                           // QR6
    "/nitf/body/section[position() >= 5]/title",         // QR7
};

class ParallelDifferentialTest
    : public ::testing::TestWithParam<OrderEncoding> {};

TEST_P(ParallelDifferentialTest, ParallelPlansMatchSerialByteForByte) {
  OrderEncoding enc = GetParam();
  LoadedStore par = LoadNews(enc, /*parallel_exec=*/true);
  LoadedStore ser = LoadNews(enc, /*parallel_exec=*/false);

  for (const char* xpath : kQueries) {
    auto a = EvaluateXPath(par.store.get(), xpath);
    auto b = EvaluateXPath(ser.store.get(), xpath);
    ASSERT_TRUE(a.ok()) << xpath << " -> " << a.status();
    ASSERT_TRUE(b.ok()) << xpath << " -> " << b.status();
    EXPECT_FALSE(b->empty()) << xpath;
    EXPECT_EQ(Identities(enc, *a), Identities(enc, *b)) << xpath;
  }

  // QR8: subtree reconstruction of one section.
  auto sa = EvaluateXPath(par.store.get(), "/nitf/body/section[3]");
  auto sb = EvaluateXPath(ser.store.get(), "/nitf/body/section[3]");
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_EQ(sa->size(), 1u);
  ASSERT_EQ(sb->size(), 1u);
  auto ra = par.store->ReconstructSubtree((*sa)[0]);
  auto rb = ser.store->ReconstructSubtree((*sb)[0]);
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_EQ(WriteXml(**ra), WriteXml(**rb));

  // A full unparameterized scan plans as a parallel heap scan on every
  // encoding (XPath probes under Local are parameterized and stay serial).
  auto ca = par.db->Query("SELECT COUNT(*) FROM nodes");
  auto cb = ser.db->Query("SELECT COUNT(*) FROM nodes");
  ASSERT_TRUE(ca.ok() && cb.ok());
  EXPECT_EQ(ca->rows[0][0].AsInt(), cb->rows[0][0].AsInt());

  // The parallel side must actually have fanned out; the serial side never.
  EXPECT_GT(par.db->stats()->morsels, 0u);
  EXPECT_GT(par.db->stats()->threads_used, 1u);
  EXPECT_EQ(ser.db->stats()->morsels, 0u);
  EXPECT_EQ(ser.db->stats()->threads_used, 0u);
}

// Regression: a SELECT inside an open transaction can plan as a parallel
// scan whose pool workers call BufferPool::FetchPage concurrently while the
// undo log is live. Fetches inside a transaction must take the exclusive
// page-table path — the shared fast path would race on the undo map (UB
// flagged by TSan; this test is part of the TSan CI workload).
TEST_P(ParallelDifferentialTest, ParallelReadsInsideOpenTransaction) {
  OrderEncoding enc = GetParam();
  LoadedStore ls = LoadNews(enc, /*parallel_exec=*/true);
  auto baseline = EvaluateXPath(ls.store.get(), "//para");
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  std::vector<std::string> expect = Identities(enc, *baseline);
  ASSERT_TRUE(ls.db->Execute("CREATE TABLE scratch (a INT)").ok());

  ASSERT_TRUE(ls.db->Begin().ok());
  // Dirty some pages so the undo log has entries while the readers run.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        ls.db->ExecuteP("INSERT INTO scratch VALUES (?)", {Value::Int(i)})
            .ok());
  }
  uint64_t before = ls.db->stats()->morsels;
  auto r = EvaluateXPath(ls.store.get(), "//para");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Identities(enc, *r), expect);
  auto c = ls.db->Query("SELECT COUNT(*) FROM nodes");
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_GT(ls.db->stats()->morsels, before);  // the reads really fanned out
  ASSERT_TRUE(ls.db->Rollback().ok());

  auto sc = ls.db->Query("SELECT COUNT(*) FROM scratch");
  ASSERT_TRUE(sc.ok()) << sc.status();
  EXPECT_EQ(sc->rows[0][0].AsInt(), 0);
  auto after = EvaluateXPath(ls.store.get(), "//para");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(Identities(enc, *after), expect);
}

// Intra-query parallelism composed with inter-query concurrency: several
// threads each running parallel-plan statements against one database.
TEST_P(ParallelDifferentialTest, ConcurrentParallelQueries) {
  OrderEncoding enc = GetParam();
  LoadedStore ls = LoadNews(enc, /*parallel_exec=*/true, /*num_threads=*/2);
  auto baseline = EvaluateXPath(ls.store.get(), "//para");
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  std::vector<std::string> expect = Identities(enc, *baseline);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        auto r = EvaluateXPath(ls.store.get(), "//para");
        if (!r.ok() || Identities(enc, *r) != expect) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, ParallelDifferentialTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

}  // namespace
}  // namespace oxml
