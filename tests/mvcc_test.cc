// MVCC snapshot reads: readers proceed under the shared statement latch
// while a write transaction is open, served committed page versions and
// index deltas (docs/INTERNALS.md §11). Covers the snapshot differential
// over the QR workload on every encoding, index-delta visibility through
// commit and rollback, the foreign-writer gate, snapshot-LSN recovery,
// and the statement-latch owner check.
//
// Built with -DOXML_TSAN=ON in CI, these tests double as the
// ThreadSanitizer workload for the version chains and the write gate.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/xpath_eval.h"
#include "src/relational/database.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" +
         std::to_string(::getpid()) + ".db";
}

// ------------------------------------------------------------ SQL basics

TEST(MvccTest, ReaderSeesCommittedStateWhileWriterTxnOpen) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(i)}).ok());
  }

  ASSERT_TRUE(db->Begin().ok());
  for (int i = 5; i < 20; ++i) {
    ASSERT_TRUE(
        db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(i)}).ok());
  }
  // The owner reads its own uncommitted state.
  auto own = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(own.ok()) << own.status();
  EXPECT_EQ(own->rows[0][0].AsInt(), 20);

  // A foreign reader completes while the transaction is open (joining here
  // would hang forever if it blocked) and sees the committed count.
  int64_t seen = -1;
  std::thread reader([&] {
    auto rs = db->Query("SELECT COUNT(*) FROM t");
    if (rs.ok()) seen = rs->rows[0][0].AsInt();
  });
  reader.join();
  EXPECT_EQ(seen, 5);
  EXPECT_GT(db->stats()->snapshot_reads, 0u);

  ASSERT_TRUE(db->Commit().ok());
  std::thread reader2([&] {
    auto rs = db->Query("SELECT COUNT(*) FROM t");
    if (rs.ok()) seen = rs->rows[0][0].AsInt();
  });
  reader2.join();
  EXPECT_EQ(seen, 20);
}

// Index-backed reads must see the committed view too: the B+trees mutate
// in place, so snapshot readers merge the open transaction's delta back
// out (inserted entries hidden, erased entries re-surfaced).
TEST(MvccTest, IndexScanMergesDeltaForSnapshotReaders) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE kv (k INT, v INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX idx_k ON kv (k)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->ExecuteP("INSERT INTO kv VALUES (?, ?)",
                             {Value::Int(i), Value::Int(i * 10)})
                    .ok());
  }
  auto committed = db->Query("SELECT k, v FROM kv WHERE k >= 0");
  ASSERT_TRUE(committed.ok()) << committed.status();
  ASSERT_EQ(committed->rows.size(), 10u);

  ASSERT_TRUE(db->Begin().ok());
  ASSERT_TRUE(db->Execute("DELETE FROM kv WHERE k < 3").ok());
  ASSERT_TRUE(db->ExecuteP("INSERT INTO kv VALUES (?, ?)",
                           {Value::Int(99), Value::Int(990)})
                  .ok());
  ASSERT_TRUE(db->Execute("UPDATE kv SET v = 777 WHERE k = 5").ok());

  // Foreign reader through the index range: exactly the committed rows.
  std::vector<Row> snap_rows;
  std::thread reader([&] {
    auto rs = db->Query("SELECT k, v FROM kv WHERE k >= 0");
    if (rs.ok()) snap_rows = rs->rows;
  });
  reader.join();
  ASSERT_EQ(snap_rows.size(), committed->rows.size());
  for (size_t i = 0; i < snap_rows.size(); ++i) {
    EXPECT_EQ(snap_rows[i][0].AsInt(), committed->rows[i][0].AsInt());
    EXPECT_EQ(snap_rows[i][1].AsInt(), committed->rows[i][1].AsInt());
  }

  ASSERT_TRUE(db->Commit().ok());
  std::vector<Row> post_rows;
  std::thread reader2([&] {
    auto rs = db->Query("SELECT k, v FROM kv WHERE k >= 0");
    if (rs.ok()) post_rows = rs->rows;
  });
  reader2.join();
  ASSERT_EQ(post_rows.size(), 8u);  // 10 - 3 deleted + 1 inserted
  EXPECT_EQ(post_rows.front()[0].AsInt(), 3);
  EXPECT_EQ(post_rows.back()[0].AsInt(), 99);
  for (const Row& r : post_rows) {
    if (r[0].AsInt() == 5) {
      EXPECT_EQ(r[1].AsInt(), 777);
    }
  }
}

TEST(MvccTest, RollbackRestoresSnapshotAndCurrentViewsAlike) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE kv (k INT, v INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX idx_k ON kv (k)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->ExecuteP("INSERT INTO kv VALUES (?, ?)",
                             {Value::Int(i), Value::Int(i * 10)})
                    .ok());
  }
  ASSERT_TRUE(db->Begin().ok());
  ASSERT_TRUE(db->Execute("DELETE FROM kv WHERE k >= 5").ok());
  ASSERT_TRUE(db->Rollback().ok());
  auto rs = db->Query("SELECT COUNT(*) FROM kv WHERE k >= 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 10);
}

// A mutation from a thread that does not own the open transaction must
// wait for the transaction to end — never splice into it, never corrupt
// it, never deadlock.
TEST(MvccTest, ForeignWriterGatesUntilTransactionEnds) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());

  ASSERT_TRUE(db->Begin().ok());
  ASSERT_TRUE(db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(1)}).ok());

  std::atomic<bool> foreign_done{false};
  std::thread writer([&] {
    // Must gate until the open transaction commits, then run standalone.
    auto r = db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(2)});
    EXPECT_TRUE(r.ok()) << r.status();
    foreign_done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(foreign_done.load(std::memory_order_acquire));

  ASSERT_TRUE(db->Commit().ok());
  writer.join();
  EXPECT_TRUE(foreign_done.load());
  auto rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 2);
}

// The snapshot clock is recovered from the WAL's commit records, so LSNs
// stay monotone across a crash-reopen instead of restarting at zero.
TEST(MvccTest, CommitLsnSurvivesCrashRecovery) {
  std::string path = TempPath("mvcc_lsn");
  DatabaseOptions opts;
  opts.file_path = path;
  opts.wal_checkpoint_threshold_bytes = 0;  // keep every commit in the log
  auto dbr = Database::Open(opts);
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(i)}).ok());
  }
  uint64_t before = db->buffer_pool()->last_commit_lsn();
  ASSERT_GT(before, 0u);
  db->SimulateCrashForTesting();
  db.reset();

  opts.open_existing = true;
  dbr = Database::Open(opts);
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  db = std::move(dbr).value();
  EXPECT_EQ(db->buffer_pool()->last_commit_lsn(), before);
  auto rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 4);
}

// -------------------------------------------- QR snapshot differential

struct LoadedStore {
  std::unique_ptr<Database> db;
  std::unique_ptr<OrderedXmlStore> store;
};

LoadedStore LoadNews(OrderEncoding enc, bool parallel_exec) {
  DatabaseOptions opts;
  opts.enable_parallel_execution = parallel_exec;
  opts.num_threads = 4;
  opts.parallel_scan_min_rows = 1;
  LoadedStore out;
  auto db = Database::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status();
  out.db = std::move(db).value();
  auto store = OrderedXmlStore::Create(out.db.get(), enc, StoreOptions{});
  EXPECT_TRUE(store.ok()) << store.status();
  out.store = std::move(store).value();
  NewsGeneratorOptions gen;
  gen.sections = 12;
  gen.paragraphs_per_section = 6;
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

const char* const kQueries[] = {
    "//para",                                            // QR1
    "/nitf/body/section[5]/title",                       // QR2
    "/nitf/body/section[last()]/para[last()]",           // QR3
    "//section[@id = 's3']/following-sibling::section",  // QR4
    "/nitf/body//para",                                  // QR5
    "//para[@class = 'lead']",                           // QR6
    "/nitf/body/section[position() >= 5]/title",         // QR7
};

struct QrView {
  std::vector<std::vector<std::string>> identities;  // one per kQueries
  std::string section3_xml;                          // QR8 reconstruction
};

QrView RunQrSuite(OrderedXmlStore* store, OrderEncoding enc) {
  QrView v;
  for (const char* xpath : kQueries) {
    auto r = EvaluateXPath(store, xpath);
    EXPECT_TRUE(r.ok()) << xpath << " -> " << r.status();
    v.identities.push_back(r.ok() ? Identities(enc, *r)
                                  : std::vector<std::string>{});
  }
  auto s3 = EvaluateXPath(store, "/nitf/body/section[3]");
  EXPECT_TRUE(s3.ok() && s3->size() == 1u);
  if (s3.ok() && s3->size() == 1u) {
    auto rec = store->ReconstructSubtree((*s3)[0]);
    EXPECT_TRUE(rec.ok()) << rec.status();
    if (rec.ok()) v.section3_xml = WriteXml(**rec);
  }
  return v;
}

class MvccSnapshotTest
    : public ::testing::TestWithParam<std::tuple<OrderEncoding, bool>> {};

// The tentpole acceptance check: a reader issuing QR1–QR8 while another
// thread sits inside an uncommitted Begin+mutation completes without
// blocking and returns byte-identical pre-transaction results; after the
// commit it returns the new state (byte-identical to the writer's view).
TEST_P(MvccSnapshotTest, LongWriterVsReaderSnapshotDifferential) {
  auto [enc, parallel_exec] = GetParam();
  LoadedStore ls = LoadNews(enc, parallel_exec);
  QrView baseline = RunQrSuite(ls.store.get(), enc);
  EXPECT_FALSE(baseline.section3_xml.empty());

  // Open a transaction and mutate the store without committing. The
  // TxnScope inside DeleteSubtree sees our open transaction and joins it
  // (flat nesting), so the delete stays uncommitted here.
  auto leads = EvaluateXPath(ls.store.get(), "//para[@class = 'lead']");
  ASSERT_TRUE(leads.ok()) << leads.status();
  ASSERT_FALSE(leads->empty());
  ASSERT_TRUE(ls.db->Begin().ok());
  auto del = ls.store->DeleteSubtree(leads->front());
  ASSERT_TRUE(del.ok()) << del.status();

  // Reader thread runs the whole QR suite mid-transaction. Joining proves
  // it never blocked on the open transaction (the pre-MVCC latch would
  // park it right here, and the test would hang).
  QrView mid;
  std::thread reader(
      [&] { mid = RunQrSuite(ls.store.get(), enc); });
  reader.join();
  EXPECT_EQ(mid.identities, baseline.identities);
  EXPECT_EQ(mid.section3_xml, baseline.section3_xml);
  EXPECT_GT(ls.db->stats()->snapshot_reads, 0u);
  EXPECT_GE(ls.db->stats()->version_chain_max, 1u);

  ASSERT_TRUE(ls.db->Commit().ok());

  // Post-commit the reader must see the new state, byte-identical to the
  // writer's own (current-state) view.
  QrView writer_view = RunQrSuite(ls.store.get(), enc);
  EXPECT_NE(writer_view.identities[5], baseline.identities[5]);  // QR6 lost
                                                                 // a lead
  QrView post;
  std::thread reader2(
      [&] { post = RunQrSuite(ls.store.get(), enc); });
  reader2.join();
  EXPECT_EQ(post.identities, writer_view.identities);
  EXPECT_EQ(post.section3_xml, writer_view.section3_xml);
}

// Same shape with a rollback: after the undo, readers and the (former)
// writer agree on the pre-transaction state again.
TEST_P(MvccSnapshotTest, SnapshotDifferentialAcrossRollback) {
  auto [enc, parallel_exec] = GetParam();
  LoadedStore ls = LoadNews(enc, parallel_exec);
  QrView baseline = RunQrSuite(ls.store.get(), enc);

  auto leads = EvaluateXPath(ls.store.get(), "//para[@class = 'lead']");
  ASSERT_TRUE(leads.ok());
  ASSERT_FALSE(leads->empty());
  ASSERT_TRUE(ls.db->Begin().ok());
  ASSERT_TRUE(ls.store->DeleteSubtree(leads->front()).ok());

  QrView mid;
  std::thread reader(
      [&] { mid = RunQrSuite(ls.store.get(), enc); });
  reader.join();
  EXPECT_EQ(mid.identities, baseline.identities);

  ASSERT_TRUE(ls.db->Rollback().ok());
  QrView post = RunQrSuite(ls.store.get(), enc);
  EXPECT_EQ(post.identities, baseline.identities);
  EXPECT_EQ(post.section3_xml, baseline.section3_xml);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, MvccSnapshotTest,
    ::testing::Combine(::testing::Values(OrderEncoding::kGlobal,
                                         OrderEncoding::kLocal,
                                         OrderEncoding::kDewey),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(OrderEncodingToString(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "Parallel" : "Serial");
    });

// Many concurrent snapshot readers against one long writer, on the
// parallel-execution path: pool workers must inherit the statement's
// snapshot (TSan workload for SnapshotTaskScope and the version chains).
TEST(MvccConcurrencyTest, ManyReadersOneWriterStress) {
  LoadedStore ls = LoadNews(OrderEncoding::kGlobal, /*parallel_exec=*/true);
  OrderEncoding enc = OrderEncoding::kGlobal;
  auto baseline = EvaluateXPath(ls.store.get(), "//para");
  ASSERT_TRUE(baseline.ok());
  std::vector<std::string> expect = Identities(enc, *baseline);

  std::atomic<int> failures{0};
  std::atomic<bool> writer_open{false};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int round = 0; round < 6 && !stop.load(); ++round) {
      ASSERT_TRUE(ls.db->Begin().ok());
      auto paras = EvaluateXPath(ls.store.get(), "//para");
      if (!paras.ok() || paras->empty()) {
        ++failures;
        (void)ls.db->Rollback();
        break;
      }
      if (!ls.store->DeleteSubtree(paras->back()).ok()) ++failures;
      writer_open.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      writer_open.store(false, std::memory_order_release);
      if (!ls.db->Rollback().ok()) ++failures;
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = EvaluateXPath(ls.store.get(), "//para");
        // Every round rolls back, so every read — snapshot or current —
        // must see exactly the baseline.
        if (!r.ok() || Identities(enc, *r) != expect) ++failures;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto final_r = EvaluateXPath(ls.store.get(), "//para");
  ASSERT_TRUE(final_r.ok());
  EXPECT_EQ(Identities(enc, *final_r), expect);
}

// ------------------------------------------- statement-latch owner check

// UnlockExclusive from a thread that does not hold the latch must not
// corrupt the owner's hold (debug builds assert instead; see
// StatementLatch::UnlockExclusive).
TEST(StatementLatchOwnerTest, NonOwnerUnlockExclusiveIsIgnored) {
#ifdef NDEBUG
  StatementLatch latch;
  latch.LockExclusive();
  std::thread rogue([&] { latch.UnlockExclusive(); });  // not the owner
  rogue.join();

  // The owner's hold must be intact: a reader still cannot get in.
  std::atomic<bool> acquired{false};
  std::thread reader([&] {
    latch.LockShared();
    acquired.store(true, std::memory_order_release);
    latch.UnlockShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  latch.UnlockExclusive();
  reader.join();
  EXPECT_TRUE(acquired.load());
#else
  GTEST_SKIP() << "debug builds assert on non-owner UnlockExclusive";
#endif
}

TEST(StatementLatchOwnerTest, UnlockOfUnheldLatchLeavesItUsable) {
#ifdef NDEBUG
  StatementLatch latch;
  latch.UnlockExclusive();  // nobody holds it: refused, state intact
  latch.LockExclusive();    // still acquires and releases normally
  latch.UnlockExclusive();
  latch.LockShared();
  latch.UnlockShared();
#else
  GTEST_SKIP() << "debug builds assert on non-owner UnlockExclusive";
#endif
}

// --------------------------------------- rollback-after-failed-commit

// Commit/Rollback from a thread that does not own the transaction is a
// clean error, not a deadlock or a foreign teardown.
TEST(MvccTest, CommitAndRollbackRequireTheOwningThread) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db->Begin().ok());
  ASSERT_TRUE(db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(1)}).ok());
  std::thread foreign([&] {
    EXPECT_FALSE(db->Commit().ok());
    EXPECT_FALSE(db->Rollback().ok());
  });
  foreign.join();
  EXPECT_TRUE(db->InTransaction());
  ASSERT_TRUE(db->Commit().ok());
  auto rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
}

// A Rollback with no transaction open — including the second Rollback
// after a successful one — is a safe InvalidArgument, never a second undo
// pass over restored state.
TEST(MvccTest, DoubleRollbackIsASafeError) {
  auto dbr = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(7)}).ok());

  ASSERT_TRUE(db->Begin().ok());
  ASSERT_TRUE(db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(8)}).ok());
  ASSERT_TRUE(db->Rollback().ok());
  Status again = db->Rollback();
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(again.IsInvalidArgument()) << again;

  auto rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
  // The engine is fully usable afterwards.
  ASSERT_TRUE(db->ExecuteP("INSERT INTO t VALUES (?)", {Value::Int(9)}).ok());
}

}  // namespace
}  // namespace oxml
