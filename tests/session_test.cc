// Session & server layer (docs/INTERNALS.md §13): OXWP v1 codec round
// trips, session-scoped prepared statements and transaction ownership,
// admission control (bounded queue, kResourceExhausted on overflow),
// idle-session reaping, disconnect-mid-transaction rollback, out-of-band
// cancel, and the N-client QR differential against the embedded API on all
// three encodings.
//
// Fixture names deliberately match the CI ThreadSanitizer regex
// (Session|Server|Wire): with -DOXML_TSAN=ON these tests are the data-race
// workload for the whole server stack.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/relational/database.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/session.h"
#include "src/server/wire_protocol.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace server {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ wire codec

TEST(WireProtocolTest, ValueAndRowRoundTrip) {
  Row row{Value::Null(), Value::Int(-42), Value::Double(2.5),
          Value::Text("héllo"), Value::Blob(std::string("\x00\xff\x01", 3))};
  WireWriter w(FrameType::kOk);
  w.PutRow(row);
  std::string bytes = w.Frame();

  std::string buf = bytes;
  Frame frame;
  auto got = ExtractFrame(&buf, &frame);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.type, FrameType::kOk);
  EXPECT_TRUE(buf.empty());

  WireReader r(frame.body);
  auto decoded = r.GetRow();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), row.size());
  EXPECT_EQ((*decoded)[0].type(), TypeId::kNull);
  EXPECT_EQ((*decoded)[1].AsInt(), -42);
  EXPECT_EQ((*decoded)[2].AsDouble(), 2.5);
  EXPECT_EQ((*decoded)[3].AsString(), "héllo");
  EXPECT_EQ((*decoded)[4].AsString(), std::string("\x00\xff\x01", 3));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireProtocolTest, StatusRoundTripPreservesCodeAndMessage) {
  WireWriter w(FrameType::kError);
  w.PutU64(7);
  w.PutStatus(Status::ResourceExhausted("queue full"));
  std::string buf = w.Frame();
  Frame frame;
  ASSERT_TRUE(*ExtractFrame(&buf, &frame));
  WireReader r(frame.body);
  ASSERT_TRUE(r.U64().ok());
  Status decoded;
  ASSERT_TRUE(r.GetStatus(&decoded).ok());
  EXPECT_TRUE(decoded.IsResourceExhausted());
  EXPECT_EQ(decoded.message(), "queue full");
}

TEST(WireProtocolTest, ExtractFrameHandlesPartialDelivery) {
  WireWriter w(FrameType::kPing);
  w.PutU64(99);
  std::string full = w.Frame();

  // Feed the frame one byte at a time: no frame until the last byte.
  std::string buf;
  Frame frame;
  for (size_t i = 0; i + 1 < full.size(); ++i) {
    buf.push_back(full[i]);
    auto got = ExtractFrame(&buf, &frame);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(*got) << "frame complete after " << i + 1 << " bytes";
  }
  buf.push_back(full.back());
  auto got = ExtractFrame(&buf, &frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.type, FrameType::kPing);
}

TEST(WireProtocolTest, OversizedAndEmptyFramesAreRejected) {
  std::string buf;
  uint32_t len = kMaxFrameBytes + 1;
  buf.append(reinterpret_cast<const char*>(&len), 4);
  buf.append("x");
  Frame frame;
  EXPECT_FALSE(ExtractFrame(&buf, &frame).ok());

  std::string empty;
  len = 0;
  empty.append(reinterpret_cast<const char*>(&len), 4);
  EXPECT_FALSE(ExtractFrame(&empty, &frame).ok());
}

TEST(WireProtocolTest, RowBatchSplitsAndReassembles) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Int(i)});

  size_t start = 0;
  std::vector<Row> reassembled;
  bool done = false;
  int batches = 0;
  while (!done) {
    std::string bytes = EncodeRowBatch(7, rows, &start, /*max_rows=*/3);
    std::string buf = bytes;
    Frame frame;
    ASSERT_TRUE(*ExtractFrame(&buf, &frame));
    ASSERT_EQ(frame.type, FrameType::kRowBatch);
    uint64_t tag = 0;
    auto d = DecodeRowBatch(frame.body, &tag, &reassembled);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_EQ(tag, 7u);
    done = *d;
    ++batches;
  }
  EXPECT_EQ(batches, 4);  // 3+3+3+1
  ASSERT_EQ(reassembled.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(reassembled[i][0].AsInt(), static_cast<int64_t>(i));
  }
}

TEST(WireProtocolTest, ResultHeaderRoundTrip) {
  Schema schema({Column{"k", TypeId::kInt}, Column{"name", TypeId::kText}});
  std::string bytes = EncodeResultHeader(5, 123, true, &schema);
  std::string buf = bytes;
  Frame frame;
  ASSERT_TRUE(*ExtractFrame(&buf, &frame));
  auto header = DecodeResultHeader(frame.body);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->tag, 5u);
  EXPECT_EQ(header->affected, 123);
  EXPECT_TRUE(header->is_select);
  ASSERT_EQ(header->schema.size(), 2u);
  EXPECT_EQ(header->schema.column(0).name, "k");
  EXPECT_EQ(header->schema.column(1).type, TypeId::kText);
}

// ------------------------------------------------- sessions (in process)

std::unique_ptr<Database> OpenDb() {
  auto db = Database::Open(DatabaseOptions{});
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

TEST(SessionTest, PreparedNamespaceIsPerSession) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  SessionManager mgr(db.get(), SessionManagerOptions{});
  auto s1 = *mgr.CreateSession();
  auto s2 = *mgr.CreateSession();

  auto p1 = s1->Prepare("INSERT INTO t VALUES (?)");
  ASSERT_TRUE(p1.ok()) << p1.status();
  EXPECT_EQ(p1->param_count, 1u);
  auto p2 = s2->Prepare("INSERT INTO t VALUES (?)");
  ASSERT_TRUE(p2.ok()) << p2.status();

  // Same SQL text, same shared plan — but bindings are private: each
  // session binds its own value and must insert exactly that value.
  ASSERT_TRUE(s1->Bind(p1->stmt_id, 0, {Value::Int(1)}).ok());
  ASSERT_TRUE(s2->Bind(p2->stmt_id, 0, {Value::Int(2)}).ok());
  ASSERT_TRUE(s1->ExecutePrepared(p1->stmt_id, 1).ok());
  ASSERT_TRUE(s2->ExecutePrepared(p2->stmt_id, 2).ok());

  auto rs = db->Query("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
  EXPECT_EQ(rs->rows[1][0].AsInt(), 2);

  // A session cannot touch another session's statement ids... ids are
  // per-session, so s2's id 1 is s2's own statement, and an unknown id
  // fails cleanly.
  EXPECT_FALSE(s1->CloseStatement(9999).ok());
  EXPECT_TRUE(s1->CloseStatement(p1->stmt_id).ok());
  EXPECT_EQ(s1->prepared_count(), 0u);
  EXPECT_EQ(s2->prepared_count(), 1u);
}

TEST(SessionTest, TransactionIsOwnedBySessionNotThread) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  SessionManager mgr(db.get(), SessionManagerOptions{});
  auto session = *mgr.CreateSession();

  // Begin on one thread, mutate on another, commit on a third — the
  // session carries ownership across all of them (the server executes
  // every frame on whichever pool worker is free).
  std::thread t1([&] { ASSERT_TRUE(session->Begin().ok()); });
  t1.join();
  std::thread t2([&] {
    auto r = session->Execute("INSERT INTO t VALUES (1)", {}, 1);
    ASSERT_TRUE(r.ok()) << r.status();
  });
  t2.join();
  std::thread t3([&] { ASSERT_TRUE(session->Commit().ok()); });
  t3.join();

  auto rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
}

TEST(SessionTest, ForeignSessionCannotCommitAnothersTransaction) {
  auto db = OpenDb();
  SessionManager mgr(db.get(), SessionManagerOptions{});
  auto owner = *mgr.CreateSession();
  auto other = *mgr.CreateSession();
  ASSERT_TRUE(owner->Begin().ok());
  EXPECT_FALSE(other->Commit().ok());
  EXPECT_FALSE(other->Rollback().ok());
  EXPECT_TRUE(owner->OwnsOpenTxn());
  EXPECT_FALSE(other->OwnsOpenTxn());
  ASSERT_TRUE(owner->Rollback().ok());
}

TEST(SessionTest, CloseRollsBackOwnedTransaction) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
  SessionManager mgr(db.get(), SessionManagerOptions{});
  auto session = *mgr.CreateSession();
  ASSERT_TRUE(session->Begin().ok());
  ASSERT_TRUE(session->Execute("DELETE FROM t", {}, 1).ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (2)", {}, 2).ok());

  // Close from a different thread (the disconnect-cleanup path).
  std::thread closer([&] { EXPECT_TRUE(session->Close().ok()); });
  closer.join();

  EXPECT_FALSE(db->txn_open());
  auto rs = db->Query("SELECT a FROM t");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
}

TEST(SessionTest, KilledSessionRejectsStatements) {
  auto db = OpenDb();
  SessionManager mgr(db.get(), SessionManagerOptions{});
  auto session = *mgr.CreateSession();
  session->Kill();
  auto rs = session->Query("SELECT 1", {}, 1);
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().IsCancelled());
}

// --------------------------------------------------- admission control

TEST(SessionAdmissionTest, QueueOverflowReturnsResourceExhausted) {
  auto db = OpenDb();
  SessionManagerOptions opts;
  opts.max_concurrent_statements = 1;
  opts.max_queued_statements = 1;
  SessionManager mgr(db.get(), opts);

  QueryControl c1, c2, c3;
  ASSERT_TRUE(mgr.Admit(&c1).ok());  // takes the single running slot
  EXPECT_EQ(mgr.running_statements(), 1u);

  // Second statement queues; third finds the queue full and is rejected
  // immediately — never a hang.
  std::atomic<bool> admitted2{false};
  std::thread waiter([&] {
    Status st = mgr.Admit(&c2);
    EXPECT_TRUE(st.ok()) << st;
    admitted2.store(true);
    mgr.Release();
  });
  while (mgr.queued_statements() == 0) std::this_thread::sleep_for(1ms);

  Status st = mgr.Admit(&c3);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted()) << st;
  EXPECT_FALSE(admitted2.load());

  mgr.Release();  // frees the slot; the queued statement proceeds
  waiter.join();
  EXPECT_TRUE(admitted2.load());
  EXPECT_EQ(mgr.admission_stats().rejected.load(), 1u);
  EXPECT_GE(mgr.admission_stats().queued_peak.load(), 1u);
}

TEST(SessionAdmissionTest, QueuedStatementHonorsCancel) {
  auto db = OpenDb();
  SessionManagerOptions opts;
  opts.max_concurrent_statements = 1;
  opts.max_queued_statements = 4;
  SessionManager mgr(db.get(), opts);

  QueryControl running, queued;
  ASSERT_TRUE(mgr.Admit(&running).ok());
  std::thread waiter([&] {
    Status st = mgr.Admit(&queued);
    EXPECT_TRUE(st.IsCancelled()) << st;
  });
  while (mgr.queued_statements() == 0) std::this_thread::sleep_for(1ms);
  queued.Cancel();
  waiter.join();
  mgr.Release();
}

TEST(SessionAdmissionTest, SessionCapRefusesCreation) {
  auto db = OpenDb();
  SessionManagerOptions opts;
  opts.max_sessions = 2;
  SessionManager mgr(db.get(), opts);
  auto s1 = mgr.CreateSession();
  auto s2 = mgr.CreateSession();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  auto s3 = mgr.CreateSession();
  ASSERT_FALSE(s3.ok());
  EXPECT_TRUE(s3.status().IsResourceExhausted());
  ASSERT_TRUE(mgr.CloseSession((*s1)->id()).ok());
  EXPECT_TRUE(mgr.CreateSession().ok());
}

TEST(SessionTest, IdleSessionsAreReapedAndReleasePreparedStatements) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  SessionManagerOptions opts;
  opts.idle_timeout_ms = 50;
  SessionManager mgr(db.get(), opts);
  auto session = *mgr.CreateSession();
  ASSERT_TRUE(session->Prepare("SELECT a FROM t").ok());
  EXPECT_EQ(session->prepared_count(), 1u);

  EXPECT_EQ(mgr.ReapIdle(), 0u);  // not idle long enough yet
  std::this_thread::sleep_for(80ms);
  EXPECT_EQ(mgr.ReapIdle(), 1u);
  EXPECT_EQ(mgr.session_count(), 0u);
  EXPECT_EQ(session->prepared_count(), 0u);  // namespace released
  EXPECT_TRUE(session->killed());
}

// ------------------------------------------------------ loopback server

struct ServerFixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<OxmlServer> server;

  explicit ServerFixture(ServerOptions opts = {},
                         DatabaseOptions dbopts = {}) {
    auto dbr = Database::Open(dbopts);
    EXPECT_TRUE(dbr.ok()) << dbr.status();
    db = std::move(dbr).value();
    // Finite defaults so a wedged test fails instead of hanging.
    if (opts.session.defaults.timeout_ms < 0) {
      opts.session.defaults.timeout_ms = 20000;
    }
    server = std::make_unique<OxmlServer>(db.get(), opts);
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st;
  }

  std::unique_ptr<OxmlClient> Connect() {
    ClientOptions copts;
    copts.port = server->port();
    auto client = OxmlClient::Connect(copts);
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }
};

TEST(ServerTest, HelloQueryExecuteRoundTrip) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_GT(client->session_id(), 0u);
  ASSERT_TRUE(client->Ping().ok());

  ASSERT_TRUE(client->Execute("CREATE TABLE t (a INT, s TEXT)").ok());
  auto ins = client->Execute("INSERT INTO t VALUES (?, ?)",
                             {Value::Int(7), Value::Text("seven")});
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ(*ins, 1);

  auto rs = client->Query("SELECT a, s FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 7);
  EXPECT_EQ(rs->rows[0][1].AsString(), "seven");
  EXPECT_EQ(rs->schema.column(0).name, "a");

  // Errors carry the engine status across the wire.
  auto bad = client->Query("SELECT nope FROM missing");
  EXPECT_FALSE(bad.ok());

  EXPECT_TRUE(client->Goodbye().ok());
}

TEST(ServerTest, PreparedStatementsOverTheWire) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Execute("CREATE TABLE t (a INT)").ok());

  auto prep = client->Prepare("INSERT INTO t VALUES (?)");
  ASSERT_TRUE(prep.ok()) << prep.status();
  EXPECT_EQ(prep->param_count, 1u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Bind(prep->stmt_id, 0, {Value::Int(i)}).ok());
    ASSERT_TRUE(client->ExecutePrepared(prep->stmt_id).ok());
  }
  auto sel = client->Prepare("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(sel.ok());
  auto rs = client->QueryPrepared(sel->stmt_id);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 5);
  EXPECT_TRUE(client->CloseStatement(prep->stmt_id).ok());
  EXPECT_FALSE(client->ExecutePrepared(prep->stmt_id).ok());
}

TEST(ServerTest, LargeResultSetsStreamInBatches) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(client->Begin().ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        client->Execute("INSERT INTO t VALUES (?)", {Value::Int(i)}).ok());
  }
  ASSERT_TRUE(client->Commit().ok());
  auto rs = client->Query("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 3000u);  // > fetch_batch_rows: several batches
  EXPECT_EQ(rs->rows[2999][0].AsInt(), 2999);
}

TEST(ServerTest, SessionCapRefusesExtraClients) {
  ServerOptions opts;
  opts.session.max_sessions = 2;
  ServerFixture fx(opts);
  auto c1 = fx.Connect();
  auto c2 = fx.Connect();
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);

  ClientOptions copts;
  copts.port = fx.server->port();
  auto c3 = OxmlClient::Connect(copts);
  ASSERT_FALSE(c3.ok());
  EXPECT_TRUE(c3.status().IsResourceExhausted()) << c3.status();

  // Freeing a slot lets the next client in.
  ASSERT_TRUE(c1->Goodbye().ok());
  for (int i = 0; i < 100; ++i) {
    if (fx.server->session_manager()->session_count() < 2) break;
    std::this_thread::sleep_for(10ms);
  }
  auto c4 = OxmlClient::Connect(copts);
  EXPECT_TRUE(c4.ok()) << c4.status();
}

TEST(ServerTest, DisconnectMidTransactionRollsBackByteIdentically) {
  ServerFixture fx;
  Database* db = fx.db.get();
  auto store = OrderedXmlStore::Create(db, OrderEncoding::kGlobal, {});
  ASSERT_TRUE(store.ok());
  NewsGeneratorOptions gen;
  gen.sections = 6;
  gen.paragraphs_per_section = 4;
  auto doc = GenerateNewsXml(gen);
  ASSERT_TRUE((*store)->LoadDocument(*doc).ok());
  auto before = (*store)->ReconstructDocument();
  ASSERT_TRUE(before.ok());
  std::string before_xml = WriteXml(**before);

  {
    auto client = fx.Connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Begin().ok());
    auto del = client->Execute("DELETE FROM nodes WHERE kind = 2");
    ASSERT_TRUE(del.ok()) << del.status();
    auto del2 = client->Execute("DELETE FROM nodes WHERE depth >= 4");
    ASSERT_TRUE(del2.ok()) << del2.status();
    // Die without commit, goodbye, or rollback.
    client->Abort();
  }

  // The server notices the dead socket and rolls back on the control lane.
  for (int i = 0; i < 500; ++i) {
    if (!db->txn_open() &&
        fx.server->session_manager()->session_count() == 0) {
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_FALSE(db->txn_open());
  EXPECT_EQ(fx.server->session_manager()->session_count(), 0u);

  auto after = (*store)->ReconstructDocument();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(WriteXml(**after), before_xml);
  ASSERT_TRUE((*store)->Validate().ok());
}

TEST(ServerTest, IdleSessionsAreReapedByThePollLoop) {
  ServerOptions opts;
  opts.session.idle_timeout_ms = 100;
  opts.sweep_interval_ms = 20;
  ServerFixture fx(opts);
  auto client = fx.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());

  for (int i = 0; i < 500; ++i) {
    if (fx.server->session_manager()->session_count() == 0) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(fx.server->session_manager()->session_count(), 0u);
  EXPECT_GE(fx.server->stats()->sessions_reaped.load(), 1u);
  // The reaped client's next statement fails: connection is gone.
  EXPECT_FALSE(client->Query("SELECT 1").ok());
}

TEST(ServerTest, OutOfBandCancelInterruptsGateWaitingStatement) {
  ServerOptions opts;
  opts.worker_threads = 4;
  ServerFixture fx(opts);
  auto owner = fx.Connect();
  auto victim = fx.Connect();
  ASSERT_NE(owner, nullptr);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(owner->Execute("CREATE TABLE t (a INT)").ok());

  // Owner opens a transaction; the victim's mutation gate-waits behind it.
  ASSERT_TRUE(owner->Begin().ok());
  ASSERT_TRUE(owner->Execute("INSERT INTO t VALUES (1)").ok());

  std::atomic<bool> victim_done{false};
  Status victim_status;
  std::thread runner([&] {
    auto r = victim->Execute("INSERT INTO t VALUES (2)");
    victim_status = r.status();
    victim_done.store(true);
  });
  std::this_thread::sleep_for(200ms);  // let it reach the gate
  EXPECT_FALSE(victim_done.load());

  // Out-of-band cancel from the victim's own connection, sent while its
  // statement thread is blocked in Execute.
  ASSERT_TRUE(victim->Cancel(0).ok());
  runner.join();
  ASSERT_FALSE(victim_status.ok());
  EXPECT_TRUE(victim_status.IsCancelled()) << victim_status;

  // The owner's transaction is untouched.
  ASSERT_TRUE(owner->Commit().ok());
  auto rs = owner->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
}

TEST(ServerTest, CancelCannotCrossSessions) {
  ServerOptions opts;
  opts.worker_threads = 4;
  ServerFixture fx(opts);
  auto owner = fx.Connect();
  auto victim = fx.Connect();
  auto attacker = fx.Connect();
  ASSERT_NE(owner, nullptr);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(attacker, nullptr);
  ASSERT_TRUE(owner->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(owner->Begin().ok());
  ASSERT_TRUE(owner->Execute("INSERT INTO t VALUES (1)").ok());

  std::atomic<bool> victim_done{false};
  Status victim_status;
  std::thread runner([&] {
    auto r = victim->Execute("INSERT INTO t VALUES (2)");
    victim_status = r.status();
    victim_done.store(true);
  });
  std::this_thread::sleep_for(200ms);
  // The attacker spams cancels — statement ids resolve through its OWN
  // session's in-flight slot, so the victim must be unaffected.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(attacker->Cancel(0).ok());
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(victim_done.load());

  ASSERT_TRUE(owner->Commit().ok());  // releases the gate; victim finishes
  runner.join();
  EXPECT_TRUE(victim_status.ok()) << victim_status;
  auto rs = owner->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 2);
}

TEST(ServerTest, AdmissionOverflowSurfacesAsResourceExhausted) {
  ServerOptions opts;
  opts.worker_threads = 4;
  opts.session.max_concurrent_statements = 1;
  opts.session.max_queued_statements = 0;
  ServerFixture fx(opts);
  auto owner = fx.Connect();
  auto blocked = fx.Connect();
  auto rejected = fx.Connect();
  ASSERT_NE(owner, nullptr);
  ASSERT_NE(blocked, nullptr);
  ASSERT_NE(rejected, nullptr);
  ASSERT_TRUE(owner->Execute("CREATE TABLE t (a INT)").ok());

  // Txn control bypasses admission (liveness), so Begin works even with
  // one slot; the owner's open transaction then parks `blocked`'s
  // mutation in the gate, pinning the single admission slot.
  ASSERT_TRUE(owner->Begin().ok());
  ASSERT_TRUE(owner->Execute("INSERT INTO t VALUES (1)").ok());

  std::atomic<bool> blocked_done{false};
  Status blocked_status;
  std::thread runner([&] {
    auto r = blocked->Execute("INSERT INTO t VALUES (2)");
    blocked_status = r.status();
    blocked_done.store(true);
  });
  for (int i = 0; i < 500; ++i) {
    if (fx.server->session_manager()->running_statements() == 1) break;
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(fx.server->session_manager()->running_statements(), 1u);

  // Queue depth 0: the third client's statement is rejected immediately
  // with kResourceExhausted — it does not hang.
  auto rs = rejected->Query("SELECT COUNT(*) FROM t");
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().IsResourceExhausted()) << rs.status();
  EXPECT_FALSE(blocked_done.load());
  EXPECT_GE(fx.server->session_manager()->admission_stats().rejected.load(),
            1u);

  ASSERT_TRUE(owner->Commit().ok());
  runner.join();
  EXPECT_TRUE(blocked_status.ok()) << blocked_status;
}

TEST(ServerTest, SessionOptionsEnforceStatementDeadline) {
  ServerOptions opts;
  opts.worker_threads = 4;
  ServerFixture fx(opts);
  auto owner = fx.Connect();
  auto limited = fx.Connect();
  ASSERT_NE(owner, nullptr);
  ASSERT_NE(limited, nullptr);
  ASSERT_TRUE(owner->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(limited->SetSessionOptions(/*timeout_ms=*/300,
                                         /*memory_budget_bytes=*/-1)
                  .ok());

  ASSERT_TRUE(owner->Begin().ok());
  ASSERT_TRUE(owner->Execute("INSERT INTO t VALUES (1)").ok());
  // The limited session's mutation gate-waits and must time out on its
  // own 300ms deadline instead of waiting for the owner.
  auto r = limited->Execute("INSERT INTO t VALUES (2)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  ASSERT_TRUE(owner->Rollback().ok());
}

// --------------------------------------- QR differential (N clients)

std::string EmbeddedSignature(OrderedXmlStore* store, const StoredNode& n) {
  if (n.kind == XmlNodeKind::kAttribute) {
    return "@" + n.tag + "=" + n.value;
  }
  auto subtree = store->ReconstructSubtree(n);
  EXPECT_TRUE(subtree.ok()) << subtree.status();
  return subtree.ok() ? WriteXml(**subtree) : std::string();
}

const char* const kQrQueries[] = {
    "//para",                                            // QR1
    "/nitf/body/section[5]/title",                       // QR2
    "/nitf/body/section[last()]/para[last()]",           // QR3
    "//section[@id = 's3']/following-sibling::section",  // QR4
    "/nitf/body//para",                                  // QR5
    "//para[@class = 'lead']",                           // QR6
    "/nitf/body/section[position() >= 5]/title",         // QR7
    "/nitf/body/section[3]",                             // QR8 (reconstruct)
};

class ServerQrDifferentialTest
    : public ::testing::TestWithParam<OrderEncoding> {};

TEST_P(ServerQrDifferentialTest, EightClientsMatchEmbeddedOnAllQueries) {
  OrderEncoding enc = GetParam();
  ServerOptions opts;
  opts.worker_threads = 8;
  opts.session.max_concurrent_statements = 8;
  ServerFixture fx(opts);
  auto store = OrderedXmlStore::Create(fx.db.get(), enc, {});
  ASSERT_TRUE(store.ok()) << store.status();
  NewsGeneratorOptions gen;
  gen.sections = 12;
  gen.paragraphs_per_section = 6;
  gen.seed = 42;
  auto doc = GenerateNewsXml(gen);
  ASSERT_TRUE((*store)->LoadDocument(*doc).ok());
  fx.server->RegisterStore("doc", store->get());

  // Embedded baseline, per query.
  std::vector<std::vector<std::string>> expected;
  for (const char* q : kQrQueries) {
    auto nodes = EvaluateXPath(store->get(), q);
    ASSERT_TRUE(nodes.ok()) << q << ": " << nodes.status();
    std::vector<std::string> sigs;
    for (const StoredNode& n : *nodes) {
      sigs.push_back(EmbeddedSignature(store->get(), n));
    }
    ASSERT_FALSE(sigs.empty()) << q;
    expected.push_back(std::move(sigs));
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = fx.server->port();
      auto client = OxmlClient::Connect(copts);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < std::size(kQrQueries); ++q) {
          // Stagger which query each client starts with so the admission
          // gate sees a mixed concurrent load.
          size_t idx = (q + static_cast<size_t>(c)) % std::size(kQrQueries);
          auto sigs = (*client)->XPath("doc", kQrQueries[idx]);
          if (!sigs.ok()) {
            ++failures;
            continue;
          }
          if (*sigs != expected[idx]) ++mismatches;
        }
      }
      (*client)->Goodbye();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, ServerQrDifferentialTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return std::string(
                               OrderEncodingToString(info.param));
                         });

}  // namespace
}  // namespace server
}  // namespace oxml
