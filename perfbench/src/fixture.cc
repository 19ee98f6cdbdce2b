#include "fixture.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>

#include "src/core/xpath_eval.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"
#include "trace.h"

namespace perfbench {

using oxml::Database;
using oxml::NodeTest;
using oxml::OrderedXmlStore;
using oxml::Value;

void Fixture::TearDown() {
  for (auto& c : clients) {
    if (c != nullptr) CheckOk(c->Goodbye(), "client goodbye");
  }
  clients.clear();
  if (server != nullptr) server->Stop();
  server.reset();
  for (auto& s : stores) s.reset();
  if (db != nullptr) CheckOk(db->Close(), "database close");
  db.reset();
}

void RemoveDatabaseFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

std::unique_ptr<Fixture> SetUp(const FixtureConfig& config,
                               const std::string& xml_text,
                               const std::function<void(Fixture&)>& warm,
                               double* seconds) {
  auto f = std::make_unique<Fixture>();
  int64_t t0 = NowNs();
  {
    RequestScope setup_span("setup");
    oxml::DatabaseOptions dopts;
    dopts.file_path = config.file_path;
    dopts.open_existing = config.reopen;
    f->db = Unwrap(Database::Open(dopts), "open database");

    std::unique_ptr<oxml::XmlDocument> doc;
    if (!config.reopen) {
      SpanScope span("xml.parse");
      doc = Unwrap(oxml::ParseXml(xml_text), "parse document");
    }
    for (int e = 0; e < kNumEnc; ++e) {
      oxml::StoreOptions sopts;
      sopts.table_name = TableName(e);
      if (config.reopen) {
        f->stores[e] = Unwrap(
            OrderedXmlStore::Attach(f->db.get(), EncOf(e), sopts), "attach");
        continue;
      }
      SpanScope span("core.load_document", e);
      f->stores[e] = Unwrap(
          OrderedXmlStore::Create(f->db.get(), EncOf(e), sopts), "create");
      CheckOk(f->stores[e]->LoadDocument(*doc), "load document");
    }
    for (int e = 0; e < kNumEnc; ++e) {
      oxml::StoredNode root = Unwrap(f->stores[e]->Root(), "root");
      f->body[e] = Unwrap(
          f->stores[e]->ChildAt(root, NodeTest::Tag("body"), 0), "body");
    }
    if (config.wire_clients > 0) {
      SpanScope span("server.start");
      f->server = std::make_unique<oxml::server::OxmlServer>(
          f->db.get(), oxml::server::ServerOptions{});
      CheckOk(f->server->Start(), "server start");
      for (int e = 0; e < kNumEnc; ++e) {
        f->server->RegisterStore(EncName(e), f->stores[e].get());
      }
    }
    for (int c = 0; c < config.wire_clients; ++c) {
      SpanScope span("server.connect");
      oxml::server::ClientOptions copts;
      copts.port = f->server->port();
      f->clients.push_back(
          Unwrap(oxml::server::OxmlClient::Connect(copts), "connect"));
    }
    SpanScope span("setup.warmup");
    warm(*f);
  }
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return f;
}

namespace {

ReadResult CountAnswer(const oxml::Result<oxml::ResultSet>& rs) {
  if (!rs.ok()) return rs.status();
  if (rs->rows.size() != 1 || rs->rows[0].size() != 1) {
    return oxml::Status::Internal("COUNT(*) did not return one value");
  }
  return std::vector<std::string>{std::to_string(rs->rows[0][0].AsInt())};
}

}  // namespace

ReadResult WireRead(oxml::server::OxmlClient* client, const Request& req) {
  if (req.cls == kCount) {
    SpanScope span("server.query", req.enc, req.cls);
    return CountAnswer(client->Query(CountSql(req.enc),
                                     oxml::Row{Value::Text(req.text)}));
  }
  SpanScope span("server.xpath", req.enc, req.cls);
  return client->XPath(EncName(req.enc), req.text);
}

ReadResult EmbeddedRead(Fixture& f, const Request& req,
                        std::array<uint64_t, 2>* statements) {
  oxml::ExecStats* st = f.db->stats();
  if (req.cls == kCount) {
    SpanScope span("relational.query", req.enc, req.cls);
    return CountAnswer(f.db->QueryP(CountSql(req.enc),
                                    oxml::Row{Value::Text(req.text)}));
  }
  OrderedXmlStore* store = f.stores[req.enc].get();
  uint64_t s0 = st->statements.value();
  oxml::Result<std::vector<oxml::StoredNode>> nodes =
      oxml::Status::Internal("unset");
  {
    SpanScope span("core.evaluate_xpath", req.enc, req.cls);
    nodes = oxml::EvaluateXPath(store, req.text);
  }
  if (!nodes.ok()) return nodes.status();
  uint64_t s1 = st->statements.value();
  std::vector<std::string> sigs;
  for (const oxml::StoredNode& n : *nodes) {
    oxml::Result<std::unique_ptr<oxml::XmlNode>> sub =
        oxml::Status::Internal("unset");
    {
      SpanScope span("core.reconstruct_subtree", req.enc, req.cls);
      sub = store->ReconstructSubtree(n);
    }
    if (!sub.ok()) return sub.status();
    SpanScope span("xml.write_xml", req.enc, req.cls);
    sigs.push_back(oxml::WriteXml(**sub));
  }
  if (statements != nullptr) {
    *statements = {s1 - s0, st->statements.value() - s1};
  }
  return sigs;
}

void CheckRead(const Oracle& oracle, const Request& req,
               const std::vector<std::string>& got) {
  bool ok = req.cls == kCount
                ? got.size() == 1 &&
                      got[0] == std::to_string(oracle.CountOf(req.text))
                : MatchesExpected(oracle, req, got);
  Require(ok, std::string(EncName(req.enc)) + " " + ClsName(req.cls) + " '" +
                  req.text + "' returned " + std::to_string(got.size()) +
                  " results that differ from the expected answer");
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Fatal("cannot read /proc/self/status");
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  if (kb <= 0) Fatal("VmHWM missing from /proc/self/status");
  return kb / 1024.0;
}

double ProcessCpuSeconds() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) Fatal("getrusage failed");
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace perfbench
