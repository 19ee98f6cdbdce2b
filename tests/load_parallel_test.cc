// Bulk loading: a worker-count differential on all three encodings — the
// heap after a load on 1/2/4/8 pool workers, and with 1 KiB runs, is
// byte-identical to the inline (0-worker) load — plus QR1-QR8 answers,
// full reconstruction and post-load updates checked against the DOM
// oracle, on the news document and on edge-shaped documents (trailing
// comment/PI, attribute-only root, single empty element, deep chain, wide
// fan-out). Also: rejection of a second load into a loaded store,
// bulk-built B+tree invariant checks (leaf fill, key order, split-key
// boundaries via CheckStructure), HeapTable::AppendBatch tail-page
// caching, and reader liveness while a load's shred phase runs
// (LoadConcurrencyTest doubles as TSan workload — the "Concurrency"
// suite-name substring keeps it in the CI TSan regex).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/parallel_shred.h"
#include "src/core/xpath.h"
#include "src/core/xpath_eval.h"
#include "src/relational/btree.h"
#include "src/relational/database.h"
#include "src/relational/thread_pool.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"
#include "tests/fuzz/dom_oracle.h"

namespace oxml {
namespace {

using fuzz::DomOracle;
using fuzz::OracleNode;

// ------------------------------------------------------------- fixtures

struct LoadedStore {
  std::unique_ptr<Database> db;
  std::unique_ptr<OrderedXmlStore> store;
};

std::unique_ptr<XmlDocument> NewsDoc() {
  NewsGeneratorOptions gen;
  gen.sections = 25;
  gen.paragraphs_per_section = 12;
  gen.seed = 42;
  return GenerateNewsXml(gen);
}

std::unique_ptr<XmlDocument> Parse(const std::string& xml) {
  auto doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.ok() ? std::move(doc).value() : std::make_unique<XmlDocument>();
}

/// A document every differential test loads, with the spot where the
/// post-load update test inserts a subtree.
struct ShapedDoc {
  std::string name;
  std::unique_ptr<XmlDocument> doc;
  std::string insert_at;  // XPath selecting exactly one node
  InsertPosition pos;
};

/// The news document the QR queries target, then the edge shapes of the
/// partitioner: top-level siblings after the root, a root that is all
/// header (attributes, no children), a one-row document, a chain deeper
/// than any split threshold, and a fan-out wider than one unit.
std::vector<ShapedDoc> Docs() {
  std::vector<ShapedDoc> docs;
  docs.push_back({"news", NewsDoc(), "/nitf/body/section[3]",
                  InsertPosition::kAfter});
  docs.push_back({"trailing_comment_pi",
                  Parse("<r><a x=\"1\">t</a><b/></r><!-- c --><?pi d?>"),
                  "/r", InsertPosition::kLastChild});
  docs.push_back({"attribute_only_root", Parse("<r a=\"1\" b=\"2\" c=\"3\"/>"),
                  "/r", InsertPosition::kFirstChild});
  docs.push_back({"single_empty_element", Parse("<r/>"), "/r",
                  InsertPosition::kLastChild});
  std::string chain;
  for (int i = 0; i < 300; ++i) chain += "<d>";
  chain += "<leaf>bottom</leaf>";
  for (int i = 0; i < 300; ++i) chain += "</d>";
  docs.push_back({"deep_chain_300", Parse(chain), "//leaf",
                  InsertPosition::kBefore});
  std::string fan = "<r>";
  for (int i = 0; i < 2000; ++i) fan += "<c>" + std::to_string(i) + "</c>";
  fan += "</r>";
  docs.push_back({"fanout_2000", Parse(fan), "/r/c[1000]",
                  InsertPosition::kAfter});
  return docs;
}

/// Loads `doc` into a fresh database whose load pool has `load_threads`
/// workers (0 = inline on the calling thread).
LoadedStore Load(OrderEncoding enc, const XmlDocument& doc,
                 size_t load_threads, size_t run_bytes = 1u << 20) {
  DatabaseOptions opts;
  opts.num_load_threads = load_threads;
  opts.load_run_bytes = run_bytes;
  LoadedStore out;
  auto db = Database::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status();
  out.db = std::move(db).value();
  auto store = OrderedXmlStore::Create(out.db.get(), enc, StoreOptions{});
  EXPECT_TRUE(store.ok()) << store.status();
  out.store = std::move(store).value();
  Status st = out.store->LoadDocument(doc);
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

/// Every live heap row of `table` in page-chain (= insertion) order,
/// encoded to its exact storage bytes. Comparing these streams proves two
/// loads produced the same rows in the same physical order — strictly
/// stronger than comparing query results.
std::vector<std::string> HeapRowBytes(Database* db,
                                      const std::string& table) {
  std::vector<std::string> out;
  TableInfo* t = db->GetTable(table);
  EXPECT_NE(t, nullptr);
  if (t == nullptr) return out;
  HeapTable::Iterator it = t->heap()->Scan();
  Rid rid;
  Row row;
  while (true) {
    auto has = it.Next(&rid, &row);
    EXPECT_TRUE(has.ok()) << has.status();
    if (!has.ok() || !*has) break;
    out.push_back(EncodeRow(t->schema(), row));
  }
  return out;
}

/// The store-side counterpart of DomOracle::Signature.
std::string StoreSignature(OrderedXmlStore* store, const StoredNode& n) {
  if (n.kind == XmlNodeKind::kAttribute) return "@" + n.tag + "=" + n.value;
  auto subtree = store->ReconstructSubtree(n);
  EXPECT_TRUE(subtree.ok()) << subtree.status();
  return subtree.ok() ? WriteXml(**subtree) : "";
}

/// Evaluates `xpath` on the store and the oracle and expects the same
/// signature sequence (document order included); returns its length.
size_t ExpectMatchesOracle(OrderedXmlStore* store, DomOracle* oracle,
                           const std::string& xpath) {
  auto query = ParseXPath(xpath);
  if (!query.ok()) {
    ADD_FAILURE() << xpath << " -> " << query.status();
    return 0;
  }
  auto got = EvaluateXPath(store, *query);
  if (!got.ok()) {
    ADD_FAILURE() << xpath << " -> " << got.status();
    return 0;
  }
  std::vector<OracleNode> want = oracle->Evaluate(*query);
  EXPECT_EQ(got->size(), want.size()) << xpath;
  for (size_t i = 0; i < std::min(got->size(), want.size()); ++i) {
    EXPECT_EQ(StoreSignature(store, (*got)[i]), oracle->Signature(want[i]))
        << xpath << " result " << i;
  }
  return want.size();
}

const char* const kQueries[] = {
    "//para",                                            // QR1
    "/nitf/body/section[5]/title",                       // QR2
    "/nitf/body/section[last()]/para[last()]",           // QR3
    "//section[@id = 's3']/following-sibling::section",  // QR4
    "/nitf/body//para",                                  // QR5
    "//para[@class = 'lead']",                           // QR6
    "/nitf/body/section[position() >= 5]/title",         // QR7
    "/nitf/body/section[3]",                             // QR8 (subtree)
};

// ------------------------------------------- worker-count differential

class ParallelLoadDifferentialTest
    : public ::testing::TestWithParam<OrderEncoding> {};

// The acceptance bar of the pipeline: at every worker count the load must
// leave the heap byte-identical (same rows, same physical order) to the
// inline load, because order keys are pre-assigned from the partition
// pass and the k-way merge restores document order.
TEST_P(ParallelLoadDifferentialTest, ByteIdenticalAtEveryThreadCount) {
  OrderEncoding enc = GetParam();
  for (const ShapedDoc& d : Docs()) {
    SCOPED_TRACE(d.name);
    LoadedStore inline_load = Load(enc, *d.doc, 0);
    std::vector<std::string> want =
        HeapRowBytes(inline_load.db.get(), "nodes");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(inline_load.db->load_pool(), nullptr);
    EXPECT_EQ(inline_load.db->stats()->load_threads_used.value(), 1u);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      LoadedStore par = Load(enc, *d.doc, threads);
      EXPECT_EQ(HeapRowBytes(par.db.get(), "nodes"), want)
          << "threads=" << threads;
      const ExecStats* stats = par.db->stats();
      EXPECT_EQ(stats->rows_shredded.value(), want.size())
          << "threads=" << threads;
      EXPECT_GE(stats->runs_merged.value(), 1u);
      EXPECT_GE(stats->load_threads_used.value(), 1u);
      EXPECT_LE(stats->load_threads_used.value(), threads + 1);
    }
  }
}

// Tiny run budget => every worker (the inline caller included) seals many
// runs => the k-way merge is actually exercised (a single run would
// bypass it).
TEST_P(ParallelLoadDifferentialTest, ManySmallRunsMergeBackToSerialOrder) {
  OrderEncoding enc = GetParam();
  for (const ShapedDoc& d : Docs()) {
    SCOPED_TRACE(d.name);
    LoadedStore inline_load = Load(enc, *d.doc, 0);
    std::vector<std::string> want =
        HeapRowBytes(inline_load.db.get(), "nodes");
    for (size_t threads : {0u, 4u}) {
      LoadedStore small = Load(enc, *d.doc, threads, /*run_bytes=*/1024);
      if (d.name == "news") {
        EXPECT_GT(small.db->stats()->runs_merged.value(), 1u);
      }
      EXPECT_EQ(HeapRowBytes(small.db.get(), "nodes"), want)
          << "threads=" << threads;
    }
  }
}

// QR1-QR8 on the news document, plus whole-document axes on every shape,
// against the DOM oracle.
TEST_P(ParallelLoadDifferentialTest, QueriesMatchSerialLoad) {
  OrderEncoding enc = GetParam();
  for (const ShapedDoc& d : Docs()) {
    SCOPED_TRACE(d.name);
    DomOracle oracle(*d.doc);
    for (size_t threads : {0u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      LoadedStore ls = Load(enc, *d.doc, threads);
      if (d.name == "news") {
        for (const char* xpath : kQueries) {
          EXPECT_GT(ExpectMatchesOracle(ls.store.get(), &oracle, xpath), 0u)
              << xpath;
        }
      }
      for (const char* xpath : {"/*", "//*", "//text()", "//*/@*"}) {
        ExpectMatchesOracle(ls.store.get(), &oracle, xpath);
      }
    }
  }
}

// The store's own invariant checker plus full-document reconstruction
// against the original DOM.
TEST_P(ParallelLoadDifferentialTest, ValidatesAndReconstructs) {
  OrderEncoding enc = GetParam();
  for (const ShapedDoc& d : Docs()) {
    SCOPED_TRACE(d.name);
    for (size_t threads : {0u, 4u}) {
      LoadedStore ls = Load(enc, *d.doc, threads);
      Status valid = ls.store->Validate();
      EXPECT_TRUE(valid.ok()) << "threads=" << threads << ": " << valid;
      auto rebuilt = ls.store->ReconstructDocument();
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_EQ(WriteXml(**rebuilt), WriteXml(*d.doc))
          << "threads=" << threads;
    }
  }
}

// A load must not disturb subsequent incremental updates: the Local id
// allocator and the Global/Dewey gap numbering have to continue where the
// load left them. The store must end up equal to the DOM with the same
// insert applied.
TEST_P(ParallelLoadDifferentialTest, UpdatesAfterParallelLoadStayCorrect) {
  OrderEncoding enc = GetParam();
  auto sub = ParseXml("<aside kind=\"pullquote\"><para>new</para></aside>");
  ASSERT_TRUE(sub.ok()) << sub.status();
  const XmlNode& payload = *(*sub)->root()->children()[0];
  for (const ShapedDoc& d : Docs()) {
    SCOPED_TRACE(d.name);
    DomOracle oracle(*d.doc);
    auto query = ParseXPath(d.insert_at);
    ASSERT_TRUE(query.ok()) << query.status();
    std::vector<OracleNode> ref = oracle.Evaluate(*query);
    ASSERT_EQ(ref.size(), 1u);
    ASSERT_TRUE(oracle.Insert(oracle.ResolvePath(oracle.PathOf(ref[0].node)),
                              d.pos, payload.Clone()));
    const std::string want = oracle.Serialize();

    for (size_t threads : {0u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      LoadedStore ls = Load(enc, *d.doc, threads);
      auto target = EvaluateXPath(ls.store.get(), *query);
      ASSERT_TRUE(target.ok()) << target.status();
      ASSERT_EQ(target->size(), 1u);
      auto ins = ls.store->InsertSubtree((*target)[0], d.pos, payload);
      ASSERT_TRUE(ins.ok()) << ins.status();
      Status valid = ls.store->Validate();
      EXPECT_TRUE(valid.ok()) << valid;
      auto rebuilt = ls.store->ReconstructDocument();
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_EQ(WriteXml(**rebuilt), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, ParallelLoadDifferentialTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

// ------------------------------------------------- second load rejected

// A second load into a loaded store would interleave the two documents'
// order keys (duplicate ords / (pid, sord) pairs / Dewey paths). It must
// fail before writing a row and leave the first document intact.
TEST(LoadDocumentTest, SecondLoadIntoLoadedStoreIsRejected) {
  auto doc = Parse("<a x=\"1\"><b>t</b><c/></a>");
  const std::string want = WriteXml(*doc);
  for (OrderEncoding enc : {OrderEncoding::kGlobal, OrderEncoding::kLocal,
                            OrderEncoding::kDewey}) {
    for (size_t threads : {0u, 2u}) {
      SCOPED_TRACE(std::string(OrderEncodingToString(enc)) +
                   " threads=" + std::to_string(threads));
      LoadedStore ls = Load(enc, *doc, threads);
      auto rows = ls.store->NodeCount();
      ASSERT_TRUE(rows.ok()) << rows.status();

      Status again = ls.store->LoadDocument(*doc);
      EXPECT_TRUE(again.IsInvalidArgument()) << again;
      auto rows_after = ls.store->NodeCount();
      ASSERT_TRUE(rows_after.ok()) << rows_after.status();
      EXPECT_EQ(*rows_after, *rows);
      Status valid = ls.store->Validate();
      EXPECT_TRUE(valid.ok()) << valid;
      auto rebuilt = ls.store->ReconstructDocument();
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_EQ(WriteXml(**rebuilt), want);
      EXPECT_FALSE(ls.db->InTransaction());
    }
  }
}

// ------------------------------------------------------ partition algebra

TEST(PartitionDocumentTest, UnitsTileTheDocumentExactly) {
  auto doc = NewsDoc();
  for (size_t target : {1u, 4u, 16u, 64u}) {
    std::vector<ShredUnit> units = PartitionDocument(*doc, 32, target);
    ASSERT_FALSE(units.empty());
    // Units are in document order, each covering a contiguous row range:
    // whole-subtree units advance by subtree_rows, header units by
    // 1 + attribute count (their children follow as separate units).
    uint64_t expect_off = 0;
    for (const ShredUnit& u : units) {
      EXPECT_EQ(u.row_offset, expect_off);
      expect_off += u.whole_subtree
                        ? u.subtree_rows
                        : 1 + u.node->attributes().size();
    }
    EXPECT_EQ(expect_off, static_cast<uint64_t>(doc->root()->SubtreeSize() - 1));
  }
}

// ------------------------------------------------------- bulk-built trees

Rid MakeRid(uint32_t page, uint16_t slot) { return Rid{page, slot}; }

std::vector<BPlusTree::Entry> SequentialEntries(size_t n) {
  std::vector<BPlusTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08zu", i);
    entries.emplace_back(std::string(key),
                         MakeRid(static_cast<uint32_t>(i / 100),
                                 static_cast<uint16_t>(i % 100)));
  }
  return entries;
}

TEST(BulkBuildTest, PacksLeavesWithinFillBounds) {
  BPlusTree tree;
  constexpr size_t kN = 10000;
  ASSERT_TRUE(tree.BulkBuild(SequentialEntries(kN)).ok());
  EXPECT_EQ(tree.size(), kN);

  auto info = tree.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_GT(info->leaves, 1u);
  // Leaf-packing at ~3/4 fill with an even spread: every leaf at least
  // half full, none over capacity, all at one depth (checked inside
  // CheckStructure alongside key order and separator bounds).
  EXPECT_GE(info->min_leaf_entries, BPlusTree::kNodeCapacity / 2);
  EXPECT_LE(info->max_leaf_entries, BPlusTree::kNodeCapacity);
  EXPECT_EQ(info->depth, tree.height());

  // The full entry stream comes back in order.
  auto entries = SequentialEntries(kN);
  size_t i = 0;
  for (auto it = tree.Begin(); it.valid(); it.Next(), ++i) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(it.key(), entries[i].first);
    EXPECT_EQ(it.rid(), entries[i].second);
  }
  EXPECT_EQ(i, kN);

  // Split keys cut at leaf boundaries: LowerBound(sep) lands exactly on
  // the separator with nothing equal to it on the left.
  std::vector<std::string> seps = tree.SplitKeys(8);
  EXPECT_FALSE(seps.empty());
  for (const std::string& sep : seps) {
    auto it = tree.LowerBound(sep);
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key(), sep);
  }
}

TEST(BulkBuildTest, EmptyAndSingleLeafInputs) {
  BPlusTree empty;
  ASSERT_TRUE(empty.BulkBuild({}).ok());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.CheckStructure().ok());

  BPlusTree small;
  ASSERT_TRUE(small.BulkBuild(SequentialEntries(10)).ok());
  EXPECT_EQ(small.size(), 10u);
  EXPECT_EQ(small.height(), 1u);
  auto info = small.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->leaves, 1u);
}

TEST(BulkBuildTest, RejectsUnsortedDuplicateAndNonEmpty) {
  BPlusTree tree;
  std::vector<BPlusTree::Entry> unsorted = SequentialEntries(10);
  std::swap(unsorted[3], unsorted[7]);
  EXPECT_FALSE(tree.BulkBuild(std::move(unsorted)).ok());
  EXPECT_EQ(tree.size(), 0u);  // failed build leaves the tree empty+usable

  std::vector<BPlusTree::Entry> dup = SequentialEntries(10);
  dup[5] = dup[4];  // exact (key, rid) duplicate
  EXPECT_FALSE(tree.BulkBuild(std::move(dup)).ok());

  // Same key under distinct rids is a legal multiset entry pair.
  std::vector<BPlusTree::Entry> multi;
  multi.emplace_back("k", MakeRid(1, 1));
  multi.emplace_back("k", MakeRid(1, 2));
  ASSERT_TRUE(tree.BulkBuild(std::move(multi)).ok());
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.CheckStructure().ok());

  // Non-empty trees reject a second bulk build.
  EXPECT_FALSE(tree.BulkBuild(SequentialEntries(5)).ok());
  BPlusTree inserted;
  inserted.Insert("x", MakeRid(0, 0));
  EXPECT_FALSE(inserted.BulkBuild(SequentialEntries(5)).ok());
}

TEST(BulkBuildTest, SupportsInsertAndEraseAfterBuild) {
  BPlusTree tree;
  constexpr size_t kN = 5000;
  ASSERT_TRUE(tree.BulkBuild(SequentialEntries(kN)).ok());
  // The ~3/4 fill leaves headroom: post-build inserts and erases must
  // keep every structural invariant.
  for (size_t i = 0; i < 1000; ++i) {
    tree.Insert("zz" + std::to_string(i), MakeRid(9, 9));
  }
  auto entries = SequentialEntries(kN);
  for (size_t i = 0; i < kN; i += 3) {
    EXPECT_TRUE(tree.Erase(entries[i].first, entries[i].second));
  }
  EXPECT_EQ(tree.size(), kN + 1000 - (kN + 2) / 3);
  EXPECT_TRUE(tree.CheckStructure().ok());
  EXPECT_TRUE(tree.Contains("zz42"));
  EXPECT_FALSE(tree.Contains(entries[0].first));
  EXPECT_TRUE(tree.Contains(entries[1].first));
}

// CheckStructure itself is validated against the classic insert path: an
// Insert-built tree must pass the same audit the bulk builder is held to.
TEST(BulkBuildTest, InsertBuiltTreePassesCheckStructure) {
  BPlusTree tree;
  auto entries = SequentialEntries(3000);
  // Insert in a scrambled but deterministic order.
  for (size_t stride = 0; stride < 7; ++stride) {
    for (size_t i = stride; i < entries.size(); i += 7) {
      tree.Insert(entries[i].first, entries[i].second);
    }
  }
  EXPECT_EQ(tree.size(), entries.size());
  auto info = tree.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->depth, tree.height());
}

// ------------------------------------------------ heap batch append fix

TEST(AppendBatchTest, CachesTailPageAcrossBatch) {
  BufferPool pool(std::make_unique<MemoryBackend>());
  Schema schema({{"a", TypeId::kInt}, {"b", TypeId::kText}});
  auto heap = HeapTable::Create(&pool, schema);
  ASSERT_TRUE(heap.ok()) << heap.status();

  constexpr size_t kRows = 500;
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                       Value::Text("row-" + std::to_string(i))});
  }
  uint64_t saved_before = pool.saved_fetch_count();
  std::vector<Rid> rids;
  ASSERT_TRUE((*heap)->AppendBatch(rows, &rids).ok());
  ASSERT_EQ(rids.size(), kRows);
  EXPECT_EQ((*heap)->row_count(), kRows);
  // Per-row Insert would have fetched the tail once per row; the batch
  // fetched it once, so exactly kRows - 1 fetches were avoided.
  EXPECT_EQ(pool.saved_fetch_count() - saved_before, kRows - 1);
  EXPECT_GT((*heap)->page_chain_length(), 1u);  // the batch spans pages

  // Contents and rid order match the per-row path exactly.
  BufferPool pool2(std::make_unique<MemoryBackend>());
  auto heap2 = HeapTable::Create(&pool2, schema);
  ASSERT_TRUE(heap2.ok()) << heap2.status();
  for (size_t i = 0; i < kRows; ++i) {
    auto rid = (*heap2)->Insert(rows[i]);
    ASSERT_TRUE(rid.ok()) << rid.status();
    EXPECT_EQ(*rid, rids[i]) << i;
  }
  for (size_t i = 0; i < kRows; ++i) {
    auto got = (*heap)->Get(rids[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(EncodeRow(schema, *got), EncodeRow(schema, rows[i]));
  }
}

TEST(AppendBatchTest, BulkLoadRejectsNonEmptyTable) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok()) << db.status();
  Schema schema({{"a", TypeId::kInt}});
  ASSERT_TRUE((*db)->CreateTable("t", schema).ok());
  ASSERT_TRUE((*db)->CreateIndex("t_a", "t", {"a"}, /*unique=*/true).ok());
  ASSERT_TRUE((*db)->Insert("t", Row{Value::Int(0)}).ok());

  // The bulk path needs empty trees: a populated table is refused, not
  // loaded row by row, and keeps exactly its one row.
  std::vector<Row> more;
  for (int64_t i = 1; i <= 5; ++i) more.push_back(Row{Value::Int(i)});
  auto n = (*db)->BulkLoadRows("t", more);
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsInvalidArgument()) << n.status();
  auto rs = (*db)->Query("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 0);

  // Unique violation through the bulk path aborts and rolls back.
  auto db2 = Database::Open({});
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE((*db2)->CreateTable("t", schema).ok());
  ASSERT_TRUE((*db2)->CreateIndex("t_a", "t", {"a"}, /*unique=*/true).ok());
  std::vector<Row> dup{Row{Value::Int(1)}, Row{Value::Int(1)}};
  EXPECT_FALSE((*db2)->BulkLoadRows("t", dup).ok());
  auto rs2 = (*db2)->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->rows[0][0].AsInt(), 0);
}

// -------------------------------------------------- load/read concurrency

// The shred phase of a load runs outside the exclusive statement
// latch, so readers of an already-loaded table must keep making progress
// while another document is being shredded into a second table. Under
// TSan this also audits the pool/latch interaction of the load path.
TEST(LoadConcurrencyTest, ReadersOverlapParallelLoad) {
  DatabaseOptions opts;
  opts.num_load_threads = 2;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status();

  StoreOptions first;
  auto store1 = OrderedXmlStore::Create(db->get(), OrderEncoding::kGlobal,
                                        first);
  ASSERT_TRUE(store1.ok()) << store1.status();
  auto doc = NewsDoc();
  ASSERT_TRUE((*store1)->LoadDocument(*doc).ok());
  auto baseline = EvaluateXPath(store1->get(), "//para");
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const size_t expect = baseline->size();

  StoreOptions second;
  second.table_name = "nodes2";
  auto store2 = OrderedXmlStore::Create(db->get(), OrderEncoding::kDewey,
                                        second);
  ASSERT_TRUE(store2.ok()) << store2.status();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = EvaluateXPath(store1->get(), "//para");
        if (!r.ok() || r->size() != expect) ++failures;
      }
    });
  }
  Status load = (*store2)->LoadDocument(*doc);
  stop.store(true);
  for (auto& th : readers) th.join();
  ASSERT_TRUE(load.ok()) << load;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE((*store2)->Validate().ok());
  EXPECT_GT((*db)->stats()->rows_shredded.value(), 0u);
}

}  // namespace
}  // namespace oxml
