// Index-only COUNT(*): a global COUNT(*) whose WHERE clause is exactly an
// index range counts index entries instead of fetching heap rows. Every
// answer is checked against the row path (SELECT * over the same WHERE),
// against an unindexed copy of the table, and, on the stores, against the
// DOM. Also covers the range-start fix the count path relies on: a range
// bounded only from above must not return the column's NULL keys.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/relational/database.h"
#include "src/relational/query_control.h"
#include "src/xml/xml_generator.h"

namespace oxml {
namespace {

std::unique_ptr<Database> OpenDb(const DatabaseOptions& opts = {}) {
  auto dbr = Database::Open(opts);
  EXPECT_TRUE(dbr.ok()) << dbr.status();
  return dbr.ok() ? std::move(dbr).value() : nullptr;
}

/// Rows of `sql` with `params`, or -1 on error (reported).
int64_t RowCount(Database* db, const std::string& sql, Row params = {}) {
  auto rs = db->QueryP(sql, std::move(params));
  EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status();
  return rs.ok() ? static_cast<int64_t>(rs->rows.size()) : -1;
}

/// The single value of a COUNT(*) statement, or -1 on error (reported).
int64_t CountOf(Database* db, const std::string& sql, Row params = {}) {
  auto rs = db->QueryP(sql, std::move(params));
  EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status();
  if (!rs.ok() || rs->rows.size() != 1 || rs->rows[0].size() != 1) return -1;
  return rs->rows[0][0].AsInt();
}

bool ExplainsIndexOnly(Database* db, const std::string& sql) {
  auto plan = db->Explain(sql);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status();
  return plan.ok() && plan->find("index-only count") != std::string::npos;
}

// ------------------------------------------------ NULL keys of a range

// t(a INT, b INT) rows (NULL,1), (3,2), (7,3): `a < 5` selects one row. An
// upper-bound-only literal range used to start at the front of the index,
// before the NULL keys, and returned (NULL,1) too. `u` is the unindexed
// copy; `c` adds (3,NULL) under a composite (a, b) index.
TEST(NullKeyRangeTest, UpperBoundOnlyRangeSkipsNullKeys) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  for (const char* t : {"t", "u", "c"}) {
    ASSERT_TRUE(db->Execute(std::string("CREATE TABLE ") + t +
                            " (a INT, b INT)")
                    .ok());
    ASSERT_TRUE(db->Execute(std::string("INSERT INTO ") + t +
                            " VALUES (NULL, 1), (3, 2), (7, 3)")
                    .ok());
  }
  ASSERT_TRUE(db->Execute("CREATE INDEX t_a ON t (a)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX c_ab ON c (a, b)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO c VALUES (3, NULL)").ok());

  for (const char* t : {"t", "u"}) {
    std::string from = std::string(" FROM ") + t;
    EXPECT_EQ(RowCount(db.get(), "SELECT b" + from + " WHERE a < 5"), 1) << t;
    EXPECT_EQ(RowCount(db.get(), "SELECT b" + from + " WHERE a <= 3"), 1)
        << t;
    EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*)" + from + " WHERE a < 5"), 1)
        << t;
    EXPECT_EQ(RowCount(db.get(), "SELECT b" + from + " WHERE a < ?",
                       {Value::Int(5)}),
              1)
        << t;
    EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*)" + from + " WHERE a < ?",
                      {Value::Int(5)}),
              1)
        << t;
  }
  EXPECT_EQ(RowCount(db.get(), "SELECT b FROM c WHERE a < 5"), 2);
  // Under an equality prefix: (3, NULL) is not below 5.
  EXPECT_EQ(RowCount(db.get(), "SELECT b FROM c WHERE a = 3 AND b < 5"), 1);
  EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*) FROM c WHERE a = 3 AND b < 5"),
            1);
  EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*) FROM c WHERE a = ? AND b < ?",
                    {Value::Int(3), Value::Int(5)}),
            1);
  // DML re-checks the whole predicate and was never affected.
  auto deleted = db->Execute("DELETE FROM t WHERE a < 5");
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_EQ(*deleted, 1);
  EXPECT_EQ(RowCount(db.get(), "SELECT b FROM t"), 2);
}

// ------------------------------------------- COUNT equals rows, randomly

/// A seeded random conjunction over (a INT, b TEXT, c INT), each predicate
/// in literal or '?' form. `where` is empty for no WHERE clause.
struct RandomQuery {
  std::string where;
  Row params;
};

/// A random cell of column `column` (0 = a, 1 = b, 2 = c), NULL at 15%.
Value RandomCell(Random* rng, int column) {
  if (rng->Chance(0.15)) return Value::Null();
  if (column == 1) {
    return Value::Text(std::string(1, "wxyz"[rng->Uniform(0, 3)]));
  }
  return Value::Int(rng->Uniform(0, column == 0 ? 9 : 20));
}

std::string Literal(const Value& v) {
  return v.type() == TypeId::kText ? "'" + v.AsString() + "'" : v.ToString();
}

RandomQuery MakeQuery(Random* rng) {
  static const char* kCols[] = {"a", "b", "c"};
  RandomQuery q;
  std::vector<std::string> preds;
  auto add = [&](int col, const char* op) {
    Value v = RandomCell(rng, col);
    while (v.is_null()) v = RandomCell(rng, col);
    if (rng->Chance(0.5)) {
      preds.push_back(std::string(kCols[col]) + " " + op + " " + Literal(v));
    } else {
      preds.push_back(std::string(kCols[col]) + " " + op + " ?");
      q.params.push_back(std::move(v));
    }
  };
  // An equality prefix of the (a, b) index, then a range on the next
  // column (c after a full prefix); or a range on c alone.
  int range_col = 2;
  if (rng->Chance(0.75)) {
    int prefix = static_cast<int>(rng->Uniform(0, 2));
    for (int col = 0; col < prefix; ++col) add(col, "=");
    range_col = prefix;
  }
  static const char* kLower[] = {">", ">="};
  static const char* kUpper[] = {"<", "<="};
  if (rng->Chance(0.6)) add(range_col, kLower[rng->Uniform(0, 1)]);
  if (rng->Chance(0.6)) add(range_col, kUpper[rng->Uniform(0, 1)]);
  // Sometimes a conjunct no index bound encodes.
  if (rng->Chance(0.15)) add(2, "=");
  for (size_t i = 0; i < preds.size(); ++i) {
    q.where += (i == 0 ? " WHERE " : " AND ") + preds[i];
  }
  return q;
}

TEST(CountPropertyTest, CountMatchesRowsOnIndexedAndUnindexedTables) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Random rng(seed);
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    for (const char* t : {"ti", "tu"}) {
      ASSERT_TRUE(db->Execute(std::string("CREATE TABLE ") + t +
                              " (a INT, b TEXT, c INT)")
                      .ok());
    }
    ASSERT_TRUE(db->Execute("CREATE INDEX ti_ab ON ti (a, b)").ok());
    ASSERT_TRUE(db->Execute("CREATE INDEX ti_c ON ti (c)").ok());
    for (int i = 0; i < 150; ++i) {
      Row row;
      for (int col = 0; col < 3; ++col) {
        row.push_back(RandomCell(&rng, col));
      }
      // Duplicates: every fifth row is inserted twice.
      int copies = i % 5 == 0 ? 2 : 1;
      for (int k = 0; k < copies; ++k) {
        for (const char* t : {"ti", "tu"}) {
          ASSERT_TRUE(db->ExecuteP(std::string("INSERT INTO ") + t +
                                       " VALUES (?, ?, ?)",
                                   row)
                          .ok());
        }
      }
    }
    for (int n = 0; n < 120; ++n) {
      RandomQuery q = MakeQuery(&rng);
      int64_t expected = RowCount(db.get(), "SELECT * FROM tu" + q.where,
                                  q.params);
      EXPECT_EQ(RowCount(db.get(), "SELECT * FROM ti" + q.where, q.params),
                expected)
          << "seed " << seed << ":" << q.where;
      EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*) FROM ti" + q.where,
                        q.params),
                expected)
          << "seed " << seed << ":" << q.where;
    }
  }
}

// ------------------------------------------------------ SQL-level shapes

class IndexCountSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenDb();
    ASSERT_NE(db_, nullptr);
    ASSERT_TRUE(db_->Execute("CREATE TABLE e (k INT, v INT, d DOUBLE, "
                             "s TEXT)")
                    .ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX e_k ON e (k)").ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX e_d ON e (d)").ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX e_s ON e (s)").ok());
    for (int i = 0; i < 40; ++i) {
      Value k = i % 7 == 0 ? Value::Null() : Value::Int(i % 10);
      ASSERT_TRUE(db_->ExecuteP("INSERT INTO e VALUES (?, ?, ?, ?)",
                                {k, Value::Int(i), Value::Double(i % 5 * 0.5),
                                 Value::Text(i % 2 == 0 ? "para" : "title")})
                      .ok());
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(IndexCountSqlTest, ExplainMarksOnlyTheEligibleShape) {
  for (const char* where : {"k = ?", "k >= 3 AND k < 7", "s = 'para'"}) {
    EXPECT_TRUE(ExplainsIndexOnly(
        db_.get(), std::string("SELECT COUNT(*) FROM e WHERE ") + where))
        << where;
  }
  auto plan = db_->Explain("SELECT COUNT(*) FROM e WHERE k = ?");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("index-only count on e_k"), std::string::npos) << *plan;

  for (const char* sql : {
           "SELECT COUNT(v) FROM e WHERE k = ?",
           "SELECT k, COUNT(*) FROM e WHERE k = ? GROUP BY k",
           "SELECT COUNT(*) FROM e WHERE k = ? AND v = 1",
           "SELECT COUNT(*) FROM e WHERE k > 1 AND k > 2",
           "SELECT COUNT(*) FROM e",
           "SELECT COUNT(*), SUM(v) FROM e WHERE k = 1",
       }) {
    EXPECT_FALSE(ExplainsIndexOnly(db_.get(), sql)) << sql;
  }
}

TEST_F(IndexCountSqlTest, EveryShapeAgreesWithTheRowPath) {
  struct Case {
    const char* where;
    Row params;
  };
  const std::vector<Case> cases = {
      {"k = ?", {Value::Int(3)}},
      {"k = 3", {}},
      {"k >= 3 AND k < 7", {}},
      {"k > ? AND k <= ?", {Value::Int(2), Value::Int(8)}},
      {"k < ?", {Value::Int(4)}},
      {"k = ? AND v = 13", {Value::Int(3)}},
      {"k > 1 AND k > 4", {}},
      {"d <= 1.0", {}},
      {"s = ?", {Value::Text("para")}},
  };
  for (const Case& c : cases) {
    std::string where = std::string(" FROM e WHERE ") + c.where;
    EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*)" + where, c.params),
              RowCount(db_.get(), "SELECT *" + where, c.params))
        << c.where;
  }
  auto twice = db_->Query("SELECT COUNT(*), COUNT(*) FROM e WHERE k = 3");
  ASSERT_TRUE(twice.ok()) << twice.status();
  ASSERT_EQ(twice->rows.size(), 1u);
  EXPECT_EQ(twice->rows[0][0].AsInt(), 4);
  EXPECT_EQ(twice->rows[0][1].AsInt(), 4);
}

TEST_F(IndexCountSqlTest, NullBindingCountsZeroWithoutScanning) {
  const std::string sql = "SELECT COUNT(*) FROM e WHERE k = ?";
  ASSERT_EQ(CountOf(db_.get(), sql, {Value::Int(3)}), 4);  // warm the cache
  uint64_t scanned = db_->stats()->rows_scanned;
  EXPECT_EQ(CountOf(db_.get(), sql, {Value::Null()}), 0);
  EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*) FROM e WHERE k < ?",
                    {Value::Null()}),
            0);
  EXPECT_EQ(db_->stats()->rows_scanned, scanned);
}

TEST_F(IndexCountSqlTest, OtherTypedBindingsGiveTheRowPathAnswer) {
  // A BLOB never equals a TEXT under Value::Compare; coercing the binding
  // into an index key would count the TEXT rows.
  const Row blob = {Value::Blob("para")};
  EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*) FROM e WHERE s = ?", blob),
            RowCount(db_.get(), "SELECT * FROM e WHERE s = ?", blob));
  EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*) FROM e WHERE s = ?",
                    {Value::Text("para")}),
            20);
  // An INT binding for a DOUBLE column.
  for (const char* where : {"d = ?", "d < ?", "d >= ?"}) {
    const Row one = {Value::Int(1)};
    std::string tail = std::string(" FROM e WHERE ") + where;
    int64_t rows = RowCount(db_.get(), "SELECT *" + tail, one);
    EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*)" + tail, one), rows) << where;
    EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*)" + tail,
                      {Value::Double(1.0)}),
              rows)
        << where;
  }
}

TEST_F(IndexCountSqlTest, CoercedLiteralsAgreeWithAnUnindexedCopy) {
  // `eu` holds e's rows without any index.
  ASSERT_TRUE(db_->Execute("CREATE TABLE eu (k INT, v INT, d DOUBLE, "
                           "s TEXT)")
                  .ok());
  auto rows = db_->Query("SELECT * FROM e");
  ASSERT_TRUE(rows.ok()) << rows.status();
  for (const Row& row : rows->rows) {
    ASSERT_TRUE(db_->ExecuteP("INSERT INTO eu VALUES (?, ?, ?, ?)", row).ok());
  }
  // x'70617261' is BLOB 'para' and x'7469746c65' BLOB 'title': a BLOB
  // never equals a TEXT and sorts after every TEXT, so coercing it into
  // an index key of the TEXT column s must not decide the answer. An INT
  // literal on the DOUBLE column d is coerced exactly.
  for (const char* where : {
           "s = x'70617261'",
           "s < x'70617261'",
           "s >= x'7469746c65'",
           "s > x'70617261' AND s <= x'7469746c65'",
           "d = 1",
           "d < 1",
           "d >= 1 AND d < 2",
           "k = 3 AND v >= 3",
       }) {
    std::string tail = std::string(" WHERE ") + where;
    int64_t expected = CountOf(db_.get(), "SELECT COUNT(*) FROM eu" + tail);
    EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*) FROM e" + tail), expected)
        << where;
    EXPECT_EQ(RowCount(db_.get(), "SELECT * FROM e" + tail), expected)
        << where;
  }
  // The same range shapes with a BLOB binding.
  for (const char* where : {"s < ?", "s >= ?"}) {
    const Row blob = {Value::Blob("para")};
    std::string tail = std::string(" WHERE ") + where;
    int64_t expected =
        CountOf(db_.get(), "SELECT COUNT(*) FROM eu" + tail, blob);
    EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*) FROM e" + tail, blob),
              expected)
        << where;
    EXPECT_EQ(RowCount(db_.get(), "SELECT * FROM e" + tail, blob), expected)
        << where;
  }
}

// Database::Insert stores values as SQL INSERT does: an INT in a DOUBLE
// column is stored as a DOUBLE, so its index key sorts among the DOUBLE
// keys. An incompatible kind is rejected and nothing is written.
TEST(InsertCoercionTest, ProgrammaticInsertCoercesLikeSql) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  for (const char* t : {"ti", "tu"}) {
    ASSERT_TRUE(
        db->Execute(std::string("CREATE TABLE ") + t + " (d DOUBLE, s TEXT)")
            .ok());
    ASSERT_TRUE(db->Insert(t, {Value::Int(2), Value::Blob("para")}).ok());
  }
  ASSERT_TRUE(db->Execute("CREATE INDEX ti_d ON ti (d)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX ti_s ON ti (s)").ok());
  ASSERT_TRUE(db->Insert("ti", {Value::Int(3), Value::Blob("para")}).ok());
  ASSERT_TRUE(db->Insert("tu", {Value::Int(3), Value::Blob("para")}).ok());
  for (const char* where : {"d >= 1.5", "d = 2", "d < 2.5", "s = 'para'"}) {
    std::string tail = std::string(" WHERE ") + where;
    int64_t expected = CountOf(db.get(), "SELECT COUNT(*) FROM tu" + tail);
    EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*) FROM ti" + tail), expected)
        << where;
    EXPECT_EQ(RowCount(db.get(), "SELECT * FROM ti" + tail), expected)
        << where;
  }
  EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*) FROM ti WHERE d >= 1.5"), 2);
  auto stored = db->Query("SELECT d, s FROM ti");
  ASSERT_TRUE(stored.ok()) << stored.status();
  for (const Row& row : stored->rows) {
    EXPECT_EQ(row[0].type(), TypeId::kDouble);
    EXPECT_EQ(row[1].type(), TypeId::kText);
  }

  // A TEXT value for the DOUBLE column: rejected, auto-commit or not.
  auto bad = db->Insert("ti", {Value::Text("x"), Value::Text("y")});
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  ASSERT_TRUE(db->Begin().ok());
  bad = db->Insert("ti", {Value::Double(1.0), Value::Int(7)});
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  ASSERT_TRUE(db->Commit().ok());
  EXPECT_EQ(RowCount(db.get(), "SELECT * FROM ti"), 2);
  EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*) FROM ti WHERE d >= 0.0"), 2);

  // A DOUBLE for an INT column truncates; one outside int64 has no INT.
  ASSERT_TRUE(db->Execute("CREATE TABLE n (i INT)").ok());
  ASSERT_TRUE(db->Insert("n", {Value::Double(2.7)}).ok());
  bad = db->Insert("n", {Value::Double(1e30)});
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  auto sql_bad =
      db->ExecuteP("INSERT INTO n VALUES (?)", {Value::Double(-1e30)});
  EXPECT_TRUE(sql_bad.status().IsInvalidArgument()) << sql_bad.status();
  EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*) FROM n WHERE i = 2"), 1);
  EXPECT_EQ(RowCount(db.get(), "SELECT * FROM n"), 1);
}

TEST_F(IndexCountSqlTest, ExpiredDeadlineIsReported) {
  QueryControl ctl;
  ctl.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  {
    ScopedQueryControl scope(&ctl);
    for (const char* where : {"k = 3", "k = 99"}) {
      auto rs =
          db_->Query(std::string("SELECT COUNT(*) FROM e WHERE ") + where);
      ASSERT_FALSE(rs.ok()) << where;
      EXPECT_TRUE(rs.status().IsDeadlineExceeded()) << rs.status();
    }
  }
  EXPECT_EQ(CountOf(db_.get(), "SELECT COUNT(*) FROM e WHERE k = 3"), 4);
}

TEST(IndexCountParallelTest, AppliesWithTheIntraQueryPool) {
  DatabaseOptions opts;
  opts.enable_parallel_execution = true;
  opts.num_threads = 2;
  opts.parallel_scan_min_rows = 0;
  auto db = OpenDb(opts);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->Execute("CREATE TABLE p (k INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX p_k ON p (k)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->ExecuteP("INSERT INTO p VALUES (?)",
                             {i % 9 == 0 ? Value::Null() : Value::Int(i)})
                    .ok());
  }
  for (const char* where : {"k < 50", "k >= 10 AND k < 20", "k = ?"}) {
    std::string tail = std::string(" FROM p WHERE ") + where;
    Row params;
    if (std::string(where).find('?') != std::string::npos) {
      params.push_back(Value::Int(40));
    }
    EXPECT_TRUE(ExplainsIndexOnly(db.get(), "SELECT COUNT(*)" + tail)) << where;
    EXPECT_EQ(CountOf(db.get(), "SELECT COUNT(*)" + tail, params),
              RowCount(db.get(), "SELECT *" + tail, params))
        << where;
  }
  // Without the count, the literal range still fans out.
  auto plan = db->Explain("SELECT k FROM p WHERE k < 50");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Parallel"), std::string::npos) << *plan;
}

// --------------------------------------------------------- on the stores

int64_t DomCount(const XmlNode& node, const std::string& tag) {
  int64_t n = node.is_element() && node.name() == tag ? 1 : 0;
  for (const auto& child : node.children()) n += DomCount(*child, tag);
  return n;
}

class IndexCountStoreTest : public ::testing::TestWithParam<OrderEncoding> {
 protected:
  void SetUp() override {
    NewsGeneratorOptions gen;
    gen.seed = 5;
    gen.sections = 12;
    gen.paragraphs_per_section = 6;
    doc_ = GenerateNewsXml(gen);
    db_ = OpenDb();
    ASSERT_NE(db_, nullptr);
    auto sr = OrderedXmlStore::Create(db_.get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok()) << sr.status();
    store_ = std::move(sr).value();
    ASSERT_TRUE(store_->LoadDocument(*doc_).ok());
    count_sql_ = "SELECT COUNT(*) FROM " + store_->table_name() +
                 " WHERE tag = ?";
    rows_sql_ = "SELECT * FROM " + store_->table_name() + " WHERE tag = ?";
  }

  std::unique_ptr<XmlDocument> doc_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<OrderedXmlStore> store_;
  std::string count_sql_;
  std::string rows_sql_;
};

TEST_P(IndexCountStoreTest, CountsMatchRowsAndDom) {
  EXPECT_TRUE(ExplainsIndexOnly(db_.get(), count_sql_));
  for (const char* tag : {"para", "title", "section", "no-such-tag"}) {
    int64_t dom = DomCount(*doc_->root(), tag);
    uint64_t scanned = db_->stats()->rows_scanned;
    EXPECT_EQ(CountOf(db_.get(), count_sql_, {Value::Text(tag)}), dom) << tag;
    // Index entries walked, each counted once; no heap row was fetched.
    EXPECT_EQ(db_->stats()->rows_scanned - scanned, static_cast<uint64_t>(dom))
        << tag;
    EXPECT_EQ(RowCount(db_.get(), rows_sql_, {Value::Text(tag)}), dom) << tag;
    std::string literal = "SELECT COUNT(*) FROM " + store_->table_name() +
                          " WHERE tag = '" + tag + "'";
    EXPECT_TRUE(ExplainsIndexOnly(db_.get(), literal));
    EXPECT_EQ(CountOf(db_.get(), literal), dom) << tag;
  }
}

TEST_P(IndexCountStoreTest, NullAndBlobBindings) {
  uint64_t scanned = db_->stats()->rows_scanned;
  EXPECT_EQ(CountOf(db_.get(), count_sql_, {Value::Null()}), 0);
  EXPECT_EQ(db_->stats()->rows_scanned, scanned);
  const Row blob = {Value::Blob("para")};
  EXPECT_EQ(CountOf(db_.get(), count_sql_, blob),
            RowCount(db_.get(), rows_sql_, blob));
}

TEST_P(IndexCountStoreTest, ExpiredDeadlineIsReported) {
  QueryControl ctl;
  ctl.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ScopedQueryControl scope(&ctl);
  auto rs = db_->QueryP(count_sql_, {Value::Text("para")});
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().IsDeadlineExceeded()) << rs.status();
}

// An open writer transaction inserts and deletes paragraphs: a reader on
// another thread counts the committed view, the owner counts its own.
TEST_P(IndexCountStoreTest, WriterTransactionViews) {
  const Row para = {Value::Text("para")};
  const int64_t committed = DomCount(*doc_->root(), "para");
  ASSERT_EQ(CountOf(db_.get(), count_sql_, para), committed);

  // Handles are re-read before every update: a Global insert may renumber.
  auto first = [&](const std::string& xpath) -> Result<StoredNode> {
    OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes,
                          EvaluateXPath(store_.get(), xpath));
    if (nodes.empty()) return Status::NotFound(xpath);
    return nodes[0];
  };
  ASSERT_TRUE(db_->Begin().ok());
  for (int i = 0; i < 2; ++i) {
    auto victim = first("/nitf/body/section[2]/para[1]");
    ASSERT_TRUE(victim.ok()) << victim.status();
    ASSERT_TRUE(store_->DeleteSubtree(*victim).ok());
  }
  auto fresh = XmlNode::Element("para");
  fresh->AppendChild(XmlNode::Text("inserted"));
  for (int i = 0; i < 5; ++i) {
    auto section = first("/nitf/body/section[" + std::to_string(i % 3 + 1) +
                         "]");
    ASSERT_TRUE(section.ok()) << section.status();
    ASSERT_TRUE(
        store_->InsertSubtree(*section, InsertPosition::kLastChild, *fresh)
            .ok());
  }
  const int64_t own = committed + 5 - 2;
  EXPECT_EQ(CountOf(db_.get(), count_sql_, para), own);
  EXPECT_EQ(RowCount(db_.get(), rows_sql_, para), own);

  int64_t seen_count = -1, seen_rows = -1;
  std::thread reader([&] {
    seen_count = CountOf(db_.get(), count_sql_, para);
    seen_rows = RowCount(db_.get(), rows_sql_, para);
  });
  reader.join();
  EXPECT_EQ(seen_count, committed);
  EXPECT_EQ(seen_rows, committed);

  ASSERT_TRUE(db_->Commit().ok());
  std::thread after([&] { seen_count = CountOf(db_.get(), count_sql_, para); });
  after.join();
  EXPECT_EQ(seen_count, own);
  EXPECT_TRUE(store_->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, IndexCountStoreTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

}  // namespace
}  // namespace oxml
