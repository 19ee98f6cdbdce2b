// Unit tests for the SQL lexer, parser, expression evaluation, Value
// semantics and planner access-path selection.

#include <gtest/gtest.h>

#include <memory>

#include "src/relational/database.h"
#include "src/relational/expression.h"
#include "src/relational/key_codec.h"
#include "src/relational/planner.h"
#include "src/relational/sql_lexer.h"
#include "src/relational/sql_parser.h"

namespace oxml {
namespace {

// ------------------------------------------------------------------- lexer

TEST(SqlLexerTest, TokenKinds) {
  auto toks = LexSql("SELECT a, 42, 3.5, 'it''s', x'0aff' <= >= <> != ;");
  ASSERT_TRUE(toks.ok()) << toks.status();
  // 0:SELECT 1:a 2:, 3:42 4:, 5:3.5 6:, 7:str 8:, 9:blob 10:<= 11:>=
  // 12:<> 13:!= 14:; 15:EOF
  ASSERT_EQ(toks->size(), 16u);
  EXPECT_EQ((*toks)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ((*toks)[3].int_value, 42);
  EXPECT_EQ((*toks)[5].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*toks)[5].double_value, 3.5);
  EXPECT_EQ((*toks)[7].kind, TokenKind::kStringLiteral);
  EXPECT_EQ((*toks)[7].text, "it's");
  EXPECT_EQ((*toks)[9].kind, TokenKind::kBlobLiteral);
  EXPECT_EQ((*toks)[9].text, std::string("\x0a\xff", 2));
  EXPECT_EQ((*toks)[10].text, "<=");
  EXPECT_EQ((*toks)[11].text, ">=");
  EXPECT_EQ((*toks)[12].text, "<>");
  EXPECT_EQ((*toks)[13].text, "!=");
  EXPECT_EQ((*toks)[15].kind, TokenKind::kEnd);
}

TEST(SqlLexerTest, CommentsAndWhitespace) {
  auto toks = LexSql("SELECT -- a comment\n 1");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 3u);  // SELECT, 1, EOF
  EXPECT_EQ((*toks)[1].int_value, 1);
}

TEST(SqlLexerTest, Errors) {
  EXPECT_FALSE(LexSql("SELECT 'unterminated").ok());
  EXPECT_FALSE(LexSql("SELECT x'zz'").ok());
  EXPECT_FALSE(LexSql("SELECT #").ok());
}

TEST(SqlLexerTest, ScientificNotation) {
  auto toks = LexSql("1e3 2.5E-2");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*toks)[0].double_value, 1000.0);
  EXPECT_DOUBLE_EQ((*toks)[1].double_value, 0.025);
}

// ------------------------------------------------------------------ parser

TEST(SqlParserTest, SelectClauses) {
  auto stmt = ParseSql(
      "SELECT DISTINCT a, b + 1 AS c FROM t1 x, t2 WHERE a = 1 "
      "GROUP BY a ORDER BY a DESC, c LIMIT 7");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  auto* sel = static_cast<SelectStmt*>(stmt->get());
  EXPECT_TRUE(sel->distinct);
  ASSERT_EQ(sel->items.size(), 2u);
  EXPECT_EQ(sel->items[1].alias, "c");
  ASSERT_EQ(sel->from.size(), 2u);
  EXPECT_EQ(sel->from[0].effective_alias(), "x");
  EXPECT_EQ(sel->from[1].effective_alias(), "t2");
  ASSERT_NE(sel->where, nullptr);
  ASSERT_EQ(sel->group_by.size(), 1u);
  ASSERT_EQ(sel->order_by.size(), 2u);
  EXPECT_TRUE(sel->order_by[0].desc);
  EXPECT_FALSE(sel->order_by[1].desc);
  ASSERT_NE(sel->limit, nullptr);
  EXPECT_EQ(sel->limit->ToString(), "7");
}

TEST(SqlParserTest, OperatorPrecedence) {
  auto stmt = ParseSql("SELECT 1 FROM t WHERE a + 2 * 3 = 7 AND NOT b OR c");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  auto* sel = static_cast<SelectStmt*>(stmt->get());
  // Top node must be OR.
  ASSERT_EQ(sel->where->kind(), Expr::Kind::kBinary);
  EXPECT_EQ(static_cast<BinaryExpr*>(sel->where.get())->op(), BinaryOp::kOr);
  EXPECT_EQ(sel->where->ToString(),
            "((((a + (2 * 3)) = 7) AND (NOT b)) OR c)");
}

TEST(SqlParserTest, InsertForms) {
  auto stmt = ParseSql("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(stmt.ok());
  auto* ins = static_cast<InsertStmt*>(stmt->get());
  EXPECT_TRUE(ins->columns.empty());
  EXPECT_EQ(ins->rows.size(), 2u);

  stmt = ParseSql("INSERT INTO t (a, b) VALUES (1, 2)");
  ASSERT_TRUE(stmt.ok());
  ins = static_cast<InsertStmt*>(stmt->get());
  EXPECT_EQ(ins->columns, (std::vector<std::string>{"a", "b"}));
}

TEST(SqlParserTest, UpdateDeleteDdl) {
  auto stmt = ParseSql("UPDATE t SET a = a + 1, b = 'z' WHERE c < 3");
  ASSERT_TRUE(stmt.ok());
  auto* upd = static_cast<UpdateStmt*>(stmt->get());
  EXPECT_EQ(upd->assignments.size(), 2u);

  stmt = ParseSql("DELETE FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->kind, StmtKind::kDelete);

  stmt = ParseSql("CREATE TABLE t (a INT, b VARCHAR(10), c DOUBLE, d BLOB)");
  ASSERT_TRUE(stmt.ok());
  auto* ct = static_cast<CreateTableStmt*>(stmt->get());
  ASSERT_EQ(ct->columns.size(), 4u);
  EXPECT_EQ(ct->columns[1].type, TypeId::kText);
  EXPECT_EQ(ct->columns[3].type, TypeId::kBlob);

  stmt = ParseSql("CREATE UNIQUE INDEX i ON t (a, b)");
  ASSERT_TRUE(stmt.ok());
  auto* ci = static_cast<CreateIndexStmt*>(stmt->get());
  EXPECT_TRUE(ci->unique);
  EXPECT_EQ(ci->columns.size(), 2u);
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseSql("select 1 from t where a like 'x%'").ok());
  EXPECT_TRUE(ParseSql("SeLeCt 1 FrOm t").ok());
}

TEST(SqlParserTest, RejectsTrailingTokens) {
  EXPECT_FALSE(ParseSql("SELECT 1 FROM t garbage garbage").ok());
  EXPECT_FALSE(ParseSql("SELECT 1 FROM t; SELECT 2 FROM t").ok());
}

// -------------------------------------------------------------- expressions

class ExprEvalTest : public ::testing::Test {
 protected:
  /// Parses `expr_sql`, binds it against (a INT, b TEXT, d DOUBLE) and
  /// evaluates on the given row.
  Result<Value> Eval(const std::string& expr_sql, Row row) {
    auto stmt = ParseSql("SELECT " + expr_sql + " FROM t");
    if (!stmt.ok()) return stmt.status();
    auto* sel = static_cast<SelectStmt*>(stmt->get());
    Expr* e = sel->items[0].expr.get();
    Schema schema({{"a", TypeId::kInt},
                   {"b", TypeId::kText},
                   {"d", TypeId::kDouble}});
    OXML_RETURN_NOT_OK(e->Bind(schema));
    return e->Eval(row);
  }

  Row row_{Value::Int(6), Value::Text("hello"), Value::Double(2.5)};
};

TEST_F(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("a + 2", row_)->AsInt(), 8);
  EXPECT_EQ(Eval("a * a - 1", row_)->AsInt(), 35);
  EXPECT_EQ(Eval("a / 4", row_)->AsInt(), 1);       // integer division
  EXPECT_EQ(Eval("a % 4", row_)->AsInt(), 2);
  EXPECT_DOUBLE_EQ(Eval("a + d", row_)->AsDouble(), 8.5);
  EXPECT_DOUBLE_EQ(Eval("d / 2", row_)->AsDouble(), 1.25);
  EXPECT_FALSE(Eval("a / 0", row_).ok());
  EXPECT_FALSE(Eval("a % 0", row_).ok());
}

TEST_F(ExprEvalTest, TextConcatViaPlus) {
  EXPECT_EQ(Eval("b + '!'", row_)->AsString(), "hello!");
  EXPECT_FALSE(Eval("b * 2", row_).ok());
}

TEST_F(ExprEvalTest, ComparisonsAndLogic) {
  EXPECT_EQ(Eval("a > 5 AND d < 3", row_)->AsInt(), 1);
  EXPECT_EQ(Eval("a > 5 AND d > 3", row_)->AsInt(), 0);
  EXPECT_EQ(Eval("a < 5 OR b = 'hello'", row_)->AsInt(), 1);
  EXPECT_EQ(Eval("NOT (a = 6)", row_)->AsInt(), 0);
  // Cross-type numeric comparison.
  EXPECT_EQ(Eval("a > d", row_)->AsInt(), 1);
}

TEST_F(ExprEvalTest, NullPropagation) {
  Row with_null{Value::Null(), Value::Text("x"), Value::Double(1)};
  EXPECT_TRUE(Eval("a + 1", with_null)->is_null());
  EXPECT_TRUE(Eval("a = 0", with_null)->is_null());
  EXPECT_EQ(Eval("a IS NULL", with_null)->AsInt(), 1);
  EXPECT_EQ(Eval("a IS NOT NULL", with_null)->AsInt(), 0);
  // Three-valued logic: NULL AND false = false; NULL OR true = true.
  EXPECT_EQ(Eval("a > 0 AND 1 = 2", with_null)->AsInt(), 0);
  EXPECT_EQ(Eval("a > 0 OR 1 = 1", with_null)->AsInt(), 1);
  EXPECT_TRUE(Eval("a > 0 OR 1 = 2", with_null)->is_null());
}

TEST_F(ExprEvalTest, Functions) {
  EXPECT_EQ(Eval("LENGTH(b)", row_)->AsInt(), 5);
  EXPECT_EQ(Eval("SUBSTR(b, 2, 3)", row_)->AsString(), "ell");
  EXPECT_EQ(Eval("ABS(0 - a)", row_)->AsInt(), 6);
  EXPECT_EQ(Eval("SUCC(b)", row_)->AsString(), std::string("hello\xFF"));
  EXPECT_FALSE(Eval("NOPE(b)", row_).ok());
  EXPECT_FALSE(Eval("LENGTH(b, b)", row_).ok());
}

TEST_F(ExprEvalTest, LikePatterns) {
  EXPECT_EQ(Eval("b LIKE 'hel%'", row_)->AsInt(), 1);
  EXPECT_EQ(Eval("b LIKE '%llo'", row_)->AsInt(), 1);
  EXPECT_EQ(Eval("b LIKE 'h_llo'", row_)->AsInt(), 1);
  EXPECT_EQ(Eval("b LIKE 'h_l'", row_)->AsInt(), 0);
  EXPECT_EQ(Eval("b NOT LIKE 'z%'", row_)->AsInt(), 1);
  EXPECT_EQ(Eval("b LIKE '%'", row_)->AsInt(), 1);
}

TEST(LikeMatchTest, EdgeCases) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%%%"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("ab", "a%bc"));
}

// ------------------------------------------------------------------ values

TEST(ValueTest, CompareSemantics) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Text("a").Compare(Value::Text("b")), 0);
  // Cross-kind (numeric vs text) ordering is by type id, never equal.
  EXPECT_NE(Value::Int(0).Compare(Value::Text("0")), 0);
}

TEST(ValueTest, TruthinessAndDisplay) {
  EXPECT_TRUE(Value::Int(2).IsTruthy());
  EXPECT_FALSE(Value::Int(0).IsTruthy());
  EXPECT_FALSE(Value::Null().IsTruthy());
  EXPECT_TRUE(Value::Text("x").IsTruthy());
  EXPECT_FALSE(Value::Text("").IsTruthy());
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Blob(std::string("\x01\xAB", 2)).ToString(), "x'01ab'");
}

TEST(ValueTest, NumericHashConsistency) {
  // 3 and 3.0 compare equal, so they must hash equal (hash join keys).
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

// ----------------------------------------------------------------- planner

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dbr = Database::Open();
    ASSERT_TRUE(dbr.ok());
    db_ = std::move(dbr).value();
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INT, b INT, c TEXT)").ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX t_ab ON t (a, b)").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_
                      ->Execute("INSERT INTO t VALUES (" +
                                std::to_string(i % 10) + ", " +
                                std::to_string(i) + ", 'r" +
                                std::to_string(i) + "')")
                      .ok());
    }
  }

  std::string Plan(const std::string& sql) {
    auto p = db_->Explain(sql);
    EXPECT_TRUE(p.ok()) << p.status();
    return p.ok() ? *p : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, EqualityUsesIndex) {
  EXPECT_NE(Plan("SELECT * FROM t WHERE a = 3").find("IndexScan"),
            std::string::npos);
}

TEST_F(PlannerTest, EqualityPlusRangeUsesCompositeIndex) {
  std::string plan = Plan("SELECT * FROM t WHERE a = 3 AND b >= 10");
  EXPECT_NE(plan.find("IndexScan(t.t_ab range)"), std::string::npos) << plan;
  // Both conjuncts consumed: no residual filter.
  EXPECT_EQ(plan.find("Filter"), std::string::npos) << plan;
}

TEST_F(PlannerTest, NonLeadingColumnFallsBackToSeqScan) {
  std::string plan = Plan("SELECT * FROM t WHERE b = 5");
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ReversedOperandsStillSargable) {
  std::string plan = Plan("SELECT * FROM t WHERE 3 = a");
  EXPECT_NE(plan.find("IndexScan"), std::string::npos) << plan;
  auto rs = db_->Query("SELECT COUNT(*) FROM t WHERE 3 = a");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 10);
}

TEST_F(PlannerTest, IndexScanAndSeqScanAgree) {
  auto indexed =
      db_->Query("SELECT b FROM t WHERE a = 7 AND b > 20 ORDER BY b");
  ASSERT_TRUE(indexed.ok());
  auto scanned = db_->Query(
      "SELECT b FROM t WHERE a + 0 = 7 AND b > 20 ORDER BY b");
  ASSERT_TRUE(scanned.ok());  // a + 0 = 7 is not sargable -> seq scan
  ASSERT_EQ(indexed->rows.size(), scanned->rows.size());
  for (size_t i = 0; i < indexed->rows.size(); ++i) {
    EXPECT_EQ(indexed->rows[i][0].AsInt(), scanned->rows[i][0].AsInt());
  }
}

TEST_F(PlannerTest, SplitAndCombineConjuncts) {
  auto stmt = ParseSql("SELECT 1 FROM t WHERE a = 1 AND b = 2 AND c = 'x'");
  ASSERT_TRUE(stmt.ok());
  auto* sel = static_cast<SelectStmt*>(stmt->get());
  std::vector<ExprPtr> parts = SplitConjuncts(std::move(sel->where));
  EXPECT_EQ(parts.size(), 3u);
  ExprPtr back = CombineConjuncts(std::move(parts));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->ToString(), "(((a = 1) AND (b = 2)) AND (c = 'x'))");
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST_F(PlannerTest, LossyCoercionIsNotSargable) {
  // 3.5 cannot be losslessly coerced to INT: must not use the index bounds
  // (which would be wrong), but the query must still answer correctly.
  std::string plan = Plan("SELECT * FROM t WHERE a = 3.5");
  EXPECT_EQ(plan.find("IndexScan(t.t_ab"), std::string::npos) << plan;
  auto rs = db_->Query("SELECT COUNT(*) FROM t WHERE a = 3.5");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 0);
  rs = db_->Query("SELECT COUNT(*) FROM t WHERE a > 3.5");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 60);  // a in {4..9}, 10 rows each
}

}  // namespace
}  // namespace oxml
