// Operator-level tests of StructuralJoinOp, the one interval-containment
// join: seeded random ancestor and descendant sets over INT and BLOB keys
// (nested and overlapping intervals, equal starts, NULL starts and ends)
// under every lower/upper strictness, checked row for row and in order
// against a nested-loop-plus-filter reference, inline and on pools of 1, 2
// and 4 workers. Also the governance checks on both paths: an expired
// deadline and a tight statement memory budget abort the join.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/relational/executor.h"
#include "src/relational/query_control.h"
#include "src/relational/thread_pool.h"

namespace oxml {
namespace {

/// Yields a fixed list of rows.
class RowsOp : public Operator {
 public:
  RowsOp(Schema schema, std::vector<Row> rows) : rows_(std::move(rows)) {
    schema_ = std::move(schema);
  }
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* row) override {
    if (pos_ >= rows_.size()) return false;
    *row = rows_[pos_++];
    return true;
  }
  std::string Name() const override { return "Rows"; }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Ancestors are (a_id, a_start, a_end[, a_pad]), descendants
/// (d_id, d_start[, d_pad]); both lists sorted on their start.
struct JoinInput {
  TypeId key_type = TypeId::kInt;
  std::vector<Row> ancs;
  std::vector<Row> descs;
  bool padded = false;
};

Value RandomKey(Random* rng, TypeId type) {
  if (type == TypeId::kInt) return Value::Int(rng->Uniform(0, 60));
  // Short strings over a small alphabet: many equal starts and many
  // prefix (Dewey-like) containments.
  std::string s;
  int len = static_cast<int>(rng->Uniform(1, 3));
  for (int i = 0; i < len; ++i) s.push_back("abc"[rng->Uniform(0, 2)]);
  return Value::Blob(s);
}

/// An end for `start`: usually past it (a nested or overlapping interval),
/// sometimes an unrelated key (possibly before it: an empty interval).
Value RandomEnd(Random* rng, const Value& start, TypeId type) {
  if (start.is_null() || rng->Chance(0.2)) return RandomKey(rng, type);
  if (type == TypeId::kInt) {
    return Value::Int(start.AsInt() + rng->Uniform(0, 25));
  }
  return Value::Blob(start.AsString() + (rng->Chance(0.7) ? "\xff" : "b"));
}

void SortOnStart(std::vector<Row>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [](const Row& a, const Row& b) {
                     return a[1].Compare(b[1]) < 0;
                   });
}

JoinInput RandomInput(uint64_t seed, TypeId type) {
  Random rng(seed);
  JoinInput in;
  in.key_type = type;
  int64_t n_anc = rng.Uniform(0, 60);
  for (int64_t i = 0; i < n_anc; ++i) {
    Value start = rng.Chance(0.08) ? Value::Null() : RandomKey(&rng, type);
    Value end = rng.Chance(0.08) ? Value::Null() : RandomEnd(&rng, start, type);
    in.ancs.push_back({Value::Int(i), start, end});
  }
  int64_t n_desc = rng.Uniform(0, 80);
  for (int64_t i = 0; i < n_desc; ++i) {
    Value start = rng.Chance(0.08) ? Value::Null() : RandomKey(&rng, type);
    in.descs.push_back({Value::Int(i), start});
  }
  SortOnStart(&in.ancs);
  SortOnStart(&in.descs);
  return in;
}

Schema AncSchema(const JoinInput& in) {
  std::vector<Column> cols = {{"a_id", TypeId::kInt},
                              {"a_start", in.key_type},
                              {"a_end", in.key_type}};
  if (in.padded) cols.push_back({"a_pad", TypeId::kText});
  return Schema(std::move(cols));
}

Schema DescSchema(const JoinInput& in) {
  std::vector<Column> cols = {{"d_id", TypeId::kInt},
                              {"d_start", in.key_type}};
  if (in.padded) cols.push_back({"d_pad", TypeId::kText});
  return Schema(std::move(cols));
}

ExprPtr BoundColumn(const std::string& name, const Schema& schema) {
  auto col = std::make_unique<ColumnExpr>(name);
  EXPECT_TRUE(col->Bind(schema).ok()) << name;
  return col;
}

std::unique_ptr<StructuralJoinOp> MakeJoin(const JoinInput& in,
                                           bool lower_strict,
                                           bool upper_inclusive,
                                           ThreadPool* pool,
                                           ExecStats* stats = nullptr) {
  Schema anc_schema = AncSchema(in);
  Schema desc_schema = DescSchema(in);
  ExprPtr anc_start = BoundColumn("a_start", anc_schema);
  ExprPtr anc_end = BoundColumn("a_end", anc_schema);
  ExprPtr desc_start = BoundColumn("d_start", desc_schema);
  return std::make_unique<StructuralJoinOp>(
      std::make_unique<RowsOp>(std::move(anc_schema), in.ancs),
      std::make_unique<RowsOp>(std::move(desc_schema), in.descs),
      std::move(anc_start), std::move(anc_end), std::move(desc_start),
      lower_strict, upper_inclusive, pool, stats);
}

Result<std::vector<Row>> RunJoin(Operator* op) {
  std::vector<Row> out;
  Status st = op->Open();
  Row row;
  while (st.ok()) {
    Result<bool> has = op->Next(&row);
    if (!has.ok()) {
      st = has.status();
    } else if (!*has) {
      break;
    } else {
      out.push_back(row);
    }
  }
  op->Close();
  if (!st.ok()) return st;
  return out;
}

/// Every (ancestor, descendant) pair in descendant-then-ancestor input
/// order whose start satisfies the containment predicate.
std::vector<Row> NestedLoopReference(const JoinInput& in, bool lower_strict,
                                     bool upper_inclusive) {
  std::vector<Row> out;
  for (const Row& d : in.descs) {
    for (const Row& a : in.ancs) {
      const Value& s = d[1];
      if (s.is_null() || a[1].is_null() || a[2].is_null()) continue;
      int lo = s.Compare(a[1]);
      int hi = s.Compare(a[2]);
      if (lower_strict ? lo <= 0 : lo < 0) continue;
      if (upper_inclusive ? hi > 0 : hi >= 0) continue;
      Row joined = a;
      joined.insert(joined.end(), d.begin(), d.end());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

std::string RowsToString(const std::vector<Row>& rows) {
  std::string s;
  for (const Row& r : rows) {
    s += "(";
    for (size_t i = 0; i < r.size(); ++i) {
      if (i > 0) s += ",";
      s += r[i].is_null() ? "NULL" : r[i].ToString();
    }
    s += ")";
  }
  return s;
}

TEST(StructuralJoinOpTest, MatchesNestedLoopInlineAndPooled) {
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool4};
  size_t nonempty = 0;
  for (TypeId type : {TypeId::kInt, TypeId::kBlob}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      JoinInput in = RandomInput(seed, type);
      for (bool lower_strict : {false, true}) {
        for (bool upper_inclusive : {false, true}) {
          std::vector<Row> want =
              NestedLoopReference(in, lower_strict, upper_inclusive);
          if (!want.empty()) ++nonempty;
          for (ThreadPool* pool : pools) {
            auto op = MakeJoin(in, lower_strict, upper_inclusive, pool);
            auto got = RunJoin(op.get());
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(RowsToString(*got), RowsToString(want))
                << TypeIdToString(type) << " seed " << seed
                << " lower_strict " << lower_strict << " upper_inclusive "
                << upper_inclusive << " pool "
                << (pool == nullptr ? 0 : pool->size());
          }
        }
      }
    }
  }
  EXPECT_GT(nonempty, 100u);  // the inputs do produce matches
}

TEST(StructuralJoinOpTest, CountsPooledJoinsOnly) {
  ThreadPool pool(2);
  JoinInput in = RandomInput(7, TypeId::kInt);
  ExecStats stats;
  auto inline_op = MakeJoin(in, true, true, nullptr, &stats);
  ASSERT_TRUE(RunJoin(inline_op.get()).ok());
  EXPECT_EQ(stats.joins_structural, 1u);
  EXPECT_EQ(stats.parallel_joins, 0u);
  EXPECT_EQ(inline_op->Name().rfind("StructuralJoin(", 0), 0u);
  auto pooled_op = MakeJoin(in, true, true, &pool, &stats);
  ASSERT_TRUE(RunJoin(pooled_op.get()).ok());
  EXPECT_EQ(stats.joins_structural, 2u);
  EXPECT_EQ(stats.parallel_joins, 1u);
  EXPECT_EQ(pooled_op->Name().rfind("ParallelStructuralJoin(", 0), 0u);
}

/// Properly nested INT intervals [i*10, i*10+5] with 3 descendants each,
/// rows padded to ~100 bytes so budget charges accumulate quickly.
JoinInput PaddedInput() {
  JoinInput in;
  in.padded = true;
  std::string pad(100, 'x');
  for (int64_t i = 0; i < 400; ++i) {
    in.ancs.push_back({Value::Int(i), Value::Int(i * 10),
                       Value::Int(i * 10 + 5), Value::Text(pad)});
    for (int64_t k = 1; k <= 3; ++k) {
      in.descs.push_back(
          {Value::Int(i * 3 + k), Value::Int(i * 10 + k), Value::Text(pad)});
    }
  }
  return in;
}

TEST(StructuralJoinOpTest, ExpiredDeadlineAbortsInlineAndPooled) {
  ThreadPool pool(2);
  JoinInput in = PaddedInput();
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    QueryControl ctl;
    ctl.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(1));
    ScopedQueryControl scope(&ctl);
    auto op = MakeJoin(in, true, true, p);
    auto got = RunJoin(op.get());
    ASSERT_FALSE(got.ok()) << (p == nullptr ? "inline" : "pooled");
    EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status();
  }
}

TEST(StructuralJoinOpTest, TightBudgetAbortsAndLeavesNoReservation) {
  ThreadPool pool(2);
  JoinInput in = PaddedInput();
  // Without governance the join yields one row per descendant.
  {
    auto op = MakeJoin(in, true, true, nullptr);
    auto got = RunJoin(op.get());
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->size(), in.descs.size());
  }
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    MemoryBudget global;
    {
      const uint64_t cap = 48 * 1024;
      QueryControl ctl;
      ctl.SetMemoryLimits(cap, &global);
      ScopedQueryControl scope(&ctl);
      auto op = MakeJoin(in, true, true, p);
      auto got = RunJoin(op.get());
      ASSERT_FALSE(got.ok()) << (p == nullptr ? "inline" : "pooled");
      EXPECT_TRUE(got.status().IsResourceExhausted()) << got.status();
      EXPECT_LE(ctl.memory_used(), cap);
    }
    EXPECT_EQ(global.used.load(), 0u);
  }
}

}  // namespace
}  // namespace oxml
