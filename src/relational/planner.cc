#include "src/relational/planner.h"

#include <algorithm>
#include <utility>

#include "src/relational/database.h"
#include "src/relational/parallel_ops.h"
#include "src/relational/thread_pool.h"

namespace oxml {

std::vector<ExprPtr> SplitConjuncts(ExprPtr expr) {
  std::vector<ExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind() == Expr::Kind::kBinary) {
    auto* bin = static_cast<BinaryExpr*>(expr.get());
    if (bin->op() == BinaryOp::kAnd) {
      std::vector<ExprPtr> left = SplitConjuncts(bin->TakeLeft());
      std::vector<ExprPtr> right = SplitConjuncts(bin->TakeRight());
      for (auto& e : left) out.push_back(std::move(e));
      for (auto& e : right) out.push_back(std::move(e));
      return out;
    }
  }
  out.push_back(std::move(expr));
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (auto& c : conjuncts) {
    if (out == nullptr) {
      out = std::move(c);
    } else {
      out = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(out),
                                         std::move(c));
    }
  }
  return out;
}

namespace {

/// A normalized sargable conjunct: <column> <op> <literal-or-parameter>.
struct Sarg {
  int column = -1;       // bound position in the (qualified) table schema
  BinaryOp op = BinaryOp::kEq;
  Value value;           // coerced literal value (literal sargs only)
  const Expr* value_expr = nullptr;  // the value side, borrowed
  bool is_param = false;
  bool coerced = false;  // the literal was converted to its column's type
  size_t conjunct_index = 0;
};

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kLt || op == BinaryOp::kLe ||
         op == BinaryOp::kGt || op == BinaryOp::kGe;
}

bool IsValueExpr(const Expr* e) {
  return e->kind() == Expr::Kind::kLiteral || e->kind() == Expr::Kind::kParam;
}

/// Extracts sargable conjuncts (already bound against the scan schema).
std::vector<Sarg> ExtractSargs(const Schema& schema,
                               const std::vector<Expr*>& conjuncts) {
  std::vector<Sarg> sargs;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Expr* e = conjuncts[i];
    if (e->kind() != Expr::Kind::kBinary) continue;
    const auto* bin = static_cast<const BinaryExpr*>(e);
    if (!IsComparison(bin->op())) continue;
    const Expr* l = bin->left();
    const Expr* r = bin->right();
    Sarg s;
    if (l->kind() == Expr::Kind::kColumn && IsValueExpr(r)) {
      s.column = static_cast<const ColumnExpr*>(l)->index();
      s.op = bin->op();
      s.value_expr = r;
    } else if (r->kind() == Expr::Kind::kColumn && IsValueExpr(l)) {
      s.column = static_cast<const ColumnExpr*>(r)->index();
      s.op = FlipComparison(bin->op());
      s.value_expr = l;
    } else {
      continue;
    }
    if (s.column < 0 || static_cast<size_t>(s.column) >= schema.size()) {
      continue;
    }
    if (s.value_expr->kind() == Expr::Kind::kParam) {
      // Parameter values are unknown until execution; bounds become dynamic.
      s.is_param = true;
    } else {
      s.value = static_cast<const LiteralExpr*>(s.value_expr)->value();
      if (s.value.is_null()) continue;  // col <op> NULL never matches
      TypeId written = s.value.type();
      if (!CoerceForColumn(schema.column(s.column).type, &s.value)) continue;
      s.coerced = s.value.type() != written;
      // TEXT and BLOB compare by type rank, not bytes, so a range against
      // a value of the other kind selects all rows or none: its coerced
      // key would narrow the scan wrongly. (Equality selects none, which
      // any range plus the residual filter reproduces.)
      if (s.coerced && s.op != BinaryOp::kEq &&
          s.value.type() != TypeId::kDouble) {
        continue;
      }
    }
    s.conjunct_index = i;
    sargs.push_back(std::move(s));
  }
  return sargs;
}

/// Builds an owning bound term from a sarg (cloning the value expression so
/// the scan operator can outlive the conjunct it came from). Cloned
/// ParamExprs share the original binding buffer, which is what lets a
/// cached plan see fresh bindings.
DynamicIndexBounds::Term MakeBoundTerm(const Sarg& s, TypeId column_type) {
  DynamicIndexBounds::Term term;
  term.column_type = column_type;
  if (s.is_param) {
    const auto* p = static_cast<const ParamExpr*>(s.value_expr);
    term.expr = std::make_unique<ParamExpr>(p->buffer(), p->index());
  } else {
    // The literal as written, not as coerced: ResolveIndexBounds then
    // reports the coercion, as it does for a parameter of another type.
    term.expr = std::make_unique<LiteralExpr>(
        static_cast<const LiteralExpr*>(s.value_expr)->value());
  }
  return term;
}

}  // namespace

AccessPath ChooseAccessPath(const TableInfo& table,
                            const std::vector<Expr*>& conjuncts) {
  std::vector<Sarg> sargs = ExtractSargs(table.schema(), conjuncts);
  AccessPath best;
  best.consumed.assign(conjuncts.size(), false);
  int best_score = 0;

  for (const auto& index : table.indexes()) {
    std::vector<const Sarg*> eq_sargs;
    int score = 0;
    const Sarg* range_lower = nullptr;
    const Sarg* range_upper = nullptr;

    for (int col : index->column_indices) {
      const Sarg* eq = nullptr;
      for (const Sarg& s : sargs) {
        if (s.column == col && s.op == BinaryOp::kEq) {
          eq = &s;
          break;
        }
      }
      if (eq != nullptr) {
        eq_sargs.push_back(eq);
        score += 2;
        continue;
      }
      // No equality on this column: consume at most one range pair here.
      for (const Sarg& s : sargs) {
        if (s.column != col) continue;
        if ((s.op == BinaryOp::kGt || s.op == BinaryOp::kGe) &&
            range_lower == nullptr) {
          range_lower = &s;
        } else if ((s.op == BinaryOp::kLt || s.op == BinaryOp::kLe) &&
                   range_upper == nullptr) {
          range_upper = &s;
        }
      }
      if (range_lower != nullptr || range_upper != nullptr) score += 1;
      break;
    }
    if (score <= best_score) continue;

    std::vector<const Sarg*> bound = eq_sargs;
    if (range_lower != nullptr) bound.push_back(range_lower);
    if (range_upper != nullptr) bound.push_back(range_upper);
    bool any_param = std::any_of(bound.begin(), bound.end(),
                                 [](const Sarg* s) { return s->is_param; });

    AccessPath path;
    path.index = index.get();
    path.consumed.assign(conjuncts.size(), false);
    path.eq_prefix = eq_sargs.size();
    // A coerced literal still narrows the range, but only the residual
    // filter gives its exact answer (see ResolvedIndexBounds::coerced).
    path.bound_conjuncts = std::count_if(
        bound.begin(), bound.end(), [](const Sarg* s) { return !s->coerced; });

    if (any_param) {
      // Defer bound encoding to execution time; leave `consumed` all-false
      // so the bound conjuncts stay in the residual filter (see AccessPath).
      const Schema& schema = table.schema();
      DynamicIndexBounds dyn;
      for (const Sarg* s : eq_sargs) {
        dyn.eq.push_back(MakeBoundTerm(*s, schema.column(s->column).type));
      }
      if (range_lower != nullptr) {
        dyn.lower = MakeBoundTerm(*range_lower,
                                  schema.column(range_lower->column).type);
        dyn.lower_inclusive = range_lower->op == BinaryOp::kGe;
      }
      if (range_upper != nullptr) {
        dyn.upper = MakeBoundTerm(*range_upper,
                                  schema.column(range_upper->column).type);
        dyn.upper_inclusive = range_upper->op == BinaryOp::kLe;
      }
      path.dynamic = std::move(dyn);
    } else {
      // All-literal bounds: encode eagerly.
      std::vector<Value> eq_prefix;
      for (const Sarg* s : eq_sargs) eq_prefix.push_back(s->value);
      for (const Sarg* s : bound) {
        if (!s->coerced) path.consumed[s->conjunct_index] = true;
      }
      ResolvedIndexBounds range = EncodeIndexRange(
          eq_prefix, range_lower != nullptr ? &range_lower->value : nullptr,
          range_lower != nullptr && range_lower->op == BinaryOp::kGe,
          range_upper != nullptr ? &range_upper->value : nullptr,
          range_upper != nullptr && range_upper->op == BinaryOp::kLe);
      path.lower = std::move(range.lower);
      path.upper = std::move(range.upper);
    }

    best = std::move(path);
    best_score = score;
  }
  return best;
}

TypeId InferType(const Expr& expr, const Schema& schema) {
  switch (expr.kind()) {
    case Expr::Kind::kLiteral: {
      TypeId t = static_cast<const LiteralExpr&>(expr).value().type();
      return t == TypeId::kNull ? TypeId::kText : t;
    }
    case Expr::Kind::kColumn: {
      const auto& col = static_cast<const ColumnExpr&>(expr);
      if (col.index() >= 0 && static_cast<size_t>(col.index()) < schema.size()) {
        return schema.column(col.index()).type;
      }
      int idx = schema.IndexOf(col.name());
      return idx >= 0 ? schema.column(idx).type : TypeId::kText;
    }
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      if (IsComparison(bin.op()) || bin.op() == BinaryOp::kAnd ||
          bin.op() == BinaryOp::kOr || bin.op() == BinaryOp::kLike) {
        return TypeId::kInt;
      }
      TypeId l = InferType(*bin.left(), schema);
      TypeId r = InferType(*bin.right(), schema);
      if (bin.op() == BinaryOp::kAdd && l == TypeId::kText) return TypeId::kText;
      if (l == TypeId::kDouble || r == TypeId::kDouble) return TypeId::kDouble;
      return TypeId::kInt;
    }
    case Expr::Kind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      if (un.op() == UnaryOp::kNeg) return InferType(*un.operand(), schema);
      return TypeId::kInt;
    }
    case Expr::Kind::kFunction: {
      const auto& fn = static_cast<const FunctionExpr&>(expr);
      switch (fn.aggregate()) {
        case AggregateKind::kCount:
          return TypeId::kInt;
        case AggregateKind::kAvg:
          return TypeId::kDouble;
        case AggregateKind::kSum:
        case AggregateKind::kMin:
        case AggregateKind::kMax:
          return fn.args().empty() ? TypeId::kInt
                                   : InferType(*fn.args()[0], schema);
        case AggregateKind::kNone:
          break;
      }
      if (fn.name() == "LENGTH") return TypeId::kInt;
      if (fn.name() == "SUCC" && !fn.args().empty()) {
        return InferType(*fn.args()[0], schema);
      }
      if (fn.name() == "PATH_PARENT") return TypeId::kBlob;
      if (fn.name() == "SUBSTR") return TypeId::kText;
      if (fn.name() == "ABS" && !fn.args().empty()) {
        return InferType(*fn.args()[0], schema);
      }
      return TypeId::kText;
    }
    case Expr::Kind::kStar:
      return TypeId::kInt;
    case Expr::Kind::kParam: {
      // Best effort: the type of the current binding, TEXT before any Bind.
      TypeId t = static_cast<const ParamExpr&>(expr).value().type();
      return t == TypeId::kNull ? TypeId::kText : t;
    }
  }
  return TypeId::kText;
}

namespace {

bool TryBind(Expr* e, const Schema& schema) { return e->Bind(schema).ok(); }

/// Builds the qualified scan schema for a table reference.
Schema QualifiedSchema(const TableInfo& table, const std::string& alias) {
  Schema out;
  out.Append(table.schema(), alias);
  return out;
}

/// True when the planner should emit parallel operators for this table:
/// the feature is on, a pool exists, and the table is big enough that
/// fan-out overhead pays for itself.
bool WantParallelScan(Database* db, const TableInfo& table) {
  return db->options().enable_parallel_execution &&
         db->thread_pool() != nullptr &&
         table.heap()->row_count() >=
             db->options().parallel_scan_min_rows;
}

/// Plans the access to one base table given the conjuncts that reference
/// only this table (already bound to `qualified`). Consumed conjuncts are
/// dropped; the rest become a Filter on top of the scan.
///
/// With a non-null `count_source`, the caller counts rows and nothing else.
/// When the index bounds encode every conjunct, the scan is a serial
/// IndexScanOp (whose CountRange() walks keys only) and is returned there;
/// otherwise it is set to null.
Result<OperatorPtr> PlanTableAccess(Database* db, TableInfo* table,
                                    Schema qualified,
                                    std::vector<ExprPtr> conjuncts,
                                    IndexScanOp** count_source = nullptr) {
  ExecStats* stats = db->stats();
  std::vector<Expr*> raw;
  raw.reserve(conjuncts.size());
  for (auto& c : conjuncts) raw.push_back(c.get());
  AccessPath path = ChooseAccessPath(*table, raw);
  bool index_only_count = count_source != nullptr && path.index != nullptr &&
                          path.bound_conjuncts == conjuncts.size();
  bool parallel = !index_only_count && WantParallelScan(db, *table);

  OperatorPtr scan;
  if (path.index != nullptr && path.dynamic.has_value()) {
    // Dynamic bounds resolve only at Open(); the selective probes they
    // serve would not benefit from splitting — stay serial.
    scan = std::make_unique<IndexScanOp>(table, path.index,
                                         std::move(qualified),
                                         std::move(*path.dynamic), stats);
  } else if (path.index != nullptr && parallel) {
    scan = std::make_unique<ParallelScanOp>(
        table, path.index, std::move(qualified), std::move(path.lower),
        std::move(path.upper), path.eq_prefix, db->thread_pool(), stats);
  } else if (path.index != nullptr) {
    scan = std::make_unique<IndexScanOp>(
        table, path.index, std::move(qualified), std::move(path.lower),
        std::move(path.upper), path.eq_prefix, stats);
  } else if (parallel) {
    scan = std::make_unique<ParallelScanOp>(table, std::move(qualified),
                                            db->thread_pool(), stats);
  } else {
    scan = std::make_unique<SeqScanOp>(table, std::move(qualified), stats);
  }
  if (count_source != nullptr) {
    *count_source =
        index_only_count ? static_cast<IndexScanOp*>(scan.get()) : nullptr;
  }

  std::vector<ExprPtr> residual;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (path.consumed.empty() || !path.consumed[i]) {
      residual.push_back(std::move(conjuncts[i]));
    }
  }
  ExprPtr filter = CombineConjuncts(std::move(residual));
  if (filter != nullptr) {
    OXML_RETURN_NOT_OK(filter->Bind(scan->schema()));
    scan = std::make_unique<FilterOp>(std::move(scan), std::move(filter));
  }
  return scan;
}

/// A detected interval-containment join pair: the inner table's "start"
/// column bounded below by one conjunct and above by another, both against
/// expressions over the already-joined tables.
struct IntervalJoin {
  size_t lower_conjunct = 0;
  size_t upper_conjunct = 0;
  bool lower_flipped = false;  // the column sat on the right-hand side
  bool upper_flipped = false;
  bool lower_strict = false;    // normalized lower op was '>' (vs '>=')
  bool upper_inclusive = false;  // normalized upper op was '<=' (vs '<')
};

/// Looks for the ancestor–descendant containment pattern the XPath
/// translator emits:
///   d.start > a.start AND d.start <= a.end          (Global regions)
///   d.path  > a.path  AND d.path  <  SUCC(a.path)   (Dewey prefix ranges)
/// The start column must be a bare column resolving only in the inner
/// table; the lower bound must be a bare column of the outer side (it
/// doubles as the merge key) and the upper bound any expression over the
/// outer side. Bind() calls mutate resolved positions during probing, which
/// is safe because every consumer re-binds expressions to its final input
/// schema before use.
bool DetectIntervalJoin(const std::vector<ExprPtr>& conjuncts,
                        const Schema& inner, const Schema& outer,
                        IntervalJoin* out) {
  struct Candidate {
    size_t conjunct = 0;
    bool flipped = false;
    bool strict = false;
    int start_col = -1;  // position in the inner schema
  };
  std::vector<Candidate> lowers, uppers;

  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    Expr* e = conjuncts[ci].get();
    if (e == nullptr || e->kind() != Expr::Kind::kBinary) continue;
    auto* bin = static_cast<BinaryExpr*>(e);
    BinaryOp op = bin->op();
    if (op != BinaryOp::kGt && op != BinaryOp::kGe && op != BinaryOp::kLt &&
        op != BinaryOp::kLe) {
      continue;
    }
    for (int flip = 0; flip < 2; ++flip) {
      Expr* col_side = flip ? bin->right() : bin->left();
      Expr* bound_side = flip ? bin->left() : bin->right();
      BinaryOp norm = flip ? FlipComparison(op) : op;
      if (col_side->kind() != Expr::Kind::kColumn) continue;
      bool is_lower = norm == BinaryOp::kGt || norm == BinaryOp::kGe;
      // The lower bound doubles as the ancestor-side sort key, so it must
      // be a bare column; the upper bound may be any outer expression
      // (SUCC(path) for Dewey).
      if (is_lower && bound_side->kind() != Expr::Kind::kColumn) continue;
      if (TryBind(col_side, outer)) continue;    // ambiguous or outer column
      if (!TryBind(col_side, inner)) continue;
      if (TryBind(bound_side, inner)) continue;  // not a cross-table bound
      if (!TryBind(bound_side, outer)) continue;
      Candidate c;
      c.conjunct = ci;
      c.flipped = flip != 0;
      c.strict = norm == BinaryOp::kGt || norm == BinaryOp::kLt;
      c.start_col = static_cast<ColumnExpr*>(col_side)->index();
      (is_lower ? lowers : uppers).push_back(c);
      break;
    }
  }

  for (const Candidate& lo : lowers) {
    for (const Candidate& up : uppers) {
      if (lo.start_col != up.start_col || lo.conjunct == up.conjunct) {
        continue;
      }
      out->lower_conjunct = lo.conjunct;
      out->upper_conjunct = up.conjunct;
      out->lower_flipped = lo.flipped;
      out->upper_flipped = up.flipped;
      out->lower_strict = lo.strict;
      out->upper_inclusive = !up.strict;
      return true;
    }
  }
  return false;
}

/// True when `plan` already emits rows in the requested order: every ORDER
/// BY expression is a resolved column and the plan's order property covers
/// the list as a prefix. Bumps the elision counter on success.
bool MaybeElideSort(Database* db, const Operator& plan,
                    const std::vector<ExprPtr>& order_exprs,
                    const std::vector<bool>& desc) {
  if (!db->options().enable_sort_elision) return false;
  std::vector<OrderKey> want;
  for (size_t i = 0; i < order_exprs.size(); ++i) {
    if (order_exprs[i]->kind() != Expr::Kind::kColumn) return false;
    int c = static_cast<const ColumnExpr*>(order_exprs[i].get())->index();
    if (c < 0) return false;
    want.push_back({c, desc[i]});
  }
  if (!OrderSatisfies(plan.output_order(), want)) return false;
  ++db->stats()->sorts_elided;
  return true;
}

/// True for `SELECT COUNT(*)[, COUNT(*) ...] FROM <one table>` with no
/// GROUP BY: the answer is the number of rows the WHERE clause selects.
bool IsCountStarOnly(const SelectStmt& stmt) {
  if (stmt.from.size() != 1 || !stmt.group_by.empty() || stmt.items.empty()) {
    return false;
  }
  for (const SelectItem& item : stmt.items) {
    if (item.expr == nullptr || item.expr->kind() != Expr::Kind::kFunction) {
      return false;
    }
    const auto* fn = static_cast<const FunctionExpr*>(item.expr.get());
    if (fn->aggregate() != AggregateKind::kCount ||
        (!fn->args().empty() && fn->args()[0]->kind() != Expr::Kind::kStar)) {
      return false;
    }
  }
  return true;
}

/// Wraps `op` in a sort on a single ascending column unless its reported
/// order already starts with that column (used to feed merge-based joins).
OperatorPtr EnsureSortedOn(OperatorPtr op, const std::string& column_name,
                           int column, ExecStats* stats) {
  if (OrderSatisfies(op->output_order(), {{column, false}})) return op;
  std::vector<ExprPtr> keys;
  keys.push_back(std::make_unique<ColumnExpr>(column_name, column));
  return std::make_unique<SortOp>(std::move(op), std::move(keys),
                                  std::vector<bool>{false}, stats);
}

}  // namespace

Result<OperatorPtr> PlanSelect(Database* db, SelectStmt* stmt) {
  if (stmt->from.empty()) {
    return Status::NotImplemented("SELECT without FROM");
  }

  // Resolve tables and build qualified schemas.
  std::vector<TableInfo*> tables;
  std::vector<Schema> qualified;
  for (const TableRef& ref : stmt->from) {
    TableInfo* t = db->GetTable(ref.table);
    if (t == nullptr) return Status::NotFound("no such table: " + ref.table);
    tables.push_back(t);
    qualified.push_back(QualifiedSchema(*t, ref.effective_alias()));
  }

  std::vector<ExprPtr> conjuncts = SplitConjuncts(std::move(stmt->where));

  // Claim single-table conjuncts for the first table.
  auto claim_for = [&conjuncts](const Schema& schema) {
    std::vector<ExprPtr> mine;
    for (auto& c : conjuncts) {
      if (c != nullptr && TryBind(c.get(), schema)) {
        mine.push_back(std::move(c));
      }
    }
    std::erase(conjuncts, nullptr);
    return mine;
  };

  OperatorPtr plan;
  IndexScanOp* count_source = nullptr;
  {
    std::vector<ExprPtr> mine = claim_for(qualified[0]);
    OXML_ASSIGN_OR_RETURN(
        plan, PlanTableAccess(db, tables[0], qualified[0], std::move(mine),
                              IsCountStarOnly(*stmt) ? &count_source
                                                     : nullptr));
  }
  Schema combined = qualified[0];

  for (size_t i = 1; i < tables.size(); ++i) {
    std::vector<ExprPtr> inner_conjuncts = claim_for(qualified[i]);

    // Structural join: a pair of interval-containment conjuncts (the
    // ancestor–descendant pattern from the XPath translator) beats any
    // generic join — one merge pass instead of |A|·|D| predicate checks.
    IntervalJoin ij;
    if (db->options().enable_structural_join &&
        DetectIntervalJoin(conjuncts, qualified[i], combined, &ij)) {
      auto* lbin = static_cast<BinaryExpr*>(conjuncts[ij.lower_conjunct].get());
      ExprPtr desc_start =
          ij.lower_flipped ? lbin->TakeRight() : lbin->TakeLeft();
      ExprPtr anc_start =
          ij.lower_flipped ? lbin->TakeLeft() : lbin->TakeRight();
      auto* ubin = static_cast<BinaryExpr*>(conjuncts[ij.upper_conjunct].get());
      ExprPtr anc_end = ij.upper_flipped ? ubin->TakeLeft() : ubin->TakeRight();
      conjuncts[ij.lower_conjunct] = nullptr;
      conjuncts[ij.upper_conjunct] = nullptr;
      std::erase(conjuncts, nullptr);

      OXML_ASSIGN_OR_RETURN(
          OperatorPtr inner,
          PlanTableAccess(db, tables[i], qualified[i],
                          std::move(inner_conjuncts)));
      OXML_RETURN_NOT_OK(anc_start->Bind(plan->schema()));
      OXML_RETURN_NOT_OK(anc_end->Bind(plan->schema()));
      OXML_RETURN_NOT_OK(desc_start->Bind(inner->schema()));

      // Both inputs must stream in interval-start order; sort a side only
      // when its reported order is insufficient (index scans over the
      // start column and chained structural joins already qualify).
      auto* anc_col = static_cast<ColumnExpr*>(anc_start.get());
      plan = EnsureSortedOn(std::move(plan), anc_col->name(),
                            anc_col->index(), db->stats());
      auto* desc_col = static_cast<ColumnExpr*>(desc_start.get());
      inner = EnsureSortedOn(std::move(inner), desc_col->name(),
                             desc_col->index(), db->stats());

      ThreadPool* pool = db->options().enable_parallel_execution
                             ? db->thread_pool()
                             : nullptr;
      plan = std::make_unique<StructuralJoinOp>(
          std::move(plan), std::move(inner), std::move(anc_start),
          std::move(anc_end), std::move(desc_start), ij.lower_strict,
          ij.upper_inclusive, pool, db->stats());
      combined.Append(qualified[i]);

      // Leftover conjuncts (e.g. the Dewey child-axis depth check) attach
      // below as ordinary filters over the combined schema.
      std::vector<ExprPtr> evaluable;
      for (auto& c : conjuncts) {
        if (c != nullptr && TryBind(c.get(), combined)) {
          evaluable.push_back(std::move(c));
        }
      }
      std::erase(conjuncts, nullptr);
      ExprPtr filter = CombineConjuncts(std::move(evaluable));
      if (filter != nullptr) {
        OXML_RETURN_NOT_OK(filter->Bind(plan->schema()));
        plan = std::make_unique<FilterOp>(std::move(plan), std::move(filter));
      }
      continue;
    }

    // Find an equi-join conjunct linking `combined` and table i.
    ExprPtr join_pred;
    ExprPtr outer_key;
    ExprPtr inner_key;
    for (auto& c : conjuncts) {
      if (c == nullptr || c->kind() != Expr::Kind::kBinary) continue;
      auto* bin = static_cast<BinaryExpr*>(c.get());
      if (bin->op() != BinaryOp::kEq) continue;
      Expr* l = bin->left();
      Expr* r = bin->right();
      if (l->kind() != Expr::Kind::kColumn ||
          r->kind() != Expr::Kind::kColumn) {
        continue;
      }
      bool l_outer = TryBind(l, combined);
      bool r_inner = TryBind(r, qualified[i]);
      if (l_outer && r_inner) {
        outer_key = bin->TakeLeft();
        inner_key = bin->TakeRight();
      } else {
        bool r_outer = TryBind(r, combined);
        bool l_inner = TryBind(l, qualified[i]);
        if (r_outer && l_inner) {
          outer_key = bin->TakeRight();
          inner_key = bin->TakeLeft();
        } else {
          continue;
        }
      }
      c = nullptr;
      break;
    }
    std::erase(conjuncts, nullptr);

    if (inner_key != nullptr) {
      // Prefer an index-nested-loop join when the inner column leads an
      // index and the inner side has no extra sargable filters to exploit.
      int inner_col =
          static_cast<ColumnExpr*>(inner_key.get())->index();
      TableIndex* inl_index = nullptr;
      for (const auto& idx : tables[i]->indexes()) {
        if (!idx->column_indices.empty() &&
            idx->column_indices[0] == inner_col) {
          inl_index = idx.get();
          break;
        }
      }
      if (inl_index != nullptr) {
        std::vector<ExprPtr> outer_keys;
        outer_keys.push_back(std::move(outer_key));
        plan = std::make_unique<IndexNestedLoopJoinOp>(
            std::move(plan), tables[i], inl_index, qualified[i],
            std::move(outer_keys), db->stats());
        combined.Append(qualified[i]);
        // Inner-side filters run on the joined rows.
        ExprPtr residual = CombineConjuncts(std::move(inner_conjuncts));
        if (residual != nullptr) {
          OXML_RETURN_NOT_OK(residual->Bind(plan->schema()));
          plan = std::make_unique<FilterOp>(std::move(plan),
                                            std::move(residual));
        }
      } else {
        OXML_ASSIGN_OR_RETURN(
            OperatorPtr inner,
            PlanTableAccess(db, tables[i], qualified[i],
                            std::move(inner_conjuncts)));
        std::vector<ExprPtr> lk, rk;
        lk.push_back(std::move(outer_key));
        rk.push_back(std::move(inner_key));
        // Rebind the inner key against the inner plan's schema.
        OXML_RETURN_NOT_OK(rk[0]->Bind(inner->schema()));
        OXML_RETURN_NOT_OK(lk[0]->Bind(plan->schema()));
        // When both inputs already stream in join-key order (e.g. index
        // scans with an equality prefix ending at the key), a merge join
        // avoids building the hash table.
        bool can_merge = db->options().enable_merge_join;
        if (can_merge) {
          int lcol = static_cast<ColumnExpr*>(lk[0].get())->index();
          int rcol = static_cast<ColumnExpr*>(rk[0].get())->index();
          can_merge =
              OrderSatisfies(plan->output_order(), {{lcol, false}}) &&
              OrderSatisfies(inner->output_order(), {{rcol, false}});
        }
        if (can_merge) {
          plan = std::make_unique<MergeJoinOp>(std::move(plan),
                                               std::move(inner), std::move(lk),
                                               std::move(rk), db->stats());
        } else {
          plan = std::make_unique<HashJoinOp>(std::move(plan),
                                              std::move(inner), std::move(lk),
                                              std::move(rk), db->stats());
        }
        combined.Append(qualified[i]);
      }
    } else {
      OXML_ASSIGN_OR_RETURN(
          OperatorPtr inner,
          PlanTableAccess(db, tables[i], qualified[i],
                          std::move(inner_conjuncts)));
      plan = std::make_unique<NestedLoopJoinOp>(
          std::move(plan), std::move(inner), nullptr, db->stats());
      combined.Append(qualified[i]);
    }

    // Attach any conjuncts now evaluable over the combined schema.
    std::vector<ExprPtr> evaluable;
    for (auto& c : conjuncts) {
      if (c != nullptr && TryBind(c.get(), combined)) {
        evaluable.push_back(std::move(c));
      }
    }
    std::erase(conjuncts, nullptr);
    ExprPtr filter = CombineConjuncts(std::move(evaluable));
    if (filter != nullptr) {
      OXML_RETURN_NOT_OK(filter->Bind(plan->schema()));
      plan = std::make_unique<FilterOp>(std::move(plan), std::move(filter));
    }
  }

  if (!conjuncts.empty()) {
    return Status::InvalidArgument("WHERE references unknown columns: " +
                                   conjuncts[0]->ToString());
  }

  // Aggregation.
  bool has_agg = !stmt->group_by.empty();
  for (const SelectItem& item : stmt->items) {
    if (item.expr != nullptr && item.expr->ContainsAggregate()) {
      has_agg = true;
    }
  }

  bool sort_after_projection = has_agg;

  if (!has_agg) {
    // Sort before projection so ORDER BY can reference scan columns that
    // are not in the output list.
    if (!stmt->order_by.empty()) {
      std::vector<ExprPtr> order_exprs;
      std::vector<bool> desc;
      for (OrderItem& o : stmt->order_by) {
        OXML_RETURN_NOT_OK(o.expr->Bind(plan->schema()));
        order_exprs.push_back(std::move(o.expr));
        desc.push_back(o.desc);
      }
      if (!MaybeElideSort(db, *plan, order_exprs, desc)) {
        plan = std::make_unique<SortOp>(std::move(plan),
                                        std::move(order_exprs),
                                        std::move(desc), db->stats());
      }
    }
    // Projection ('*' expands to all columns).
    std::vector<ExprPtr> exprs;
    std::vector<Column> out_cols;
    for (SelectItem& item : stmt->items) {
      if (item.expr == nullptr) {
        for (size_t c = 0; c < plan->schema().size(); ++c) {
          const Column& col = plan->schema().column(c);
          exprs.push_back(std::make_unique<ColumnExpr>(col.name,
                                                       static_cast<int>(c)));
          out_cols.push_back(col);
        }
        continue;
      }
      OXML_RETURN_NOT_OK(item.expr->Bind(plan->schema()));
      std::string name =
          item.alias.empty() ? item.expr->ToString() : item.alias;
      out_cols.push_back({name, InferType(*item.expr, plan->schema())});
      exprs.push_back(std::move(item.expr));
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(exprs),
                                       Schema(std::move(out_cols)));
  } else {
    // Aggregate plan: AggregateOp produces [group cols..., agg cols...],
    // then a projection maps select items onto those positions.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (ExprPtr& g : stmt->group_by) {
      OXML_RETURN_NOT_OK(g->Bind(plan->schema()));
      group_names.push_back(g->ToString());
      group_exprs.push_back(std::move(g));
    }

    std::vector<AggregateSpec> specs;
    std::vector<std::string> agg_names;
    struct ItemSlot {
      int position;  // index into AggregateOp output
      std::string out_name;
      TypeId type;
    };
    std::vector<ItemSlot> slots;

    for (SelectItem& item : stmt->items) {
      if (item.expr == nullptr) {
        return Status::InvalidArgument("'*' not allowed with aggregates");
      }
      std::string out_name =
          item.alias.empty() ? item.expr->ToString() : item.alias;
      if (item.expr->ContainsAggregate()) {
        if (item.expr->kind() != Expr::Kind::kFunction) {
          return Status::NotImplemented(
              "expressions over aggregates are not supported");
        }
        auto* fn = static_cast<FunctionExpr*>(item.expr.get());
        AggregateSpec spec;
        spec.kind = fn->aggregate();
        TypeId out_type = InferType(*fn, plan->schema());
        if (!fn->args().empty() &&
            fn->args()[0]->kind() != Expr::Kind::kStar) {
          OXML_RETURN_NOT_OK(item.expr->Bind(plan->schema()));
          spec.arg = std::move(fn->mutable_args()[0]);
        }
        slots.push_back({static_cast<int>(group_exprs.size() +
                                          specs.size()),
                         out_name, out_type});
        agg_names.push_back(out_name);
        specs.push_back(std::move(spec));
      } else {
        // Must match a GROUP BY expression.
        OXML_RETURN_NOT_OK(item.expr->Bind(plan->schema()));
        std::string repr = item.expr->ToString();
        int pos = -1;
        for (size_t g = 0; g < group_names.size(); ++g) {
          if (group_names[g] == repr) {
            pos = static_cast<int>(g);
            break;
          }
        }
        if (pos < 0) {
          return Status::InvalidArgument(
              "non-aggregate select item must appear in GROUP BY: " + repr);
        }
        slots.push_back({pos, out_name, InferType(*item.expr, plan->schema())});
      }
    }

    // AggregateOp output schema.
    std::vector<Column> agg_cols;
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      agg_cols.push_back({group_names[g],
                          InferType(*group_exprs[g], plan->schema())});
    }
    for (size_t a = 0; a < specs.size(); ++a) {
      agg_cols.push_back({agg_names[a], TypeId::kDouble});
    }
    plan = std::make_unique<AggregateOp>(
        std::move(plan), std::move(group_exprs), std::move(specs),
        Schema(std::move(agg_cols)), count_source);

    // Final projection.
    std::vector<ExprPtr> exprs;
    std::vector<Column> out_cols;
    for (const ItemSlot& slot : slots) {
      exprs.push_back(std::make_unique<ColumnExpr>(
          plan->schema().column(slot.position).name, slot.position));
      out_cols.push_back({slot.out_name, slot.type});
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(exprs),
                                       Schema(std::move(out_cols)));
  }

  if (stmt->distinct) {
    plan = std::make_unique<DistinctOp>(std::move(plan));
  }

  if (sort_after_projection && !stmt->order_by.empty()) {
    std::vector<ExprPtr> order_exprs;
    std::vector<bool> desc;
    for (OrderItem& o : stmt->order_by) {
      OXML_RETURN_NOT_OK(o.expr->Bind(plan->schema()));
      order_exprs.push_back(std::move(o.expr));
      desc.push_back(o.desc);
    }
    if (!MaybeElideSort(db, *plan, order_exprs, desc)) {
      plan = std::make_unique<SortOp>(std::move(plan), std::move(order_exprs),
                                      std::move(desc), db->stats());
    }
  }

  if (stmt->limit != nullptr) {
    plan = std::make_unique<LimitOp>(std::move(plan), std::move(stmt->limit));
  }
  return plan;
}

}  // namespace oxml
