#ifndef OXML_RELATIONAL_PLANNER_H_
#define OXML_RELATIONAL_PLANNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/catalog.h"
#include "src/relational/executor.h"
#include "src/relational/sql_ast.h"

namespace oxml {

class Database;

/// Splits an expression tree on top-level ANDs, taking ownership of the
/// conjuncts. A null input yields an empty list.
std::vector<ExprPtr> SplitConjuncts(ExprPtr expr);

/// Re-joins conjuncts with AND (returns null for an empty list).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// The access path chosen for one base table: either a sequential scan
/// (index == nullptr) or a B+tree range scan with encoded bounds.
/// `consumed` marks which of the candidate conjuncts are fully enforced by
/// the scan bounds (parallel to the candidate list passed in).
///
/// When a sargable conjunct compares against a '?' parameter, the bounds
/// cannot be encoded at plan time: `dynamic` then carries the value
/// expressions for the executor to resolve at Open(), lower/upper stay
/// unset, and `consumed` stays all-false (bound conjuncts are re-checked by
/// the residual filter, because a NULL binding degrades the scan to an
/// unbounded range).
struct AccessPath {
  TableIndex* index = nullptr;
  std::optional<std::string> lower;  // inclusive encoded key bound
  std::optional<std::string> upper;  // exclusive encoded key bound
  std::vector<bool> consumed;
  std::optional<DynamicIndexBounds> dynamic;
  /// Leading index columns pinned to one value by the bounds; the scan's
  /// output order is the index-column suffix past this prefix.
  size_t eq_prefix = 0;
  /// How many candidate conjuncts the bounds encode, static or dynamic.
  /// When it equals the candidate count, the index range holds exactly the
  /// rows the conjunction selects (for dynamic bounds: while every binding
  /// has its column's type, see ResolvedIndexBounds::coerced). A literal
  /// coerced to its column's type may narrow the range but is neither
  /// counted here nor consumed: the residual filter decides it.
  size_t bound_conjuncts = 0;
};

/// Rule-based access-path selection: picks the index that consumes the
/// longest equality prefix (plus at most one trailing range) among
/// `conjuncts`, which must already be bound against the table's (possibly
/// qualified) schema. Conjunct columns are matched to index columns by
/// bound position.
AccessPath ChooseAccessPath(const TableInfo& table,
                            const std::vector<Expr*>& conjuncts);

/// Plans a SELECT statement into an operator tree. The statement is
/// consumed (expressions are moved into the plan). The returned plan
/// borrows TableInfo pointers from `db`, which must outlive execution.
Result<OperatorPtr> PlanSelect(Database* db, SelectStmt* stmt);

/// Best-effort static type of a bound expression over `schema`.
TypeId InferType(const Expr& expr, const Schema& schema);

}  // namespace oxml

#endif  // OXML_RELATIONAL_PLANNER_H_
