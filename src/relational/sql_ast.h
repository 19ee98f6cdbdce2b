#ifndef OXML_RELATIONAL_SQL_AST_H_
#define OXML_RELATIONAL_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/relational/expression.h"
#include "src/relational/schema.h"

namespace oxml {

/// Statement kinds of the supported SQL subset.
enum class StmtKind : uint8_t {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kDropTable,
};

struct Stmt {
  explicit Stmt(StmtKind kind) : kind(kind) {}
  virtual ~Stmt() = default;
  StmtKind kind;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// One item of a SELECT list: expression plus optional AS alias.
struct SelectItem {
  ExprPtr expr;        // null means bare '*'
  std::string alias;
};

/// A base table reference with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  // empty means use the table name

  const std::string& effective_alias() const {
    return alias.empty() ? table : alias;
  }
};

struct OrderItem {
  ExprPtr expr;
  bool desc = false;
};

struct SelectStmt : Stmt {
  SelectStmt() : Stmt(StmtKind::kSelect) {}
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                   // may be null
  std::vector<ExprPtr> group_by;   // empty = no grouping
  std::vector<OrderItem> order_by;
  ExprPtr limit;  // null = no LIMIT; an integer literal or a '?' marker
};

struct InsertStmt : Stmt {
  InsertStmt() : Stmt(StmtKind::kInsert) {}
  std::string table;
  std::vector<std::string> columns;  // empty = full-schema order
  std::vector<std::vector<ExprPtr>> rows;
};

struct UpdateStmt : Stmt {
  UpdateStmt() : Stmt(StmtKind::kUpdate) {}
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // may be null
};

struct DeleteStmt : Stmt {
  DeleteStmt() : Stmt(StmtKind::kDelete) {}
  std::string table;
  ExprPtr where;  // may be null
};

struct CreateTableStmt : Stmt {
  CreateTableStmt() : Stmt(StmtKind::kCreateTable) {}
  std::string table;
  std::vector<Column> columns;
};

struct CreateIndexStmt : Stmt {
  CreateIndexStmt() : Stmt(StmtKind::kCreateIndex) {}
  bool unique = false;
  std::string index;
  std::string table;
  std::vector<std::string> columns;
};

struct DropTableStmt : Stmt {
  DropTableStmt() : Stmt(StmtKind::kDropTable) {}
  std::string table;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_SQL_AST_H_
