#include "src/core/ordered_store.h"

#include <algorithm>
#include <limits>

#include "src/common/strings.h"
#include "src/core/stores.h"
#include "src/relational/thread_pool.h"

namespace oxml {

const char* OrderEncodingToString(OrderEncoding encoding) {
  switch (encoding) {
    case OrderEncoding::kGlobal:
      return "Global";
    case OrderEncoding::kLocal:
      return "Local";
    case OrderEncoding::kDewey:
      return "Dewey";
  }
  return "Unknown";
}

bool NodeTest::Matches(XmlNodeKind node_kind, const std::string& node_tag)
    const {
  switch (kind) {
    case Kind::kAnyElement:
      return node_kind == XmlNodeKind::kElement;
    case Kind::kTag:
      return node_kind == XmlNodeKind::kElement && node_tag == tag;
    case Kind::kText:
      return node_kind == XmlNodeKind::kText;
    case Kind::kAnyNode:
      return node_kind != XmlNodeKind::kAttribute;
  }
  return false;
}

std::string NodeTest::SqlCondition() const {
  switch (kind) {
    case Kind::kAnyElement:
      return "kind = " + IntLit(static_cast<int>(XmlNodeKind::kElement));
    case Kind::kTag:
      return "kind = " + IntLit(static_cast<int>(XmlNodeKind::kElement)) +
             " AND tag = " + SqlQuote(tag);
    case Kind::kText:
      return "kind = " + IntLit(static_cast<int>(XmlNodeKind::kText));
    case Kind::kAnyNode:
      return "kind <> " + IntLit(static_cast<int>(XmlNodeKind::kAttribute));
  }
  return "";
}

std::string NodeTest::SqlConditionP(Row* params) const {
  if (kind == Kind::kTag) {
    params->push_back(Value::Text(tag));
    return "kind = " + IntLit(static_cast<int>(XmlNodeKind::kElement)) +
           " AND tag = ?";
  }
  return SqlCondition();  // no tag => no variable part
}

Status AssembleByDepth(const std::vector<StoredNode>& nodes,
                       int64_t base_depth, XmlNode* root) {
  // stack[i] holds the open node at depth (base_depth + i - 1); stack[0] is
  // the container. A row at depth d attaches to stack[d - base_depth].
  std::vector<XmlNode*> stack{root};
  for (const StoredNode& n : nodes) {
    if (n.depth < base_depth) {
      return Status::Internal("inconsistent depth while reconstructing");
    }
    size_t level = static_cast<size_t>(n.depth - base_depth);
    if (level + 1 > stack.size()) {
      return Status::Internal("missing ancestor while reconstructing");
    }
    stack.resize(level + 1);
    XmlNode* parent = stack.back();
    switch (n.kind) {
      case XmlNodeKind::kAttribute:
        parent->SetAttribute(n.tag, n.value);
        break;
      case XmlNodeKind::kElement: {
        XmlNode* e = parent->AppendChild(XmlNode::Element(n.tag));
        stack.push_back(e);
        break;
      }
      case XmlNodeKind::kText:
        parent->AppendChild(XmlNode::Text(n.value));
        break;
      case XmlNodeKind::kComment:
        parent->AppendChild(XmlNode::Comment(n.value));
        break;
      case XmlNodeKind::kProcessingInstruction:
        parent->AppendChild(XmlNode::ProcessingInstruction(n.tag, n.value));
        break;
      case XmlNodeKind::kDocument:
        return Status::Internal("unexpected document row");
    }
  }
  return Status::OK();
}

std::string IntLit(int64_t v) { return std::to_string(v); }

std::string BlobLit(std::string_view bytes) {
  return "x'" + ToHex(bytes) + "'";
}

namespace {

std::unique_ptr<OrderedXmlStore> NewStore(Database* db,
                                          OrderEncoding encoding,
                                          const StoreOptions& options) {
  switch (encoding) {
    case OrderEncoding::kGlobal:
      return std::make_unique<GlobalStore>(db, options);
    case OrderEncoding::kLocal:
      return std::make_unique<LocalStore>(db, options);
    case OrderEncoding::kDewey:
      return std::make_unique<DeweyStore>(db, options);
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<OrderedXmlStore>> OrderedXmlStore::Create(
    Database* db, OrderEncoding encoding, const StoreOptions& options) {
  if (options.gap < 1) {
    return Status::InvalidArgument("gap must be >= 1");
  }
  std::unique_ptr<OrderedXmlStore> store = NewStore(db, encoding, options);
  OXML_RETURN_NOT_OK(
      static_cast<StoreBase*>(store.get())->CreateTableAndIndexes());
  return store;
}

Result<std::unique_ptr<OrderedXmlStore>> OrderedXmlStore::Attach(
    Database* db, OrderEncoding encoding, const StoreOptions& options) {
  if (options.gap < 1) {
    return Status::InvalidArgument("gap must be >= 1");
  }
  std::unique_ptr<OrderedXmlStore> store = NewStore(db, encoding, options);
  TableInfo* table = db->GetTable(options.table_name);
  if (table == nullptr) {
    return Status::NotFound("no node table '" + options.table_name +
                            "' in this database");
  }
  // Verify the table has this encoding's column layout.
  std::vector<std::string> want = Split(store->NodeColumns(), ',');
  if (table->schema().size() != want.size()) {
    return Status::InvalidArgument("table '" + options.table_name +
                                   "' does not match the " +
                                   std::string(OrderEncodingToString(
                                       encoding)) +
                                   " encoding schema");
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (table->schema().column(i).name != Trim(want[i])) {
      return Status::InvalidArgument(
          "table '" + options.table_name + "' column " + std::to_string(i) +
          " is '" + table->schema().column(i).name + "', expected '" +
          Trim(want[i]) + "'");
    }
  }
  OXML_RETURN_NOT_OK(
      static_cast<StoreBase*>(store.get())->InitializeExisting());
  return store;
}

Result<std::vector<StoredNode>> StoreBase::Select(const std::string& where,
                                                  Row params,
                                                  const std::string& order,
                                                  size_t limit) {
  std::string sql =
      std::string("SELECT ") + NodeColumns() + " FROM " + table_name();
  if (!where.empty()) sql += " WHERE " + where;
  if (!order.empty()) sql += " ORDER BY " + order;
  if (limit > 0) {
    sql += " LIMIT ?";
    params.push_back(Value::Int(static_cast<int64_t>(
        std::min<size_t>(limit, std::numeric_limits<int64_t>::max()))));
  }
  OXML_ASSIGN_OR_RETURN(ResultSet rs, SqlP(sql, std::move(params)));
  std::vector<StoredNode> out;
  out.reserve(rs.rows.size());
  for (const Row& row : rs.rows) out.push_back(NodeFromRow(row));
  return out;
}

Result<StoredNode> StoreBase::SelectFirst(const std::string& where,
                                          Row params,
                                          const std::string& order) {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes,
                        Select(where, std::move(params), order, 1));
  if (nodes.empty()) return Status::NotFound("no node matches: " + where);
  return nodes.front();
}

Result<ResultSet> OrderedXmlStore::Sql(const std::string& sql,
                                       UpdateStats* stats) {
  if (stats != nullptr) ++stats->statements;
  return db_->Query(sql);
}

Result<int64_t> OrderedXmlStore::Dml(const std::string& sql,
                                     UpdateStats* stats) {
  if (stats != nullptr) ++stats->statements;
  return db_->Execute(sql);
}

Result<ResultSet> OrderedXmlStore::SqlP(const std::string& sql, Row params,
                                        UpdateStats* stats) {
  if (stats != nullptr) ++stats->statements;
  // One-shot parameterized path: the plan cache dedupes by text and QueryP
  // carries the bindings per-execution, so concurrent readers of the same
  // store never clobber each other's parameters.
  return db_->QueryP(sql, std::move(params));
}

Result<int64_t> OrderedXmlStore::DmlP(const std::string& sql, Row params,
                                      UpdateStats* stats) {
  if (stats != nullptr) ++stats->statements;
  return db_->ExecuteP(sql, std::move(params));
}

Status OrderedXmlStore::LoadDocument(const XmlDocument& doc) {
  ThreadPool* pool = db_->load_pool();
  // A few units per worker keeps the morsel scheduler busy without
  // shredding the document into confetti.
  const size_t workers = pool != nullptr ? pool->size() + 1 : 1;
  std::vector<ShredUnit> units =
      PartitionDocument(doc, options_.gap, workers * 4);

  // Shred phase: pure CPU over the parsed DOM, deliberately outside the
  // exclusive statement latch so a long load does not block concurrent
  // readers of other tables. Per-worker runs come back sorted; the k-way
  // merge restores the exact document-order row stream.
  uint64_t runs = 0;
  uint64_t threads = 0;
  OXML_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      ParallelShredMerge(
          units,
          [this](const ShredUnit& u, std::vector<Row>* out) {
            return EmitUnitRows(u, out);
          },
          LoadKey(), pool, db_->options().load_run_bytes, &runs, &threads));

  // Install phase: one transaction through the bulk path (tail-extended
  // heap + bottom-up index builds); the WAL gets every dirtied page image
  // followed by a single commit record.
  TxnScope txn(db_);
  OXML_RETURN_NOT_OK(txn.begin_status());
  // Checked inside the transaction, where no other writer can fill the
  // table before the install: loading into a populated store would
  // interleave two documents' order keys.
  TableInfo* table = db_->GetTable(table_name());
  if (table != nullptr && table->heap()->row_count() != 0) {
    return Status::InvalidArgument("store '" + table_name() +
                                   "' already holds a document");
  }
  OXML_RETURN_NOT_OK(db_->BulkLoadRows(table_name(), rows).status());
  OXML_RETURN_NOT_OK(txn.Commit());

  // Load counters publish only after the install transaction commits: a
  // failed or rolled-back install loads nothing, and stats claiming
  // otherwise would misreport every fault-injected run.
  ExecStats* stats = db_->stats();
  stats->rows_shredded += rows.size();
  stats->runs_merged += runs;
  stats->load_threads_used.UpdateMax(threads);
  OnLoadComplete(rows.size());
  return Status::OK();
}

Result<UpdateStats> OrderedXmlStore::InsertSubtree(const StoredNode& ref,
                                                   InsertPosition pos,
                                                   const XmlNode& subtree) {
  TxnScope txn(db_);
  OXML_RETURN_NOT_OK(txn.begin_status());
  OXML_ASSIGN_OR_RETURN(UpdateStats stats, DoInsertSubtree(ref, pos, subtree));
  OXML_RETURN_NOT_OK(txn.Commit());
  return stats;
}

Result<UpdateStats> OrderedXmlStore::DeleteSubtree(const StoredNode& node) {
  TxnScope txn(db_);
  OXML_RETURN_NOT_OK(txn.begin_status());
  OXML_ASSIGN_OR_RETURN(UpdateStats stats, DoDeleteSubtree(node));
  OXML_RETURN_NOT_OK(txn.Commit());
  return stats;
}

Result<UpdateStats> OrderedXmlStore::UpdateNodeValue(
    const StoredNode& node, std::string_view new_value) {
  switch (node.kind) {
    case XmlNodeKind::kText:
    case XmlNodeKind::kComment:
    case XmlNodeKind::kProcessingInstruction:
    case XmlNodeKind::kAttribute:
      break;
    default:
      return Status::InvalidArgument(
          "only text/comment/PI/attribute nodes carry a value; element "
          "content lives in child text nodes");
  }
  UpdateStats stats;
  Row params;
  params.push_back(Value::Text(std::string(new_value)));
  std::string key_cond = KeyConditionP(node, &params);
  OXML_ASSIGN_OR_RETURN(
      int64_t changed,
      DmlP("UPDATE " + table_name() + " SET val = ? WHERE " + key_cond,
           std::move(params), &stats));
  if (changed == 0) return Status::NotFound("node row not found (stale?)");
  return stats;
}

Result<UpdateStats> OrderedXmlStore::UpdateAttributeValue(
    const StoredNode& element, std::string_view name,
    std::string_view new_value) {
  if (element.kind != XmlNodeKind::kElement) {
    return Status::InvalidArgument("attributes belong to elements");
  }
  TxnScope txn(db_);
  OXML_RETURN_NOT_OK(txn.begin_status());
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> attrs,
                        Attributes(element, name));
  if (attrs.empty()) {
    return Status::NotFound("element has no attribute '" +
                            std::string(name) + "'");
  }
  OXML_ASSIGN_OR_RETURN(UpdateStats stats, UpdateNodeValue(attrs[0], new_value));
  OXML_RETURN_NOT_OK(txn.Commit());
  return stats;
}

Result<UpdateStats> OrderedXmlStore::MoveSubtree(const StoredNode& source,
                                                 const StoredNode& ref,
                                                 InsertPosition pos) {
  OXML_ASSIGN_OR_RETURN(bool inside, IsDescendantOf(ref, source));
  if (inside) {
    return Status::InvalidArgument(
        "cannot move a subtree relative to one of its own descendants");
  }
  // The reference must also not BE the source for before/after moves onto
  // itself — a no-op we reject for clarity.
  if (KeyCondition(ref) == KeyCondition(source)) {
    return Status::InvalidArgument("move target equals the moved subtree");
  }
  OXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> subtree,
                        ReconstructSubtree(source));
  // One transaction around delete + insert: recovery can never land on the
  // intermediate state where the subtree has left its old position but not
  // yet arrived at the new one.
  TxnScope txn(db_);
  OXML_RETURN_NOT_OK(txn.begin_status());
  UpdateStats total;
  OXML_ASSIGN_OR_RETURN(UpdateStats del, DeleteSubtree(source));
  total.Add(del);
  // `ref` stays valid: it is outside the deleted subtree and deletes never
  // renumber under any encoding.
  OXML_ASSIGN_OR_RETURN(UpdateStats ins, InsertSubtree(ref, pos, *subtree));
  total.Add(ins);
  OXML_RETURN_NOT_OK(txn.Commit());
  return total;
}

Result<int64_t> OrderedXmlStore::NodeCount() {
  OXML_ASSIGN_OR_RETURN(
      ResultSet rs, Sql("SELECT COUNT(*) FROM " + table_name()));
  return rs.rows[0][0].AsInt();
}

Result<StoredNode> OrderedXmlStore::ChildAt(const StoredNode& parent,
                                            const NodeTest& test,
                                            size_t idx) {
  // Reads only the first idx + 1 matches; a shorter answer is every match,
  // so its size is still the true child count for the error.
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> kids,
                        Children(parent, test, idx + 1));
  if (idx >= kids.size()) {
    return Status::OutOfRange("child index " + std::to_string(idx) +
                              " out of range (" +
                              std::to_string(kids.size()) + " children)");
  }
  return kids[idx];
}

Result<StoredNode> OrderedXmlStore::NodeAtPath(
    const std::vector<size_t>& child_indexes) {
  OXML_ASSIGN_OR_RETURN(StoredNode node, Root());
  for (size_t idx : child_indexes) {
    OXML_ASSIGN_OR_RETURN(node, ChildAt(node, NodeTest::AnyNode(), idx));
  }
  return node;
}

}  // namespace oxml
