#include <algorithm>
#include <set>

#include "src/common/strings.h"
#include "src/core/stores.h"

namespace oxml {

namespace {

constexpr const char* kCols = "path, depth, kind, tag, val";

StoredNode FromDeweyRow(const Row& row) {
  StoredNode n;
  n.path = row[0].AsString();
  n.depth = row[1].AsInt();
  n.kind = static_cast<XmlNodeKind>(row[2].AsInt());
  n.tag = row[3].AsString();
  n.value = row[4].is_null() ? "" : row[4].AsString();
  return n;
}

/// Last ordinal component of a stored node's path.
Result<int64_t> LastComponent(const StoredNode& node) {
  OXML_ASSIGN_OR_RETURN(DeweyKey key, DeweyKey::Decode(node.path));
  return key.last();
}

}  // namespace

const char* DeweyStore::NodeColumns() const { return kCols; }

StoredNode DeweyStore::NodeFromRow(const Row& row) const {
  return FromDeweyRow(row);
}

// Index column order doubles as a sort-order claim the planner exploits:
// (tag, path) means "an equality probe on tag yields rows in path order",
// and encoded Dewey paths compare in document order — so tag scans feed
// structural joins pre-sorted and the translator's ORDER BY path elides.
Status DeweyStore::CreateTableAndIndexes() {
  const std::string& t = table_name();
  OXML_RETURN_NOT_OK(db_->Execute("CREATE TABLE " + t +
                                  " (path BLOB, depth INT, kind INT,"
                                  " tag TEXT, val TEXT)")
                         .status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_path ON " + t + " (path)")
          .status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_tag ON " + t + " (tag, path)")
          .status());
  return Status::OK();
}

void DeweyStore::ShredInto(const XmlNode& node, const DeweyKey& key,
                           std::vector<Row>* rows) {
  rows->push_back(Row{Value::Blob(key.Encode()),
                      Value::Int(static_cast<int64_t>(key.depth())),
                      Value::Int(static_cast<int64_t>(node.kind())),
                      Value::Text(node.name()), Value::Text(node.value())});
  int64_t comp = 0;
  for (const XmlAttribute& attr : node.attributes()) {
    comp += options_.gap;
    DeweyKey akey = key.Child(comp);
    rows->push_back(
        Row{Value::Blob(akey.Encode()),
            Value::Int(static_cast<int64_t>(akey.depth())),
            Value::Int(static_cast<int64_t>(XmlNodeKind::kAttribute)),
            Value::Text(attr.name), Value::Text(attr.value)});
  }
  for (const auto& child : node.children()) {
    comp += options_.gap;
    ShredInto(*child, key.Child(comp), rows);
  }
}

Status DeweyStore::BulkInsert(const std::vector<Row>& rows,
                              UpdateStats* stats) {
  OXML_ASSIGN_OR_RETURN(
      PreparedStatement ins,
      db_->Prepare("INSERT INTO " + table_name() + " (" + kCols +
                   ") VALUES (?, ?, ?, ?, ?)"));
  OXML_RETURN_NOT_OK(ins.ExecuteBatch(rows).status());
  if (stats != nullptr) {
    ++stats->statements;
    stats->nodes_inserted += static_cast<int64_t>(rows.size());
  }
  return Status::OK();
}

Status DeweyStore::EmitUnitRows(const ShredUnit& u, std::vector<Row>* rows) {
  // The partitioner carried this node's full Dewey key down the descent;
  // everything below just extends it exactly like ShredInto does.
  OXML_ASSIGN_OR_RETURN(DeweyKey key, DeweyKey::Decode(u.dewey_path));
  if (u.whole_subtree) {
    ShredInto(*u.node, key, rows);
    return Status::OK();
  }
  // Header unit: element + attribute rows only.
  rows->push_back(Row{Value::Blob(key.Encode()),
                      Value::Int(static_cast<int64_t>(key.depth())),
                      Value::Int(static_cast<int64_t>(u.node->kind())),
                      Value::Text(u.node->name()),
                      Value::Text(u.node->value())});
  int64_t comp = 0;
  for (const XmlAttribute& attr : u.node->attributes()) {
    comp += options_.gap;
    DeweyKey akey = key.Child(comp);
    rows->push_back(
        Row{Value::Blob(akey.Encode()),
            Value::Int(static_cast<int64_t>(akey.depth())),
            Value::Int(static_cast<int64_t>(XmlNodeKind::kAttribute)),
            Value::Text(attr.name), Value::Text(attr.value)});
  }
  return Status::OK();
}

// The root element is the first depth-1 element key of the path index.
// `path >= ''` (every key) is what lets the planner pick that index, elide
// the sort and stop at the first qualifying row; leading prolog comments
// and PIs are filtered, not scanned past. Filtering on the unindexed depth
// alone would scan the whole table.
Result<StoredNode> DeweyStore::Root() {
  return SelectFirst("path >= ? AND depth = 1 AND kind = " +
                         IntLit(static_cast<int>(XmlNodeKind::kElement)),
                     {Value::Blob("")}, "path");
}

Result<std::vector<StoredNode>> DeweyStore::Children(const StoredNode& node,
                                                     const NodeTest& test,
                                                     size_t limit) {
  Row params{Value::Blob(node.path),
             Value::Blob(BlobPrefixUpperBound(node.path)),
             Value::Int(node.depth + 1)};
  // Built before the Select call: SqlConditionP appends to `params`, and
  // argument evaluation order would otherwise race it against the move.
  std::string where = "path > ? AND path < ? AND depth = ? AND " +
                      test.SqlConditionP(&params);
  return Select(where, std::move(params), "path", limit);
}

Result<std::vector<StoredNode>> DeweyStore::Descendants(
    const StoredNode& node, const NodeTest& test) {
  Row params{Value::Blob(node.path),
             Value::Blob(BlobPrefixUpperBound(node.path))};
  std::string where =
      "path > ? AND path < ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "path");
}

Result<std::vector<StoredNode>> DeweyStore::FollowingSiblings(
    const StoredNode& node, const NodeTest& test, size_t limit) {
  OXML_ASSIGN_OR_RETURN(DeweyKey key, DeweyKey::Decode(node.path));
  Row params{Value::Blob(BlobPrefixUpperBound(node.path)),
             Value::Int(node.depth)};
  std::string where =
      "path >= ? AND depth = ? AND " + test.SqlConditionP(&params);
  if (key.depth() > 1) {
    where += " AND path < ?";
    params.push_back(Value::Blob(key.Parent().SubtreeUpperBound()));
  }
  return Select(where, std::move(params), "path", limit);
}

Result<std::vector<StoredNode>> DeweyStore::PrecedingSiblings(
    const StoredNode& node, const NodeTest& test) {
  OXML_ASSIGN_OR_RETURN(DeweyKey key, DeweyKey::Decode(node.path));
  Row params{Value::Blob(node.path), Value::Int(node.depth)};
  std::string where =
      "path < ? AND depth = ? AND " + test.SqlConditionP(&params);
  if (key.depth() > 1) {
    where += " AND path > ?";
    params.push_back(Value::Blob(key.Parent().Encode()));
  }
  return Select(where, std::move(params), "path");
}

Result<std::vector<StoredNode>> DeweyStore::Attributes(
    const StoredNode& node, std::string_view name) {
  Row params{Value::Blob(node.path),
             Value::Blob(BlobPrefixUpperBound(node.path)),
             Value::Int(node.depth + 1)};
  std::string where = "path > ? AND path < ? AND depth = ? AND kind = " +
                      IntLit(static_cast<int>(XmlNodeKind::kAttribute));
  if (!name.empty()) {
    where += " AND tag = ?";
    params.push_back(Value::Text(std::string(name)));
  }
  return Select(where, std::move(params), "path");
}

Result<StoredNode> DeweyStore::Parent(const StoredNode& node) {
  OXML_ASSIGN_OR_RETURN(DeweyKey key, DeweyKey::Decode(node.path));
  if (key.depth() <= 1) return Status::NotFound("root has no parent");
  return SelectFirst("path = ?", {Value::Blob(key.Parent().Encode())},
                     "path");
}

Status DeweyStore::SortDocumentOrder(std::vector<StoredNode>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const StoredNode& a, const StoredNode& b) {
              return a.path < b.path;
            });
  return Status::OK();
}

Result<std::string> DeweyStore::StringValue(const StoredNode& node) {
  if (node.kind == XmlNodeKind::kText ||
      node.kind == XmlNodeKind::kAttribute ||
      node.kind == XmlNodeKind::kComment) {
    return node.value;
  }
  OXML_ASSIGN_OR_RETURN(
      ResultSet rs,
      SqlP("SELECT val FROM " + table_name() +
               " WHERE path >= ? AND path < ? AND kind = " +
               IntLit(static_cast<int>(XmlNodeKind::kText)) +
               " ORDER BY path",
           {Value::Blob(node.path),
            Value::Blob(BlobPrefixUpperBound(node.path))}));
  std::string out;
  for (const Row& row : rs.rows) out += row[0].AsString();
  return out;
}

Result<std::unique_ptr<XmlDocument>> DeweyStore::ReconstructDocument() {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes, Select("", {}, "path"));
  auto doc = std::make_unique<XmlDocument>();
  OXML_RETURN_NOT_OK(AssembleByDepth(nodes, 1, doc->root()));
  return doc;
}

Result<std::unique_ptr<XmlNode>> DeweyStore::ReconstructSubtree(
    const StoredNode& node) {
  OXML_ASSIGN_OR_RETURN(
      std::vector<StoredNode> nodes,
      Select("path >= ? AND path < ?",
             {Value::Blob(node.path),
              Value::Blob(BlobPrefixUpperBound(node.path))},
             "path"));
  auto holder = std::make_unique<XmlNode>(XmlNodeKind::kDocument, "#holder");
  OXML_RETURN_NOT_OK(AssembleByDepth(nodes, node.depth, holder.get()));
  if (holder->child_count() != 1) {
    return Status::Internal("subtree reconstruction produced " +
                            std::to_string(holder->child_count()) + " roots");
  }
  return holder->RemoveChild(0);
}

Result<bool> DeweyStore::IsDescendantOf(const StoredNode& node,
                                        const StoredNode& ancestor) {
  return node.path.size() > ancestor.path.size() &&
         node.path.compare(0, ancestor.path.size(), ancestor.path) == 0;
}

std::string DeweyStore::KeyCondition(const StoredNode& node) const {
  return "path = " + BlobLit(node.path);
}

std::string DeweyStore::KeyConditionP(const StoredNode& node,
                                      Row* params) const {
  params->push_back(Value::Blob(node.path));
  return "path = ?";
}

Status DeweyStore::Validate() {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> rows, Select("", {}, "path"));
  std::set<std::string> paths;
  int roots = 0;
  std::string prev;
  bool first = true;
  for (const StoredNode& n : rows) {
    if (!first && n.path <= prev) {
      return Status::Internal("duplicate or unordered path");
    }
    first = false;
    prev = n.path;
    OXML_ASSIGN_OR_RETURN(DeweyKey key, DeweyKey::Decode(n.path));
    if (static_cast<int64_t>(key.depth()) != n.depth) {
      return Status::Internal("depth column disagrees with path " +
                              key.ToString());
    }
    paths.insert(n.path);
    if (key.depth() == 1) {
      if (n.kind == XmlNodeKind::kElement) ++roots;
    } else if (paths.count(key.Parent().Encode()) == 0) {
      return Status::Internal("missing parent for path " + key.ToString());
    }
  }
  if (roots != 1) {
    return Status::Internal("expected exactly 1 root element, found " +
                            std::to_string(roots));
  }
  return Status::OK();
}

Result<UpdateStats> DeweyStore::DoInsertSubtree(const StoredNode& ref,
                                              InsertPosition pos,
                                              const XmlNode& subtree) {
  if (ref.kind == XmlNodeKind::kAttribute) {
    return Status::InvalidArgument("cannot insert relative to an attribute");
  }
  UpdateStats stats;
  const std::string& t = table_name();
  OXML_ASSIGN_OR_RETURN(DeweyKey refk, DeweyKey::Decode(ref.path));

  DeweyKey parent_key;
  int64_t c_left = 0;
  bool have_right = false;
  StoredNode right;

  switch (pos) {
    case InsertPosition::kBefore:
    case InsertPosition::kAfter: {
      if (refk.depth() <= 1) {
        return Status::InvalidArgument(
            "cannot insert a sibling of the document root");
      }
      parent_key = refk.Parent();
      std::string parent_ub = parent_key.SubtreeUpperBound();
      if (pos == InsertPosition::kBefore) {
        right = ref;
        have_right = true;
        OXML_ASSIGN_OR_RETURN(
            std::vector<StoredNode> prev,
            Select("path > ? AND path < ? AND depth = ?",
                   {Value::Blob(parent_key.Encode()), Value::Blob(ref.path),
                    Value::Int(ref.depth)},
                   "path DESC LIMIT 1"));
        if (!prev.empty()) {
          OXML_ASSIGN_OR_RETURN(c_left, LastComponent(prev.front()));
        }
      } else {
        c_left = refk.last();
        OXML_ASSIGN_OR_RETURN(
            std::vector<StoredNode> next,
            Select("path >= ? AND path < ? AND depth = ?",
                   {Value::Blob(BlobPrefixUpperBound(ref.path)),
                    Value::Blob(parent_ub), Value::Int(ref.depth)},
                   "path LIMIT 1"));
        if (!next.empty()) {
          right = next.front();
          have_right = true;
        }
      }
      break;
    }
    case InsertPosition::kFirstChild: {
      parent_key = refk;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> attrs,
          Select("path > ? AND path < ? AND depth = ? AND kind = " +
                     IntLit(static_cast<int>(XmlNodeKind::kAttribute)),
                 {Value::Blob(ref.path),
                  Value::Blob(BlobPrefixUpperBound(ref.path)),
                  Value::Int(ref.depth + 1)},
                 "path DESC LIMIT 1"));
      if (!attrs.empty()) {
        OXML_ASSIGN_OR_RETURN(c_left, LastComponent(attrs.front()));
      }
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> kids,
          Select("path > ? AND path < ? AND depth = ? AND kind <> " +
                     IntLit(static_cast<int>(XmlNodeKind::kAttribute)),
                 {Value::Blob(ref.path),
                  Value::Blob(BlobPrefixUpperBound(ref.path)),
                  Value::Int(ref.depth + 1)},
                 "path LIMIT 1"));
      if (!kids.empty()) {
        right = kids.front();
        have_right = true;
      }
      break;
    }
    case InsertPosition::kLastChild: {
      parent_key = refk;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> last,
          Select("path > ? AND path < ? AND depth = ?",
                 {Value::Blob(ref.path),
                  Value::Blob(BlobPrefixUpperBound(ref.path)),
                  Value::Int(ref.depth + 1)},
                 "path DESC LIMIT 1"));
      if (!last.empty()) {
        OXML_ASSIGN_OR_RETURN(c_left, LastComponent(last.front()));
      }
      break;
    }
  }
  stats.statements += 2;  // neighbor resolution

  int64_t slot;
  if (!have_right) {
    slot = c_left + options_.gap;
  } else {
    OXML_ASSIGN_OR_RETURN(int64_t c_right, LastComponent(right));
    if (c_right - c_left > 1) {
      slot = c_left + (c_right - c_left) / 2;
    } else {
      // Renumber: shift the ordinal of the right neighbor and of every
      // following sibling up by one gap. Every row in those siblings'
      // subtrees gets a new path — the Dewey insertion cost the paper
      // reports. Processing from the last sibling down keeps intermediate
      // states collision-free (each key moves strictly upward into
      // vacated space).
      Row shift_params{Value::Blob(right.path), Value::Int(right.depth)};
      std::string shift_where = "path >= ? AND depth = ?";
      if (!parent_key.empty()) {
        shift_where += " AND path < ?";
        shift_params.push_back(Value::Blob(parent_key.SubtreeUpperBound()));
      }
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> to_shift,
          Select(shift_where, std::move(shift_params), "path DESC"));
      ++stats.statements;
      // The per-row path rewrites run through one prepared UPDATE; the
      // (new, old) pairs are generated in the same order the per-row
      // statements used to execute, so intermediate states stay
      // collision-free.
      OXML_ASSIGN_OR_RETURN(
          PreparedStatement move_row,
          db_->Prepare("UPDATE " + t + " SET path = ? WHERE path = ?"));
      for (const StoredNode& sib : to_shift) {
        OXML_ASSIGN_OR_RETURN(DeweyKey old_key, DeweyKey::Decode(sib.path));
        DeweyKey new_key = old_key.WithLast(old_key.last() + options_.gap);
        std::string old_prefix = old_key.Encode();
        std::string new_prefix = new_key.Encode();
        // Rewrite the sibling's whole subtree, prefix-substituting keys.
        OXML_ASSIGN_OR_RETURN(
            ResultSet subtree_rows,
            SqlP("SELECT path FROM " + t +
                     " WHERE path >= ? AND path < ? ORDER BY path",
                 {Value::Blob(old_prefix),
                  Value::Blob(BlobPrefixUpperBound(old_prefix))},
                 &stats));
        std::vector<Row> moves;
        moves.reserve(subtree_rows.rows.size());
        for (const Row& row : subtree_rows.rows) {
          const std::string& old_path = row[0].AsString();
          moves.push_back(
              Row{Value::Blob(new_prefix + old_path.substr(old_prefix.size())),
                  Value::Blob(old_path)});
        }
        OXML_ASSIGN_OR_RETURN(int64_t changed, move_row.ExecuteBatch(moves));
        stats.statements += static_cast<int64_t>(moves.size());
        stats.rows_renumbered += changed;
      }
      stats.renumbering_triggered = true;
      slot = c_left + (c_right + options_.gap - c_left) / 2;
    }
  }

  std::vector<Row> rows;
  ShredInto(subtree, parent_key.Child(slot), &rows);
  OXML_RETURN_NOT_OK(BulkInsert(rows, &stats));
  return stats;
}

Result<UpdateStats> DeweyStore::DoDeleteSubtree(const StoredNode& node) {
  UpdateStats stats;
  OXML_ASSIGN_OR_RETURN(
      int64_t deleted,
      DmlP("DELETE FROM " + table_name() + " WHERE path >= ? AND path < ?",
           {Value::Blob(node.path),
            Value::Blob(BlobPrefixUpperBound(node.path))},
           &stats));
  stats.nodes_deleted = deleted;
  return stats;
}

}  // namespace oxml
