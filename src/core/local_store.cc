#include <algorithm>
#include <map>
#include <set>

#include "src/common/strings.h"
#include "src/core/stores.h"

namespace oxml {

namespace {

constexpr const char* kCols = "id, pid, sord, depth, kind, tag, val";

StoredNode FromLocalRow(const Row& row) {
  StoredNode n;
  n.id = row[0].AsInt();
  n.pid = row[1].AsInt();
  n.sord = row[2].AsInt();
  n.depth = row[3].AsInt();
  n.kind = static_cast<XmlNodeKind>(row[4].AsInt());
  n.tag = row[5].AsString();
  n.value = row[6].is_null() ? "" : row[6].AsString();
  return n;
}

}  // namespace

const char* LocalStore::NodeColumns() const { return kCols; }

StoredNode LocalStore::NodeFromRow(const Row& row) const {
  return FromLocalRow(row);
}

// Index column order doubles as a sort-order claim the planner exploits:
// (pid, sord) means "an equality probe on pid yields children in sibling
// order". No Local index yields document order — ordered output needs an
// explicit sort, which is part of this encoding's measured query tax.
Status LocalStore::CreateTableAndIndexes() {
  const std::string& t = table_name();
  OXML_RETURN_NOT_OK(db_->Execute("CREATE TABLE " + t +
                                  " (id INT, pid INT, sord INT, depth INT,"
                                  " kind INT, tag TEXT, val TEXT)")
                         .status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_id ON " + t + " (id)").status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_pid ON " + t + " (pid, sord)")
          .status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_tag ON " + t + " (tag)").status());
  return Status::OK();
}

Status LocalStore::InitializeExisting() {
  // Restore the id allocator from the stored rows.
  OXML_ASSIGN_OR_RETURN(
      ResultSet rs, Sql("SELECT MAX(id) FROM " + table_name()));
  next_id_ = rs.rows[0][0].is_null() ? 1 : rs.rows[0][0].AsInt() + 1;
  return Status::OK();
}

namespace {

/// DFS shredder for the local encoding. `sord` is the node's ordinal among
/// its siblings; attributes and children share one ordinal space.
void ShredLocal(const XmlNode& node, int64_t pid, int64_t sord, int64_t depth,
                int64_t gap, int64_t* next_id, std::vector<Row>* rows) {
  int64_t id = (*next_id)++;
  rows->push_back(Row{Value::Int(id), Value::Int(pid), Value::Int(sord),
                      Value::Int(depth),
                      Value::Int(static_cast<int64_t>(node.kind())),
                      Value::Text(node.name()), Value::Text(node.value())});
  int64_t child_sord = 0;
  for (const XmlAttribute& attr : node.attributes()) {
    child_sord += gap;
    rows->push_back(
        Row{Value::Int((*next_id)++), Value::Int(id), Value::Int(child_sord),
            Value::Int(depth + 1),
            Value::Int(static_cast<int64_t>(XmlNodeKind::kAttribute)),
            Value::Text(attr.name), Value::Text(attr.value)});
  }
  for (const auto& child : node.children()) {
    child_sord += gap;
    ShredLocal(*child, id, child_sord, depth + 1, gap, next_id, rows);
  }
}

}  // namespace

Status LocalStore::BulkInsert(const std::vector<Row>& rows,
                              UpdateStats* stats) {
  OXML_ASSIGN_OR_RETURN(
      PreparedStatement ins,
      db_->Prepare("INSERT INTO " + table_name() + " (" + kCols +
                   ") VALUES (?, ?, ?, ?, ?, ?, ?)"));
  OXML_RETURN_NOT_OK(ins.ExecuteBatch(rows).status());
  if (stats != nullptr) {
    ++stats->statements;
    stats->nodes_inserted += static_cast<int64_t>(rows.size());
  }
  return Status::OK();
}

Status LocalStore::EmitUnitRows(const ShredUnit& u, std::vector<Row>* rows) {
  const int64_t gap = options_.gap;
  // Ids follow DFS row order, so the k-th row of the full stream gets
  // id = next_id_ + k. The allocator itself is left untouched until
  // OnLoadComplete — workers only read the base.
  const int64_t base = next_id_;
  const int64_t pid =
      u.parent_row_offset < 0 ? 0 : base + u.parent_row_offset;
  if (u.whole_subtree) {
    int64_t next = base + static_cast<int64_t>(u.row_offset);
    ShredLocal(*u.node, pid, u.sibling_comp, u.depth, gap, &next, rows);
    return Status::OK();
  }
  // Header unit: element + attribute rows; children arrive as later units
  // with their own row offsets.
  const int64_t id = base + static_cast<int64_t>(u.row_offset);
  rows->push_back(Row{Value::Int(id), Value::Int(pid),
                      Value::Int(u.sibling_comp), Value::Int(u.depth),
                      Value::Int(static_cast<int64_t>(u.node->kind())),
                      Value::Text(u.node->name()),
                      Value::Text(u.node->value())});
  int64_t next = id + 1;
  int64_t child_sord = 0;
  for (const XmlAttribute& attr : u.node->attributes()) {
    child_sord += gap;
    rows->push_back(
        Row{Value::Int(next++), Value::Int(id), Value::Int(child_sord),
            Value::Int(u.depth + 1),
            Value::Int(static_cast<int64_t>(XmlNodeKind::kAttribute)),
            Value::Text(attr.name), Value::Text(attr.value)});
  }
  return Status::OK();
}

// An ordered probe of the (pid, sord) index: top-level prolog comments and
// PIs are filtered on the way to the first element, not scanned past.
Result<StoredNode> LocalStore::Root() {
  return SelectFirst("pid = 0 AND kind = " +
                         IntLit(static_cast<int>(XmlNodeKind::kElement)),
                     {}, "sord");
}

Result<std::vector<StoredNode>> LocalStore::Children(const StoredNode& node,
                                                     const NodeTest& test,
                                                     size_t limit) {
  Row params{Value::Int(node.id)};
  // Built before the Select call: SqlConditionP appends to `params`, and
  // argument evaluation order would otherwise race it against the move.
  std::string where = "pid = ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "sord", limit);
}

Result<std::vector<StoredNode>> LocalStore::Descendants(
    const StoredNode& node, const NodeTest& test) {
  if (node.pid == 0) {
    // From the root a tag/kind scan sees every node; document order must
    // then be recovered via ancestor ordinal paths (the expensive part of
    // the local scheme).
    Row params;
    std::string test_cond = test.SqlConditionP(&params);
    params.push_back(Value::Int(node.id));
    OXML_ASSIGN_OR_RETURN(
        std::vector<StoredNode> all,
        Select(test_cond + " AND id <> ? AND pid <> 0", std::move(params),
               ""));
    OXML_RETURN_NOT_OK(SortDocumentOrder(&all));
    return all;
  }
  // Inside a subtree the local scheme has no descendant interval: expand
  // level by level with one child query per element (iterated joins).
  std::vector<StoredNode> out;
  std::vector<StoredNode> frontier{node};
  while (!frontier.empty()) {
    std::vector<StoredNode> next;
    for (const StoredNode& cur : frontier) {
      OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> kids,
                            Children(cur, NodeTest::AnyNode()));
      for (StoredNode& kid : kids) {
        if (test.Matches(kid.kind, kid.tag)) out.push_back(kid);
        if (kid.kind == XmlNodeKind::kElement) next.push_back(kid);
      }
    }
    frontier = std::move(next);
  }
  // BFS emits level order; restore document order.
  OXML_RETURN_NOT_OK(SortDocumentOrder(&out));
  return out;
}

Result<std::vector<StoredNode>> LocalStore::FollowingSiblings(
    const StoredNode& node, const NodeTest& test, size_t limit) {
  Row params{Value::Int(node.pid), Value::Int(node.sord)};
  std::string where =
      "pid = ? AND sord > ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "sord", limit);
}

Result<std::vector<StoredNode>> LocalStore::PrecedingSiblings(
    const StoredNode& node, const NodeTest& test) {
  Row params{Value::Int(node.pid), Value::Int(node.sord)};
  std::string where =
      "pid = ? AND sord < ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "sord");
}

Result<std::vector<StoredNode>> LocalStore::Attributes(
    const StoredNode& node, std::string_view name) {
  Row params{Value::Int(node.id)};
  std::string where = "pid = ? AND kind = " +
                      IntLit(static_cast<int>(XmlNodeKind::kAttribute));
  if (!name.empty()) {
    where += " AND tag = ?";
    params.push_back(Value::Text(std::string(name)));
  }
  return Select(where, std::move(params), "sord");
}

Result<StoredNode> LocalStore::Parent(const StoredNode& node) {
  if (node.pid == 0) return Status::NotFound("root has no parent");
  return SelectFirst("id = ?", {Value::Int(node.pid)}, "id");
}

Result<std::vector<int64_t>> LocalStore::OrdinalPath(
    const StoredNode& node,
    std::unordered_map<int64_t, std::pair<int64_t, int64_t>>* cache) {
  std::vector<int64_t> path{node.sord};
  int64_t pid = node.pid;
  while (pid != 0) {
    auto it = cache->find(pid);
    if (it == cache->end()) {
      OXML_ASSIGN_OR_RETURN(
          ResultSet rs,
          SqlP("SELECT pid, sord FROM " + table_name() + " WHERE id = ?",
               {Value::Int(pid)}));
      if (rs.rows.empty()) {
        return Status::Internal("dangling parent id " + std::to_string(pid));
      }
      it = cache->emplace(pid, std::make_pair(rs.rows[0][0].AsInt(),
                                              rs.rows[0][1].AsInt()))
               .first;
    }
    path.push_back(it->second.second);
    pid = it->second.first;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Status LocalStore::SortDocumentOrder(std::vector<StoredNode>* nodes) {
  // Reconstruct each node's ancestor ordinal path (a Dewey path computed
  // the hard way), then sort lexicographically.
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> cache;
  std::vector<std::pair<std::vector<int64_t>, size_t>> keyed;
  keyed.reserve(nodes->size());
  for (size_t i = 0; i < nodes->size(); ++i) {
    OXML_ASSIGN_OR_RETURN(std::vector<int64_t> path,
                          OrdinalPath((*nodes)[i], &cache));
    keyed.emplace_back(std::move(path), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<StoredNode> sorted;
  sorted.reserve(nodes->size());
  for (const auto& [path, idx] : keyed) sorted.push_back((*nodes)[idx]);
  *nodes = std::move(sorted);
  return Status::OK();
}

Result<std::string> LocalStore::StringValue(const StoredNode& node) {
  if (node.kind == XmlNodeKind::kText ||
      node.kind == XmlNodeKind::kAttribute ||
      node.kind == XmlNodeKind::kComment) {
    return node.value;
  }
  std::string out;
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> kids,
                        Children(node, NodeTest::AnyNode()));
  for (const StoredNode& kid : kids) {
    if (kid.kind == XmlNodeKind::kText) {
      out += kid.value;
    } else if (kid.kind == XmlNodeKind::kElement) {
      OXML_ASSIGN_OR_RETURN(std::string inner, StringValue(kid));
      out += inner;
    }
  }
  return out;
}

namespace {

/// Recursively attaches the children of `parent_id` from the grouped map.
void AssembleLocal(
    const std::map<int64_t, std::vector<StoredNode>>& by_parent,
    int64_t parent_id, XmlNode* parent) {
  auto it = by_parent.find(parent_id);
  if (it == by_parent.end()) return;
  for (const StoredNode& n : it->second) {
    switch (n.kind) {
      case XmlNodeKind::kAttribute:
        parent->SetAttribute(n.tag, n.value);
        break;
      case XmlNodeKind::kElement: {
        XmlNode* e = parent->AppendChild(XmlNode::Element(n.tag));
        AssembleLocal(by_parent, n.id, e);
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
        break;
    }
  }
}

}  // namespace

Result<std::unique_ptr<XmlDocument>> LocalStore::ReconstructDocument() {
  // One scan ordered by (pid, sord), grouped in memory, then a recursive
  // parent-to-children assembly (the join the local encoding forces).
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> all,
                        Select("", {}, "pid, sord"));
  std::map<int64_t, std::vector<StoredNode>> by_parent;
  for (StoredNode& n : all) by_parent[n.pid].push_back(std::move(n));
  auto doc = std::make_unique<XmlDocument>();
  AssembleLocal(by_parent, 0, doc->root());
  return doc;
}

Result<std::unique_ptr<XmlNode>> LocalStore::ReconstructSubtree(
    const StoredNode& node) {
  // Recursive child queries: the subtree has no single-range identity in
  // the local scheme.
  std::unique_ptr<XmlNode> out;
  switch (node.kind) {
    case XmlNodeKind::kElement:
      out = XmlNode::Element(node.tag);
      break;
    case XmlNodeKind::kText:
      return XmlNode::Text(node.value);
    case XmlNodeKind::kComment:
      return XmlNode::Comment(node.value);
    case XmlNodeKind::kProcessingInstruction:
      return XmlNode::ProcessingInstruction(node.tag, node.value);
    default:
      return Status::InvalidArgument("cannot reconstruct this node kind");
  }
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> attrs,
                        Attributes(node, {}));
  for (const StoredNode& a : attrs) out->SetAttribute(a.tag, a.value);
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> kids,
                        Children(node, NodeTest::AnyNode()));
  for (const StoredNode& kid : kids) {
    OXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child,
                          ReconstructSubtree(kid));
    out->AppendChild(std::move(child));
  }
  return out;
}

Result<bool> LocalStore::IsDescendantOf(const StoredNode& node,
                                        const StoredNode& ancestor) {
  // No containment interval in the local scheme: walk up the parent chain.
  int64_t pid = node.pid;
  while (pid != 0) {
    if (pid == ancestor.id) return true;
    OXML_ASSIGN_OR_RETURN(
        ResultSet rs, SqlP("SELECT pid FROM " + table_name() + " WHERE id = ?",
                           {Value::Int(pid)}));
    if (rs.rows.empty()) {
      return Status::Internal("dangling parent id " + std::to_string(pid));
    }
    pid = rs.rows[0][0].AsInt();
  }
  return false;
}

std::string LocalStore::KeyCondition(const StoredNode& node) const {
  return "id = " + IntLit(node.id);
}

std::string LocalStore::KeyConditionP(const StoredNode& node,
                                      Row* params) const {
  params->push_back(Value::Int(node.id));
  return "id = ?";
}

Status LocalStore::Validate() {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> rows, Select("", {}, "id"));
  std::unordered_map<int64_t, const StoredNode*> by_id;
  for (const StoredNode& n : rows) {
    if (!by_id.emplace(n.id, &n).second) {
      return Status::Internal("duplicate id " + std::to_string(n.id));
    }
  }
  std::set<std::pair<int64_t, int64_t>> sibling_keys;
  // Attributes and children share one per-parent ordinal space, with all
  // attribute rows numbered before the first non-attribute child.
  std::map<int64_t, int64_t> max_attr_sord;
  std::map<int64_t, int64_t> min_child_sord;
  int roots = 0;
  for (const StoredNode& n : rows) {
    if (!sibling_keys.emplace(n.pid, n.sord).second) {
      return Status::Internal("duplicate (pid, sord) = (" +
                              std::to_string(n.pid) + ", " +
                              std::to_string(n.sord) + ")");
    }
    if (n.id < 1) {
      return Status::Internal("non-positive id " + std::to_string(n.id));
    }
    if (n.sord < 1) {
      return Status::Internal("non-positive sord at id " +
                              std::to_string(n.id));
    }
    if (n.kind == XmlNodeKind::kAttribute) {
      auto [it, inserted] = max_attr_sord.emplace(n.pid, n.sord);
      if (!inserted) it->second = std::max(it->second, n.sord);
    } else {
      auto [it, inserted] = min_child_sord.emplace(n.pid, n.sord);
      if (!inserted) it->second = std::min(it->second, n.sord);
    }
    if (n.pid == 0) {
      if (n.depth != 1) return Status::Internal("top-level depth != 1");
      if (n.kind == XmlNodeKind::kElement) ++roots;
      continue;
    }
    auto it = by_id.find(n.pid);
    if (it == by_id.end()) {
      return Status::Internal("dangling pid " + std::to_string(n.pid));
    }
    const StoredNode* parent = it->second;
    if (parent->kind != XmlNodeKind::kElement) {
      return Status::Internal("parent " + std::to_string(n.pid) +
                              " is not an element");
    }
    if (n.depth != parent->depth + 1) {
      return Status::Internal("depth mismatch at id " +
                              std::to_string(n.id));
    }
  }
  if (roots != 1) {
    return Status::Internal("expected exactly 1 root element, found " +
                            std::to_string(roots));
  }
  for (const auto& [pid, attr_sord] : max_attr_sord) {
    auto it = min_child_sord.find(pid);
    if (it != min_child_sord.end() && it->second < attr_sord) {
      return Status::Internal("attribute ordered after a child of id " +
                              std::to_string(pid));
    }
  }
  return Status::OK();
}

Result<UpdateStats> LocalStore::DoInsertSubtree(const StoredNode& ref,
                                              InsertPosition pos,
                                              const XmlNode& subtree) {
  if (ref.kind == XmlNodeKind::kAttribute) {
    return Status::InvalidArgument("cannot insert relative to an attribute");
  }
  UpdateStats stats;
  const std::string& t = table_name();

  int64_t parent_id = 0;
  int64_t parent_depth = 0;
  int64_t s_left = 0;
  bool have_right = false;
  StoredNode right;

  switch (pos) {
    case InsertPosition::kBefore:
    case InsertPosition::kAfter: {
      OXML_ASSIGN_OR_RETURN(StoredNode parent, Parent(ref));
      parent_id = parent.id;
      parent_depth = parent.depth;
      if (pos == InsertPosition::kBefore) {
        right = ref;
        have_right = true;
        OXML_ASSIGN_OR_RETURN(
            std::vector<StoredNode> prev,
            Select("pid = ? AND sord < ?",
                   {Value::Int(parent_id), Value::Int(ref.sord)},
                   "sord DESC LIMIT 1"));
        if (!prev.empty()) s_left = prev.front().sord;
      } else {
        s_left = ref.sord;
        OXML_ASSIGN_OR_RETURN(
            std::vector<StoredNode> next,
            Select("pid = ? AND sord > ?",
                   {Value::Int(parent_id), Value::Int(ref.sord)},
                   "sord LIMIT 1"));
        if (!next.empty()) {
          right = next.front();
          have_right = true;
        }
      }
      break;
    }
    case InsertPosition::kFirstChild: {
      parent_id = ref.id;
      parent_depth = ref.depth;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> attrs,
          Select("pid = ? AND kind = " +
                     IntLit(static_cast<int>(XmlNodeKind::kAttribute)),
                 {Value::Int(parent_id)}, "sord DESC LIMIT 1"));
      if (!attrs.empty()) s_left = attrs.front().sord;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> kids,
          Select("pid = ? AND kind <> " +
                     IntLit(static_cast<int>(XmlNodeKind::kAttribute)),
                 {Value::Int(parent_id)}, "sord LIMIT 1"));
      if (!kids.empty()) {
        right = kids.front();
        have_right = true;
      }
      break;
    }
    case InsertPosition::kLastChild: {
      parent_id = ref.id;
      parent_depth = ref.depth;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> last,
          Select("pid = ?", {Value::Int(parent_id)}, "sord DESC LIMIT 1"));
      if (!last.empty()) s_left = last.front().sord;
      break;
    }
  }
  stats.statements += 2;  // neighbor resolution

  int64_t slot;
  if (!have_right) {
    slot = s_left + options_.gap;
  } else if (right.sord - s_left > 1) {
    slot = s_left + (right.sord - s_left) / 2;
  } else {
    // Renumber: shift the sibling ordinals of the right neighbor and all
    // later siblings by one gap. Only the sibling rows themselves are
    // touched — descendants keep their keys. This locality is the whole
    // point of the local scheme.
    OXML_ASSIGN_OR_RETURN(
        std::vector<StoredNode> to_shift,
        Select("pid = ? AND sord >= ?",
               {Value::Int(parent_id), Value::Int(right.sord)}, "sord DESC"));
    ++stats.statements;
    // One prepared UPDATE executed per shifted sibling: the parse + plan is
    // paid once for the whole batch.
    std::vector<Row> shift_rows;
    shift_rows.reserve(to_shift.size());
    for (const StoredNode& sib : to_shift) {
      shift_rows.push_back(
          Row{Value::Int(sib.sord + options_.gap), Value::Int(sib.id)});
    }
    OXML_ASSIGN_OR_RETURN(PreparedStatement shift,
                          db_->Prepare("UPDATE " + t +
                                       " SET sord = ? WHERE id = ?"));
    OXML_ASSIGN_OR_RETURN(int64_t changed, shift.ExecuteBatch(shift_rows));
    stats.statements += static_cast<int64_t>(shift_rows.size());
    stats.rows_renumbered += changed;
    stats.renumbering_triggered = true;
    slot = s_left + (right.sord + options_.gap - s_left) / 2;
  }

  std::vector<Row> rows;
  ShredLocal(subtree, parent_id, slot, parent_depth + 1, options_.gap,
             &next_id_, &rows);
  OXML_RETURN_NOT_OK(BulkInsert(rows, &stats));
  return stats;
}

Result<UpdateStats> LocalStore::DoDeleteSubtree(const StoredNode& node) {
  UpdateStats stats;
  // Collect the subtree ids level by level (no closure in the schema).
  std::vector<int64_t> frontier{node.id};
  std::vector<int64_t> parents;
  while (!frontier.empty()) {
    std::vector<int64_t> next;
    for (int64_t id : frontier) {
      OXML_ASSIGN_OR_RETURN(
          ResultSet rs,
          SqlP("SELECT id, kind FROM " + table_name() + " WHERE pid = ?",
               {Value::Int(id)}, &stats));
      for (const Row& row : rs.rows) {
        if (static_cast<XmlNodeKind>(row[1].AsInt()) ==
            XmlNodeKind::kElement) {
          next.push_back(row[0].AsInt());
        }
      }
      if (!rs.rows.empty()) parents.push_back(id);
    }
    frontier = std::move(next);
  }
  for (int64_t pid : parents) {
    OXML_ASSIGN_OR_RETURN(
        int64_t n,
        DmlP("DELETE FROM " + table_name() + " WHERE pid = ?",
             {Value::Int(pid)}, &stats));
    stats.nodes_deleted += n;
  }
  OXML_ASSIGN_OR_RETURN(
      int64_t n,
      DmlP("DELETE FROM " + table_name() + " WHERE id = ?",
           {Value::Int(node.id)}, &stats));
  stats.nodes_deleted += n;
  return stats;
}

}  // namespace oxml
