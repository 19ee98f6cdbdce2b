#ifndef OXML_CORE_ORDERED_STORE_H_
#define OXML_CORE_ORDERED_STORE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/core/order_encoding.h"
#include "src/core/parallel_shred.h"
#include "src/relational/database.h"
#include "src/xml/xml_node.h"

namespace oxml {

/// A node test applied along an axis (XPath name tests).
struct NodeTest {
  enum class Kind : uint8_t {
    kAnyElement,  // '*'
    kTag,         // element with a specific tag
    kText,        // text()
    kAnyNode,     // node(): any non-attribute node
  };

  Kind kind = Kind::kAnyElement;
  std::string tag;

  static NodeTest AnyElement() { return {Kind::kAnyElement, ""}; }
  static NodeTest Tag(std::string t) { return {Kind::kTag, std::move(t)}; }
  static NodeTest Text() { return {Kind::kText, ""}; }
  static NodeTest AnyNode() { return {Kind::kAnyNode, ""}; }

  bool Matches(XmlNodeKind node_kind, const std::string& node_tag) const;

  /// SQL predicate fragment over columns `kind`/`tag` (empty = no filter).
  std::string SqlCondition() const;

  /// Parameterized variant: the tag becomes a '?' marker whose value is
  /// appended to `params`, so every tag test shares one SQL text (and thus
  /// one cached plan). The kind comparison stays inline — it is a closed
  /// set that selects different access paths, so distinct cache keys per
  /// kind are what we want.
  std::string SqlConditionP(Row* params) const;
};

/// One XML document stored in relations under one of the three order
/// encodings. All navigation methods return nodes in document order and
/// are implemented as SQL against the underlying Database — this class is
/// the paper's "XML-to-relational mapping + query translation" layer.
///
/// `StoredNode` handles are point-in-time snapshots of a node's row. After
/// an update that renumbers (or, under the Global encoding, extends an
/// ancestor interval), previously fetched handles in the affected region
/// are stale; re-fetch them before further use. Handles of proper
/// ancestors of an insertion point remain valid.
class OrderedXmlStore {
 public:
  virtual ~OrderedXmlStore() = default;

  /// Creates the table and indexes for the chosen encoding.
  static Result<std::unique_ptr<OrderedXmlStore>> Create(
      Database* db, OrderEncoding encoding, const StoreOptions& options = {});

  /// Attaches to an already-populated node table (e.g. after reopening a
  /// file-backed database with DatabaseOptions::open_existing). The table
  /// must exist with this encoding's schema; NotFound otherwise.
  static Result<std::unique_ptr<OrderedXmlStore>> Attach(
      Database* db, OrderEncoding encoding, const StoreOptions& options = {});

  OrderEncoding encoding() const { return encoding_; }
  const StoreOptions& options() const { return options_; }
  const std::string& table_name() const { return options_.table_name; }
  Database* db() const { return db_; }

  // ------------------------------------------------------------ bulk load

  /// Shreds `doc` into the node table. Runs as one transaction: a crash
  /// mid-load leaves the store empty, never partially shredded. A store
  /// that already holds rows is rejected with InvalidArgument and left
  /// unchanged.
  ///
  /// The document is cut into disjoint subtrees (PartitionDocument),
  /// shredded into sorted runs — on the calling thread, plus the
  /// database's load pool when DatabaseOptions::num_load_threads > 0 —
  /// k-way merged, and installed through the bulk path
  /// (Database::BulkLoadRows). Order keys are assigned deterministically
  /// from the partition pre-pass, so the table is byte-identical at every
  /// worker count. Only the install runs under the exclusive statement
  /// latch; concurrent readers of other tables proceed while the document
  /// is being shredded.
  Status LoadDocument(const XmlDocument& doc);

  /// Rebuilds the complete document from the relations.
  virtual Result<std::unique_ptr<XmlDocument>> ReconstructDocument() = 0;

  /// Rebuilds the subtree rooted at `node` (element or leaf).
  virtual Result<std::unique_ptr<XmlNode>> ReconstructSubtree(
      const StoredNode& node) = 0;

  // ----------------------------------------------------------- navigation

  /// The root element.
  virtual Result<StoredNode> Root() = 0;

  /// Child axis, in sibling order. A `limit` > 0 returns only the first
  /// `limit` matches and reads only the rows up to them (positional steps
  /// and ChildAt); 0 returns every match.
  virtual Result<std::vector<StoredNode>> Children(const StoredNode& node,
                                                   const NodeTest& test,
                                                   size_t limit = 0) = 0;

  /// Descendant axis, in document order.
  virtual Result<std::vector<StoredNode>> Descendants(
      const StoredNode& node, const NodeTest& test) = 0;

  /// Following-sibling axis, in sibling order; `limit` as for Children.
  virtual Result<std::vector<StoredNode>> FollowingSiblings(
      const StoredNode& node, const NodeTest& test, size_t limit = 0) = 0;

  /// Preceding-sibling axis, in sibling (document) order.
  virtual Result<std::vector<StoredNode>> PrecedingSiblings(
      const StoredNode& node, const NodeTest& test) = 0;

  /// Attribute nodes of an element, optionally restricted to one name.
  virtual Result<std::vector<StoredNode>> Attributes(
      const StoredNode& node, std::string_view name) = 0;

  /// Parent node; NotFound for the root.
  virtual Result<StoredNode> Parent(const StoredNode& node) = 0;

  /// Sorts `nodes` into document order. Cheap for Global (one integer key)
  /// and Dewey (byte order); requires ancestor-path reconstruction for
  /// Local — exactly the asymmetry the paper measures.
  virtual Status SortDocumentOrder(std::vector<StoredNode>* nodes) = 0;

  /// Concatenated text of the node's subtree (XPath string value).
  virtual Result<std::string> StringValue(const StoredNode& node) = 0;

  // -------------------------------------------------------------- updates

  /// Inserts `subtree` at the given position relative to `ref`, preserving
  /// document order; renumbers existing rows when the sparse numbering has
  /// no free ordinal (cost reported in UpdateStats). The whole operation —
  /// renumbering sweep included — is one transaction: it is atomic under
  /// crashes and rolled back entirely on failure.
  Result<UpdateStats> InsertSubtree(const StoredNode& ref, InsertPosition pos,
                                    const XmlNode& subtree);

  /// Removes the subtree rooted at `node`, atomically (one transaction).
  Result<UpdateStats> DeleteSubtree(const StoredNode& node);

  /// Replaces the value of a text, comment, PI or attribute node. Value
  /// updates never touch order keys — under every encoding they are a
  /// single-row UPDATE, one of the paper's arguments for order-as-data.
  Result<UpdateStats> UpdateNodeValue(const StoredNode& node,
                                      std::string_view new_value);

  /// Replaces the value of an existing attribute of `element`. Returns
  /// NotFound when the element has no such attribute (adding attributes is
  /// a structural update: re-insert the element).
  Result<UpdateStats> UpdateAttributeValue(const StoredNode& element,
                                           std::string_view name,
                                           std::string_view new_value);

  /// Relocates the subtree rooted at `source` to the given position
  /// relative to `ref` (reconstruct + delete + insert; `ref` must not lie
  /// inside the moved subtree).
  Result<UpdateStats> MoveSubtree(const StoredNode& source,
                                  const StoredNode& ref, InsertPosition pos);

  /// True if `node` lies strictly inside the subtree rooted at `ancestor`.
  virtual Result<bool> IsDescendantOf(const StoredNode& node,
                                      const StoredNode& ancestor) = 0;

  /// SQL condition identifying exactly this node's row (e.g. "ord = 42",
  /// "id = 7", "path = x'0105'").
  virtual std::string KeyCondition(const StoredNode& node) const = 0;

  /// Parameterized KeyCondition: emits "ord = ?" etc. and appends the key
  /// value(s) to `params`.
  virtual std::string KeyConditionP(const StoredNode& node,
                                    Row* params) const = 0;

  // -------------------------------------------------------- verification

  /// Scans the node table and checks every structural invariant of the
  /// encoding (key uniqueness, parent existence, interval nesting /
  /// prefix consistency, depth bookkeeping). Intended for tests and
  /// debugging; O(n log n).
  virtual Status Validate() = 0;

  // ------------------------------------------------- relational interface

  /// The canonical column list of this store's node table (the layout
  /// expected by NodeFromRow), e.g. "ord, eord, pord, depth, kind, tag,
  /// val" for the Global encoding.
  virtual const char* NodeColumns() const = 0;

  /// Materializes a StoredNode from a result row laid out per
  /// NodeColumns(). Used by callers that run their own SQL (e.g. the
  /// whole-path translator).
  virtual StoredNode NodeFromRow(const Row& row) const = 0;

  // --------------------------------------------------------- conveniences

  /// Number of node rows in the store.
  Result<int64_t> NodeCount();

  /// The idx-th (0-based) child matching `test`; OutOfRange if absent.
  Result<StoredNode> ChildAt(const StoredNode& parent, const NodeTest& test,
                             size_t idx);

  /// Navigates a child-index path from the root, e.g. {0, 2} = first
  /// child's third child (indexes over *all* non-attribute children).
  Result<StoredNode> NodeAtPath(const std::vector<size_t>& child_indexes);

 protected:
  OrderedXmlStore(Database* db, OrderEncoding encoding, StoreOptions options)
      : db_(db), encoding_(encoding), options_(std::move(options)) {}

  /// Encoding-specific bodies of the public mutation entry points, which
  /// wrap them in a TxnScope (template method). When the caller already
  /// opened a transaction, the scope nests flatly and the outer transaction
  /// decides the outcome.
  virtual Result<UpdateStats> DoInsertSubtree(const StoredNode& ref,
                                              InsertPosition pos,
                                              const XmlNode& subtree) = 0;
  virtual Result<UpdateStats> DoDeleteSubtree(const StoredNode& node) = 0;

  // ---------------------------------------------------------------- loading

  /// Shreds one partition into encoded rows (document order within the
  /// unit), assigning exactly the order keys a whole-document DFS would
  /// have. Must not mutate store state: ParallelShredMerge calls it from
  /// several threads at once on distinct units.
  virtual Status EmitUnitRows(const ShredUnit& unit,
                              std::vector<Row>* rows) = 0;

  /// How this encoding's first column orders for the k-way merge.
  virtual LoadKeyKind LoadKey() const = 0;

  /// Called once after a successful load with the number of rows
  /// installed; stores with allocator state advance it here (the Local
  /// encoding's id counter).
  virtual void OnLoadComplete(uint64_t rows_loaded) {
    (void)rows_loaded;
  }

  /// Runs a SELECT, counting it into `stats` when provided.
  Result<ResultSet> Sql(const std::string& sql, UpdateStats* stats = nullptr);

  /// Runs a DML statement, returning affected rows.
  Result<int64_t> Dml(const std::string& sql, UpdateStats* stats = nullptr);

  /// Prepared variants: `sql` contains '?' markers bound positionally from
  /// `params`. Because identical SQL texts share a cached plan, the axis
  /// methods pay lexer/parser/planner cost once per statement shape rather
  /// than once per call.
  Result<ResultSet> SqlP(const std::string& sql, Row params,
                         UpdateStats* stats = nullptr);
  Result<int64_t> DmlP(const std::string& sql, Row params,
                       UpdateStats* stats = nullptr);

 protected:
  Database* db_;
  OrderEncoding encoding_;
  StoreOptions options_;
};

/// Literal helpers for SQL generation.
std::string IntLit(int64_t v);
std::string BlobLit(std::string_view bytes);

}  // namespace oxml

#endif  // OXML_CORE_ORDERED_STORE_H_
