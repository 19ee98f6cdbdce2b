#ifndef OXML_CORE_PARALLEL_SHRED_H_
#define OXML_CORE_PARALLEL_SHRED_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/value.h"
#include "src/xml/xml_node.h"

namespace oxml {

class ThreadPool;

/// One disjoint partition of a parsed document, produced by
/// PartitionDocument. A unit either covers a whole subtree
/// (`whole_subtree`) or — when the subtree was too large and was split
/// further — just the element's own row plus its attribute rows (a
/// "header" unit; the children then appear as later units).
///
/// The fields carry everything a shredder needs to assign the exact order
/// keys the serial DFS would have assigned, for all three encodings:
///  - Global: the k-th row of the serial DFS stream (0-based `row_offset`)
///    gets ord = gap * (k + 1); an element's eord is the ord of its last
///    subtree row, i.e. gap * (row_offset + subtree_rows); pord is the
///    parent's ord, derived from `parent_row_offset`.
///  - Local: ids are `base + row_offset` counting rows the same way, pid
///    is `base + parent_row_offset`, and `sibling_comp` is the node's
///    gap-scaled ordinal in its parent's shared attribute+child space.
///  - Dewey: `dewey_path` is the node's encoded key; attributes and
///    children extend it with gap-scaled components.
/// Row counts are encoding-independent (every element, attribute, text,
/// comment and PI is exactly one row), which is what makes one partition
/// pass reusable by all three shredders.
struct ShredUnit {
  const XmlNode* node = nullptr;
  bool whole_subtree = true;
  uint64_t row_offset = 0;      ///< node's 0-based row index in DFS order
  uint64_t subtree_rows = 0;    ///< rows in the whole subtree (incl. attrs)
  int64_t depth = 1;
  int64_t parent_row_offset = -1;  ///< -1 = the document container
  int64_t sibling_comp = 0;        ///< gap-scaled sord / Dewey component
  std::string dewey_path;          ///< encoded DeweyKey of `node`
};

/// Cuts `doc` into ShredUnits in document order. Subtrees larger than
/// roughly total_rows / `target_units` are split: a header unit for the
/// element itself, then one recursion per child. `gap` must match the
/// StoreOptions gap the shredders will use (it is baked into
/// `sibling_comp` and `dewey_path`). Always returns at least one unit for
/// a non-empty document.
std::vector<ShredUnit> PartitionDocument(const XmlDocument& doc, int64_t gap,
                                         size_t target_units);

/// Shreds one unit into encoded rows, appending to `rows` in document
/// order. Implemented per encoding by the stores (EmitUnitRows); must be
/// safe to call from several threads at once on distinct units.
using ShredUnitEmitter =
    std::function<Status(const ShredUnit&, std::vector<Row>*)>;

/// How run rows are ordered for the k-way merge: by row[0] as an integer
/// (Global ord / Local id) or as memcmp'd bytes (Dewey path).
enum class LoadKeyKind { kInt, kBlob };

/// The fan-out half of the bulk-load pipeline: workers (the pool's threads
/// plus the calling thread; just the calling thread when `pool` is null)
/// claim units morsel-style from one shared cursor and shred them with
/// `emit`, sealing a sorted run whenever the accumulated rows exceed
/// `run_bytes`.
/// Because each worker claims strictly increasing unit indices and unit
/// keys increase in document order, every run is sorted by construction;
/// the final k-way merge by `key_kind` therefore reproduces the exact
/// serial document-order row stream regardless of scheduling.
///
/// `runs_out` receives the number of sealed runs fed to the merge and
/// `threads_out` the number of workers that shredded at least one unit.
Result<std::vector<Row>> ParallelShredMerge(
    const std::vector<ShredUnit>& units, const ShredUnitEmitter& emit,
    LoadKeyKind key_kind, ThreadPool* pool, size_t run_bytes,
    uint64_t* runs_out, uint64_t* threads_out);

}  // namespace oxml

#endif  // OXML_CORE_PARALLEL_SHRED_H_
