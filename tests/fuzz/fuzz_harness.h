#ifndef OXML_TESTS_FUZZ_FUZZ_HARNESS_H_
#define OXML_TESTS_FUZZ_FUZZ_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/order_encoding.h"
#include "src/relational/database.h"

namespace oxml {
namespace fuzz {

/// The randomized DatabaseOptions matrix: every order-aware fast path that
/// PR 1/2 made toggleable, plus the plan cache. Any divergence between two
/// toggle vectors (or between a store and the DOM oracle) is a bug.
struct DbToggles {
  bool structural_join = true;
  bool merge_join = true;
  bool sort_elision = true;
  bool plan_cache = true;

  DatabaseOptions ToDatabaseOptions() const;
  std::string ToString() const;  // "sj=1 mj=0 se=1 pc=1"
};

/// Document-shape knobs (fed to GenerateXml) plus the store numbering gap.
struct DocParams {
  uint64_t seed = 1;
  int nodes = 120;
  int depth = 5;
  int fanout = 4;
  int vocab = 6;
  int64_t gap = 8;
};

/// One operation of a fuzz workload. Structural targets are child-index
/// paths from the root element (over non-attribute children), resolved
/// identically by the oracle (DomOracle::ResolvePath) and by the stores
/// (OrderedXmlStore::NodeAtPath).
struct FuzzOp {
  enum class Kind : uint8_t {
    kQuery,    // evaluate `xpath` on every store, compare with the oracle
    kInsert,   // insert `payload` at `pos` relative to node at `path`
    kDelete,   // delete the subtree rooted at `path`
    kMove,     // move subtree at `path` to `pos` relative to `ref_path`
    kSetText,  // replace the value of the text node at `path`
    kSetAttr,  // update attribute `attr_name` of the element at `path`
    kCrashRecover,  // durable cases only: kill every store's database
                    // mid-run, reopen it, replay the WAL and re-verify the
                    // full document against the oracle
    kBulkReload,  // serialize the oracle's current document and reload it
                  // into a fresh database whose load pool has >= 2
                  // workers (partition → threaded shred → k-way merge →
                  // bulk-built indexes); the reloaded store must pass
                  // Validate() and reconstruct byte-equal to the oracle,
                  // then replaces the running store for subsequent ops
    kSnapshotRead,  // MVCC check: open a transaction, delete the subtree
                    // at `path` WITHOUT committing, then evaluate `xpath`
                    // from a second thread. The reader must complete while
                    // the transaction is open and must see exactly the
                    // committed (= oracle) result; the transaction then
                    // rolls back, leaving the document unchanged
    kCancel,  // governance check: evaluate `xpath` while a second thread
              // sweeps Database::Cancel over the statement-id window the
              // evaluation occupies. Whatever the interleaving, the
              // outcome must be either the complete oracle-correct result
              // or kCancelled; Validate() must pass and the next
              // statement must succeed either way
  };

  Kind kind = Kind::kQuery;
  std::string xpath;                            // kQuery
  std::vector<size_t> path;                     // mutation target
  std::vector<size_t> ref_path;                 // kMove destination
  InsertPosition pos = InsertPosition::kAfter;  // kInsert / kMove
  std::string payload_xml;   // kInsert: element subtree, serialized
  bool text_payload = false; // kInsert: payload is a bare text node
  std::string text;          // text payload / kSetText / kSetAttr value
  std::string attr_name;     // kSetAttr

  std::string ToString() const;  // one repro-file line, "op ..."
};

/// A fully self-contained fuzz case: document seed + per-encoding toggle
/// vector + operation list. Reproduces bit-for-bit from its serialization.
struct FuzzCase {
  DocParams doc;
  DbToggles toggles[3];  // indexed by static_cast<int>(OrderEncoding)
  /// Durable mode: every store runs on a file-backed, WAL-enabled database
  /// in a temp directory instead of memory-resident, and the op stream may
  /// contain kCrashRecover steps — each one kills and recovers all three
  /// databases, checking that every committed mutation survived.
  bool durable = false;
  /// Concurrent-reader mode (the fuzzer's --threads flag): runs of
  /// consecutive kQuery ops are verified by this many client threads at
  /// once instead of one after another. Mutations always stay serial, so
  /// every query sees the same document state as a serial replay; >1
  /// checks that concurrent readers under the database's shared statement
  /// latch still match the DOM oracle exactly.
  size_t query_threads = 1;
  /// DatabaseOptions::num_load_threads for every database: when > 0 the
  /// initial document load and every kBulkReload shred on this many pool
  /// workers (with 1 KiB runs, forcing multi-run merges); 0 loads inline
  /// on the calling thread. Serialized as the `load_threads N` directive.
  size_t load_threads = 0;
  /// When > 0, every database runs with this default statement deadline
  /// (DatabaseOptions::default_statement_timeout_ms), exercising the
  /// deadline-check machinery on every statement. A statement that
  /// actually trips the deadline is tolerated, never a divergence: queries
  /// are skipped, and a timed-out mutation (which the store rolls back
  /// while the oracle applied it) ends the case early after a consistency
  /// check. Serialized as the `timeout_ms N` repro directive — replays of
  /// deadline-related failures set it small on purpose.
  uint64_t timeout_ms = 0;
  /// When > 0, every query batch is additionally verified through this
  /// many OXWP protocol clients against a loopback oxml_server per store
  /// (the XPath frame's signatures vs the DOM oracle, which stays
  /// unchanged). Servers are stopped across kCrashRecover and restarted on
  /// the reopened databases, and re-pointed at the fresh store after
  /// kBulkReload. Serialized as the `sessions N` repro directive.
  size_t sessions = 0;
  std::vector<FuzzOp> ops;
  size_t skipped_ops = 0;  // filled by RunCase: ops inapplicable on replay
};

/// First divergence / invariant violation found while running a case.
struct FuzzFailure {
  size_t op_index = 0;
  std::string encoding;  // "Global" / "Local" / "Dewey"
  std::string message;

  std::string Describe() const;
};

/// Deterministically generates a random case: document shape, one toggle
/// vector per encoding, and `num_ops` operations (~half queries, half
/// structural/value updates) that are valid against the evolving document.
FuzzCase GenerateCase(uint64_t seed, size_t num_ops);

/// Replays `c` against the DOM oracle and all three stores. After every
/// mutation each store must (a) pass Validate() — the per-encoding
/// structural invariants — and (b) reconstruct to a document byte-equal to
/// the oracle's. Every query must return the oracle's result sequence in
/// document order, in driver mode and (where translatable) whole-path SQL
/// mode. Returns the first failure, or nullopt for a clean run.
std::optional<FuzzFailure> RunCase(FuzzCase* c);

/// Greedy delta-debugging shrink: drops operation chunks while the case
/// still fails, halving the chunk size down to single ops.
FuzzCase ShrinkCase(const FuzzCase& c);

/// Repro-file (de)serialization. The format is line-oriented text; see
/// docs/INTERNALS.md §7.
std::string SerializeCase(const FuzzCase& c);
Result<FuzzCase> ParseCase(std::string_view text);
Result<FuzzCase> LoadCaseFile(const std::string& file_path);

}  // namespace fuzz
}  // namespace oxml

#endif  // OXML_TESTS_FUZZ_FUZZ_HARNESS_H_
