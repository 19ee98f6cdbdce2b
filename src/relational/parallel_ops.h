#ifndef OXML_RELATIONAL_PARALLEL_OPS_H_
#define OXML_RELATIONAL_PARALLEL_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/executor.h"
#include "src/relational/thread_pool.h"

namespace oxml {

/// Morsel-parallel table scan. Open() splits the scan into partitions,
/// fans them out over the thread pool (each worker materializing its
/// partition), and Next() drains the partitions in order — so the output
/// is byte-identical to the serial SeqScanOp / IndexScanOp it replaces:
/// page-chain order for heap scans, key order for index-range scans.
///
/// Heap scans partition the page chain into contiguous chunks; index scans
/// cut the key range at B+tree leaf boundaries (BPlusTree::SplitKeys).
/// Workers only read — concurrent page access is safe under the buffer
/// pool's shared latch (see docs/INTERNALS.md §9). Parameter-dependent
/// (dynamic) index bounds stay on the serial operator: their range is not
/// known until Open, after which splitting would buy nothing for the
/// selective probes they serve.
class ParallelScanOp : public Operator {
 public:
  /// Parallel full-table (heap) scan.
  ParallelScanOp(TableInfo* table, Schema qualified_schema, ThreadPool* pool,
                 ExecStats* stats);
  /// Parallel index-range scan with static bounds; `lower` inclusive,
  /// `upper` exclusive, as for IndexScanOp.
  ParallelScanOp(TableInfo* table, TableIndex* index, Schema qualified_schema,
                 std::optional<std::string> lower,
                 std::optional<std::string> upper, size_t eq_prefix,
                 ThreadPool* pool, ExecStats* stats);

  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;

 private:
  Status OpenHeap();
  Status OpenIndex();

  TableInfo* table_;
  TableIndex* index_ = nullptr;  // null = heap scan
  std::optional<std::string> lower_;
  std::optional<std::string> upper_;
  ThreadPool* pool_;
  ExecStats* stats_;
  std::vector<std::vector<Row>> partitions_;
  size_t part_ = 0;
  size_t pos_ = 0;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_PARALLEL_OPS_H_
