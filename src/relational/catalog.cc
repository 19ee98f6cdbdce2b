#include "src/relational/catalog.h"

#include <algorithm>
#include <optional>

#include "src/relational/thread_pool.h"

namespace oxml {

Result<TableIndex*> TableInfo::CreateIndex(std::string index_name,
                                           std::vector<int> column_indices,
                                           bool unique) {
  for (const auto& idx : indexes_) {
    if (idx->name == index_name) {
      return Status::AlreadyExists("index " + index_name);
    }
  }
  auto index = std::make_unique<TableIndex>();
  index->name = std::move(index_name);
  index->column_indices = std::move(column_indices);
  index->unique = unique;

  // Bulk load existing rows.
  HeapTable::Iterator it = heap_->Scan();
  Rid rid;
  Row row;
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, it.Next(&rid, &row));
    if (!has) break;
    std::string key = index->KeyFor(row);
    if (index->unique && index->tree.Contains(key)) {
      return Status::Aborted("duplicate key while building unique index " +
                             index->name);
    }
    index->tree.Insert(key, rid);
  }
  TableIndex* raw = index.get();
  indexes_.push_back(std::move(index));
  return raw;
}

Status TableInfo::RebuildIndexes() {
  std::vector<std::unique_ptr<TableIndex>> old = std::move(indexes_);
  indexes_.clear();
  for (const auto& idx : old) {
    // Re-bulk-load from the (restored) heap. Uniqueness held before the
    // rolled-back transaction, so it holds again now.
    OXML_RETURN_NOT_OK(
        CreateIndex(idx->name, idx->column_indices, idx->unique).status());
  }
  return Status::OK();
}

TableIndex* TableInfo::FindIndex(const std::string& index_name) const {
  for (const auto& idx : indexes_) {
    if (idx->name == index_name) return idx.get();
  }
  return nullptr;
}

Result<Rid> TableInfo::InsertRow(const Row& row, ExecStats* stats) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row width mismatch for table " + name_ + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema_.size()));
  }
  // Store each value with its column's type, as SQL INSERT does: an index
  // key encodes the value's type, so an INT in a DOUBLE column would sort
  // apart from every DOUBLE key. The row is copied only when needed.
  std::optional<Row> coerced;
  for (size_t i = 0; i < row.size(); ++i) {
    TypeId type = schema_.column(i).type;
    if (row[i].is_null() || row[i].type() == type) continue;
    if (!coerced.has_value()) coerced = row;
    OXML_ASSIGN_OR_RETURN((*coerced)[i], CoerceTo(row[i], type));
  }
  const Row& stored = coerced.has_value() ? *coerced : row;
  for (const auto& idx : indexes_) {
    if (idx->unique && idx->tree.Contains(idx->KeyFor(stored))) {
      return Status::Aborted("unique constraint violated on index " +
                             idx->name);
    }
  }
  OXML_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(stored));
  for (const auto& idx : indexes_) {
    idx->Insert(idx->KeyFor(stored), rid);
  }
  if (stats != nullptr) ++stats->rows_inserted;
  return rid;
}

Status TableInfo::BulkLoadRows(const std::vector<Row>& rows,
                               ThreadPool* pool, ExecStats* stats) {
  if (heap_->row_count() != 0) {
    return Status::InvalidArgument("BulkLoadRows requires an empty table " +
                                   name_);
  }
  for (const Row& row : rows) {
    if (row.size() != schema_.size()) {
      return Status::InvalidArgument(
          "row width mismatch for table " + name_ + ": got " +
          std::to_string(row.size()) + ", want " +
          std::to_string(schema_.size()));
    }
  }

  // Heap first: one tail-extension pass assigns every Rid.
  std::vector<Rid> rids;
  OXML_RETURN_NOT_OK(heap_->AppendBatch(rows, &rids));

  // Then each index is built bottom-up from its sorted (key, rid) entries.
  // Index builds are independent of each other, so fan them out when the
  // load pool is available and there is more than one index.
  auto build_index = [&](size_t i) -> Status {
    TableIndex* idx = indexes_[i].get();
    std::vector<BPlusTree::Entry> entries;
    entries.reserve(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      entries.emplace_back(idx->KeyFor(rows[r]), rids[r]);
    }
    std::sort(entries.begin(), entries.end(),
              [](const BPlusTree::Entry& a, const BPlusTree::Entry& b) {
                int c = a.first.compare(b.first);
                if (c != 0) return c < 0;
                return a.second < b.second;
              });
    if (idx->unique) {
      for (size_t e = 1; e < entries.size(); ++e) {
        if (entries[e].first == entries[e - 1].first) {
          return Status::Aborted(
              "unique constraint violated on index " + idx->name);
        }
      }
    }
    return idx->BulkBuild(std::move(entries));
  };
  if (pool != nullptr && indexes_.size() > 1) {
    OXML_RETURN_NOT_OK(pool->ParallelFor(indexes_.size(), build_index));
  } else {
    for (size_t i = 0; i < indexes_.size(); ++i) {
      OXML_RETURN_NOT_OK(build_index(i));
    }
  }
  if (stats != nullptr) stats->rows_inserted += rows.size();
  return Status::OK();
}

Status TableInfo::DeleteRow(const Rid& rid, ExecStats* stats) {
  OXML_ASSIGN_OR_RETURN(Row row, heap_->Get(rid));
  for (const auto& idx : indexes_) {
    idx->Erase(idx->KeyFor(row), rid);
  }
  OXML_RETURN_NOT_OK(heap_->Delete(rid));
  if (stats != nullptr) ++stats->rows_deleted;
  return Status::OK();
}

Result<Rid> TableInfo::UpdateRow(const Rid& rid, const Row& new_row,
                                 ExecStats* stats) {
  if (new_row.size() != schema_.size()) {
    return Status::InvalidArgument("row width mismatch for table " + name_);
  }
  OXML_ASSIGN_OR_RETURN(Row old_row, heap_->Get(rid));

  // Unique pre-check (ignoring this row's own entry).
  for (const auto& idx : indexes_) {
    if (!idx->unique) continue;
    std::string new_key = idx->KeyFor(new_row);
    if (new_key == idx->KeyFor(old_row)) continue;
    if (idx->tree.Contains(new_key)) {
      return Status::Aborted("unique constraint violated on index " +
                             idx->name);
    }
  }

  OXML_ASSIGN_OR_RETURN(Rid new_rid, heap_->Update(rid, new_row));
  for (const auto& idx : indexes_) {
    std::string old_key = idx->KeyFor(old_row);
    std::string new_key = idx->KeyFor(new_row);
    if (old_key == new_key && new_rid == rid) continue;
    idx->Erase(old_key, rid);
    idx->Insert(new_key, new_rid);
  }
  if (stats != nullptr) ++stats->rows_updated;
  return new_rid;
}

}  // namespace oxml
