#include "src/relational/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/relational/fault_injection.h"
#include "src/relational/planner.h"
#include "src/relational/sql_parser.h"
#include "src/relational/thread_pool.h"
#include "src/relational/wal.h"

namespace oxml {

/// One executable compilation of a SQL text. Operator trees are stateful
/// (Open/Next cursors), so an instance can run on at most one thread at a
/// time; `busy` marks it checked out (guarded by CachedPlan::mu).
struct PlanInstance {
  OperatorPtr plan;  // SELECT only: reusable physical plan
  StmtPtr stmt;      // non-SELECT: parsed AST, re-executed per call
  std::shared_ptr<Row> params;  // binding buffer read by this plan's
                                // ParamExprs (private to the instance)
  bool busy = false;
};

struct CachedPlan {
  std::string sql;
  StmtKind kind = StmtKind::kSelect;
  size_t param_count = 0;
  uint64_t generation = 0;  // catalog generation at compile time
  /// Persistent bindings shared by every PreparedStatement handle on this
  /// text (copied into an instance's buffer at execution). Not used by the
  /// one-shot QueryP/ExecuteP path.
  std::shared_ptr<Row> bindings;
  /// SELECT materialization size hint (last execution's row count).
  std::atomic<size_t> last_row_count{0};
  /// Guards `instances` and each instance's busy flag.
  std::mutex mu;
  std::vector<std::unique_ptr<PlanInstance>> instances;
  std::list<std::string>::iterator lru_it;  // valid only while cached
};

namespace {

/// RAII checkout of a plan instance (returns it to the entry's pool).
class InstanceLease {
 public:
  InstanceLease(CachedPlan* entry, PlanInstance* inst)
      : entry_(entry), inst_(inst) {}
  ~InstanceLease() {
    std::lock_guard<std::mutex> lock(entry_->mu);
    inst_->busy = false;
  }
  InstanceLease(const InstanceLease&) = delete;
  InstanceLease& operator=(const InstanceLease&) = delete;

 private:
  CachedPlan* entry_;
  PlanInstance* inst_;
};

}  // namespace

/// RAII statement governor: builds the QueryControl for one top-level
/// statement from the database defaults plus per-call overrides, registers
/// it for Database::Cancel, and installs it in the thread-local slot the
/// executor polls. Constructed before the statement latch is taken, so the
/// deadline clock covers time spent queued behind writers (the wait itself
/// is not interruptible — cancellation is cooperative and fires at the
/// first check point after admission, see docs/INTERNALS.md §12).
///
/// A statement nested inside another on the same thread (auto-commit
/// wrappers, ExecuteBatch's inner Execute calls, store TxnScopes) inherits
/// the enclosing control: the governor then owns nothing and counts
/// nothing, so each top-level statement is registered and tallied once.
class StatementGovernor {
 public:
  StatementGovernor(Database* db, const StatementOptions& opts) : db_(db) {
    if (CurrentQueryControl() != nullptr) return;  // nested: inherit
    control_ = std::make_shared<QueryControl>();
    int64_t timeout_ms =
        opts.timeout_ms >= 0
            ? opts.timeout_ms
            : static_cast<int64_t>(db_->options_.default_statement_timeout_ms);
    if (timeout_ms > 0) {
      control_->SetDeadline(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms));
    }
    uint64_t budget =
        opts.memory_budget_bytes >= 0
            ? static_cast<uint64_t>(opts.memory_budget_bytes)
            : db_->options_.statement_memory_budget_bytes;
    control_->SetMemoryLimits(budget, &db_->global_budget_);
    uint64_t id = db_->RegisterExternalControl(control_);
    if (opts.statement_id != nullptr) *opts.statement_id = id;
    scope_.emplace(control_.get());
  }

  ~StatementGovernor() {
    if (control_ == nullptr) return;
    scope_.reset();
    db_->UnregisterControl(control_->statement_id());
  }

  StatementGovernor(const StatementGovernor&) = delete;
  StatementGovernor& operator=(const StatementGovernor&) = delete;

  /// Tallies the statement's final status into ExecStats (owning governors
  /// only, so one trip counts once however deeply the failure surfaced).
  void NoteOutcome(const Status& st) {
    if (control_ == nullptr || st.ok()) return;
    if (st.IsDeadlineExceeded()) ++db_->stats_.statements_timed_out;
    if (st.IsCancelled()) ++db_->stats_.statements_cancelled;
    if (st.IsResourceExhausted()) ++db_->stats_.mem_budget_rejections;
  }

 private:
  Database* db_;
  std::shared_ptr<QueryControl> control_;
  std::optional<ScopedQueryControl> scope_;
};

namespace {

/// The session identity attributed to engine calls on this thread (0 =
/// embedded API). Installed by ScopedSessionIdentity; consulted by the
/// transaction-ownership checks so a session's transaction can be driven
/// from any pool thread the server happens to schedule.
thread_local uint64_t tls_session_id = 0;

}  // namespace

uint64_t CurrentSessionId() { return tls_session_id; }

ScopedSessionIdentity::ScopedSessionIdentity(uint64_t session_id)
    : prev_(tls_session_id) {
  tls_session_id = session_id;
}

ScopedSessionIdentity::~ScopedSessionIdentity() { tls_session_id = prev_; }

bool Database::CurrentThreadOwnsTxn() const {
  if (!txn_open_.load(std::memory_order_acquire)) return false;
  uint64_t session = txn_session_.load(std::memory_order_acquire);
  if (session != 0) return CurrentSessionId() == session;
  return txn_owner_.load(std::memory_order_relaxed) ==
         std::this_thread::get_id();
}

WriteStatementGuard::WriteStatementGuard(Database* db) : db_(db) {
  for (;;) {
    db_->latch_.LockExclusive();
    if (!db_->txn_open_.load(std::memory_order_acquire) ||
        db_->CurrentThreadOwnsTxn()) {
      return;
    }
    // A foreign session's transaction is open: running this mutation now
    // would splice it into work the owner may yet roll back. Drop the
    // latch before waiting — holding it would deadlock the owner, whose
    // Commit/Rollback needs exclusivity to end the transaction.
    db_->latch_.UnlockExclusive();
    std::unique_lock<std::mutex> lock(db_->txn_mu_);
    while (db_->txn_open_.load(std::memory_order_acquire)) {
      // Poll the statement's governance token while gated: a server worker
      // parked behind another session's transaction must honor its
      // deadline and out-of-band cancellation, or a stalled owner would
      // pin pool workers (and admission slots) indefinitely.
      status_ = CheckCurrentControl();
      if (!status_.ok()) return;
      db_->txn_cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
  }
}

WriteStatementGuard::~WriteStatementGuard() {
  if (status_.ok()) db_->latch_.UnlockExclusive();
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  std::unique_ptr<StorageBackend> backend;
  std::unique_ptr<WriteAheadLog> wal;
  uint64_t recovered_commit_lsn = 0;
  // One retry tally shared by every layer that absorbs transient I/O
  // faults (file backend, fault-injecting wrapper, WAL); surfaced as
  // ExecStats::io_retries.
  auto io_retries = std::make_shared<std::atomic<uint64_t>>(0);
  if (!options.file_path.empty()) {
    OXML_ASSIGN_OR_RETURN(
        std::unique_ptr<FileBackend> fb,
        FileBackend::Open(options.file_path,
                          /*truncate=*/!options.open_existing));
    fb->set_retry_counter(io_retries);
    backend = std::move(fb);
    if (options.fault_plan != nullptr) {
      auto faulty = std::make_unique<FaultInjectingBackend>(
          std::move(backend), options.fault_plan);
      faulty->set_retry_counter(io_retries);
      backend = std::move(faulty);
    }
    if (options.enable_wal) {
      const std::string wal_path = options.file_path + ".wal";
      if (options.open_existing) {
        // Crash recovery: apply the last committed image of every page the
        // log mentions to the data file before anything reads it. The scan
        // tolerates a torn tail — that is the expected shape of a crash.
        OXML_ASSIGN_OR_RETURN(WalRecovery rec,
                              WriteAheadLog::Recover(wal_path));
        for (const auto& [page_id, image] : rec.pages) {
          // An embedder bounding recovery time (ScopedQueryControl around
          // Open) is honored here too, between page applications.
          OXML_RETURN_NOT_OK(CheckCurrentControl());
          while (backend->page_count() <= page_id) {
            OXML_RETURN_NOT_OK(backend->AllocatePage().status());
          }
          OXML_RETURN_NOT_OK(backend->WritePage(page_id, image.data()));
        }
        if (!rec.pages.empty()) OXML_RETURN_NOT_OK(backend->Sync());
        // Re-seed the snapshot clock past every durable commit so LSNs
        // stay monotone across reopen (pre-LSN logs recover as 0).
        recovered_commit_lsn = rec.last_commit_lsn;
      }
      WalOptions wopts;
      wopts.sync_on_commit = options.wal_sync_on_commit;
      wopts.group_commit_every = options.wal_group_commit_every;
      OXML_ASSIGN_OR_RETURN(
          wal, WriteAheadLog::Open(wal_path, wopts, options.fault_plan));
      wal->set_retry_counter(io_retries);
      // The data file is now current (fresh database, or recovery just made
      // it so — and fsynced it above); start from an empty log. Replay is
      // idempotent, so a crash before this truncation merely replays again.
      OXML_RETURN_NOT_OK(wal->Reset());
    }
  } else {
    backend = std::make_unique<MemoryBackend>();
  }
  bool have_pages = backend->page_count() > 0;
  auto pool = std::make_unique<BufferPool>(std::move(backend),
                                           options.buffer_capacity);
  pool->SeedCommitLsn(recovered_commit_lsn);
  auto db = std::unique_ptr<Database>(new Database(std::move(pool)));
  db->options_ = options;
  db->plan_cache_capacity_ = options.plan_cache_capacity;
  db->io_retries_ = io_retries;
  db->global_budget_.cap = options.total_memory_budget_bytes;
  if (options.enable_parallel_execution) {
    db->exec_pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  if (options.num_load_threads > 0) {
    db->load_pool_ = std::make_unique<ThreadPool>(options.num_load_threads);
  }
  db->wal_ = std::move(wal);
  db->pool_->SetWal(db->wal_.get());
  if (options.open_existing && have_pages) {
    OXML_RETURN_NOT_OK(db->LoadCatalog());
  } else {
    // Reserve page 0 for the catalog so table pages start at 1.
    OXML_ASSIGN_OR_RETURN(PageHandle page, db->pool_->NewPage());
    if (page.page_id() != 0) {
      return Status::Internal("catalog page is not page 0");
    }
    page.MarkDirty();
    if (db->wal_ != nullptr) {
      // Commit the empty catalog so a crash at any later point recovers to
      // a valid (if empty) database rather than a zeroed page 0.
      db->catalog_dirty_ = true;
      OXML_RETURN_NOT_OK(db->Begin());
      OXML_RETURN_NOT_OK(db->Commit());
    }
  }
  return db;
}

Database::Database(std::unique_ptr<BufferPool> pool)
    : pool_(std::move(pool)) {}

Database::~Database() {
  if (closed_) return;
  Status st = Close();
  if (!st.ok()) {
    std::fprintf(stderr,
                 "oxml: Database close failed (the WAL, if any, still holds "
                 "the committed history): %s\n",
                 st.ToString().c_str());
  }
}

Status Database::Close() {
  ExclusiveStatementGuard guard(&latch_);
  if (closed_) return Status::OK();
  Status st = Status::OK();
  if (pool_->InTxn()) {
    // An abandoned open transaction is discarded, exactly as a crash
    // would discard it. RollbackInner skips the ownership pre-checks:
    // the thread destroying the database may not be the one that opened
    // the transaction it is abandoning.
    st = RollbackInner();
    // A failed rollback already crashed the database out (buffered state
    // discarded, WAL detached): checkpointing it would flush garbage.
    if (closed_) return st;
  }
  Status cp = Checkpoint();
  if (st.ok()) st = cp;
  closed_ = true;
  wal_.reset();
  pool_->SetWal(nullptr);
  return st;
}

void Database::SimulateCrashForTesting() {
  ExclusiveStatementGuard guard(&latch_);
  // Nothing is flushed from here on: the destructor discards the pool, the
  // WAL fd closes without a truncation, and the data file keeps whatever
  // the last checkpoint (plus eviction write-backs) put there.
  pool_->set_discard_on_destroy(true);
  pool_->SetWal(nullptr);
  wal_.reset();
  closed_ = true;
  // Release any writer gate-waiting on an open transaction: the crash
  // killed it, and they would otherwise wait forever.
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    txn_open_.store(false, std::memory_order_release);
    txn_owner_.store(std::thread::id(), std::memory_order_relaxed);
    txn_session_.store(0, std::memory_order_release);
  }
  txn_cv_.notify_all();
}

namespace {

// Catalog serialization helpers (page 0 layout: magic, version, payload
// length, payload).
constexpr uint32_t kCatalogMagic = 0x4F584D4Cu;  // "OXML"
constexpr uint32_t kCatalogVersion = 1;

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}
void PutU32C(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
void PutU64C(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}
void PutStr(const std::string& s, std::string* out) {
  PutU32C(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

class CatalogReader {
 public:
  CatalogReader(const char* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> U8() {
    if (pos_ + 1 > size_) return Fail();
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> U32() {
    if (pos_ + 4 > size_) return Fail();
    uint32_t v;
    std::memcpy(&v, data_ + pos_, 4);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (pos_ + 8 > size_) return Fail();
    uint64_t v;
    std::memcpy(&v, data_ + pos_, 8);
    pos_ += 8;
    return v;
  }
  Result<std::string> Str() {
    OXML_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (pos_ + len > size_) return Fail();
    std::string out(data_ + pos_, len);
    pos_ += len;
    return out;
  }

 private:
  Status Fail() const { return Status::IOError("truncated catalog page"); }
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

Status Database::SaveCatalog() {
  std::string payload;
  PutU32C(static_cast<uint32_t>(tables_.size()), &payload);
  for (const auto& [name, table] : tables_) {
    PutStr(name, &payload);
    const Schema& schema = table->schema();
    PutU32C(static_cast<uint32_t>(schema.size()), &payload);
    for (const Column& col : schema.columns()) {
      PutStr(col.name, &payload);
      PutU8(static_cast<uint8_t>(col.type), &payload);
    }
    const HeapTable* heap = table->heap();
    PutU32C(heap->first_page(), &payload);
    PutU32C(heap->last_page(), &payload);
    PutU64C(heap->row_count(), &payload);
    PutU64C(heap->page_chain_length(), &payload);
    PutU64C(heap->data_bytes(), &payload);
    PutU32C(static_cast<uint32_t>(table->indexes().size()), &payload);
    for (const auto& idx : table->indexes()) {
      PutStr(idx->name, &payload);
      PutU8(idx->unique ? 1 : 0, &payload);
      PutU32C(static_cast<uint32_t>(idx->column_indices.size()), &payload);
      for (int c : idx->column_indices) {
        PutU32C(static_cast<uint32_t>(c), &payload);
      }
    }
  }
  if (payload.size() + 12 > kPageSize) {
    return Status::IOError("catalog exceeds one page (" +
                           std::to_string(payload.size()) + " bytes)");
  }
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(0));
  std::string header;
  PutU32C(kCatalogMagic, &header);
  PutU32C(kCatalogVersion, &header);
  PutU32C(static_cast<uint32_t>(payload.size()), &header);
  std::memcpy(page.data(), header.data(), header.size());
  std::memcpy(page.data() + header.size(), payload.data(), payload.size());
  page.MarkDirty();
  return Status::OK();
}

Status Database::LoadCatalog() {
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(0));
  CatalogReader header(page.data(), kPageSize);
  OXML_ASSIGN_OR_RETURN(uint32_t magic, header.U32());
  OXML_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  OXML_ASSIGN_OR_RETURN(uint32_t payload_len, header.U32());
  if (magic != kCatalogMagic) {
    return Status::IOError("not an ordered-xml database file (bad magic)");
  }
  if (version != kCatalogVersion) {
    return Status::IOError("unsupported catalog version " +
                           std::to_string(version));
  }
  if (payload_len + 12 > kPageSize) {
    return Status::IOError("corrupt catalog length");
  }
  CatalogReader in(page.data() + 12, payload_len);

  OXML_ASSIGN_OR_RETURN(uint32_t ntables, in.U32());
  for (uint32_t t = 0; t < ntables; ++t) {
    OXML_ASSIGN_OR_RETURN(std::string name, in.Str());
    OXML_ASSIGN_OR_RETURN(uint32_t ncols, in.U32());
    std::vector<Column> cols;
    for (uint32_t c = 0; c < ncols; ++c) {
      Column col;
      OXML_ASSIGN_OR_RETURN(col.name, in.Str());
      OXML_ASSIGN_OR_RETURN(uint8_t type, in.U8());
      col.type = static_cast<TypeId>(type);
      cols.push_back(std::move(col));
    }
    OXML_ASSIGN_OR_RETURN(uint32_t first_page, in.U32());
    OXML_ASSIGN_OR_RETURN(uint32_t last_page, in.U32());
    OXML_ASSIGN_OR_RETURN(uint64_t row_count, in.U64());
    OXML_ASSIGN_OR_RETURN(uint64_t chain, in.U64());
    OXML_ASSIGN_OR_RETURN(uint64_t data_bytes, in.U64());
    Schema schema(cols);
    std::unique_ptr<HeapTable> heap =
        HeapTable::Attach(pool_.get(), schema, first_page, last_page,
                          row_count, chain, data_bytes);
    auto table =
        std::make_unique<TableInfo>(name, std::move(schema), std::move(heap));

    OXML_ASSIGN_OR_RETURN(uint32_t nindexes, in.U32());
    for (uint32_t i = 0; i < nindexes; ++i) {
      OXML_ASSIGN_OR_RETURN(std::string iname, in.Str());
      OXML_ASSIGN_OR_RETURN(uint8_t unique, in.U8());
      OXML_ASSIGN_OR_RETURN(uint32_t nic, in.U32());
      std::vector<int> positions;
      for (uint32_t c = 0; c < nic; ++c) {
        OXML_ASSIGN_OR_RETURN(uint32_t pos, in.U32());
        positions.push_back(static_cast<int>(pos));
      }
      // Rebuilds the memory-resident B+tree by scanning the heap.
      OXML_RETURN_NOT_OK(
          table->CreateIndex(iname, std::move(positions), unique != 0)
              .status());
    }
    tables_[name] = std::move(table);
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  WriteStatementGuard guard(this);
  OXML_RETURN_NOT_OK(guard.status());
  if (closed_) return Status::InvalidArgument("database is closed");
  if (pool_->InTxn()) {
    return Status::InvalidArgument("cannot checkpoint inside a transaction");
  }
  OXML_RETURN_NOT_OK(SaveCatalog());
  OXML_RETURN_NOT_OK(pool_->FlushAll());
  if (wal_ != nullptr) {
    // Only after the data file is durably current may the log be emptied.
    // A crash anywhere before the Reset just replays the old log — replay
    // is idempotent over the flushed pages.
    OXML_RETURN_NOT_OK(pool_->SyncBackend());
    OXML_RETURN_NOT_OK(wal_->Reset());
  }
  catalog_dirty_ = false;
  return Status::OK();
}

// ------------------------------------------------------------ transactions

bool Database::InTransaction() const {
  return txn_open_.load(std::memory_order_acquire);
}

void Database::EndTxnBookkeeping() {
  heap_snapshot_.clear();
  for (const auto& [name, table] : tables_) {
    for (const auto& idx : table->indexes()) idx->EndTxnTracking();
  }
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    txn_open_.store(false, std::memory_order_release);
    txn_owner_.store(std::thread::id(), std::memory_order_relaxed);
    txn_session_.store(0, std::memory_order_release);
  }
  txn_cv_.notify_all();
}

void Database::SyncMvccStats() {
  stats_.snapshot_reads = pool_->snapshot_read_count();
  stats_.versions_retained = pool_->versions_retained();
  stats_.version_chain_max = pool_->version_chain_max();
}

void Database::MaybeBeginSnapshot(
    std::optional<ScopedReadSnapshot>* snap) const {
  if (!txn_open_.load(std::memory_order_acquire)) return;
  if (CurrentThreadOwnsTxn()) {
    return;  // the owner reads its own uncommitted state directly
  }
  // txn_open_ cannot flip while this reader holds the shared latch — both
  // Begin and the Commit/Rollback install points hold it exclusively — so
  // the armed snapshot stays meaningful for the whole statement.
  snap->emplace(pool_->last_commit_lsn());
}

Status Database::Begin() {
  // Gate, don't fail, when another thread's transaction is open: callers
  // (TxnScope all over the stores) rely on a second Begin waiting its turn.
  WriteStatementGuard guard(this);
  OXML_RETURN_NOT_OK(guard.status());
  if (closed_) return Status::InvalidArgument("database is closed");
  OXML_RETURN_NOT_OK(pool_->BeginTxn());  // rejects nesting
  heap_snapshot_.clear();
  for (const auto& [name, table] : tables_) {
    heap_snapshot_[name] = table->heap()->SnapshotMetadata();
  }
  // Arm the per-index transaction deltas that let overlapping snapshot
  // readers reconstruct the committed view of each B+tree (the trees
  // themselves are memory-resident and mutate in place).
  for (const auto& [name, table] : tables_) {
    for (const auto& idx : table->indexes()) idx->BeginTxnTracking();
  }
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    txn_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    // A Begin issued under a session identity binds the transaction to the
    // session, not the thread: any pool thread carrying the same identity
    // may run its statements and end it. 0 keeps the thread-bound
    // (embedded) discipline.
    txn_session_.store(CurrentSessionId(), std::memory_order_release);
    txn_open_.store(true, std::memory_order_release);
  }
  return Status::OK();
}

Status Database::Commit() {
  if (!txn_open_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("no transaction is open");
  }
  if (!CurrentThreadOwnsTxn()) {
    return Status::InvalidArgument(
        "transaction is owned by another session or thread");
  }
  // The commit install point: exclusivity drains concurrent snapshot
  // readers, so flipping the committed state (pages + index deltas) is
  // atomic with respect to every statement.
  ExclusiveStatementGuard guard(&latch_);
  if (!pool_->InTxn()) {
    return Status::InvalidArgument("no transaction is open");
  }
  if (pool_->TxnDirtyCount() > 0 || catalog_dirty_) {
    // The catalog page rides in every commit: heap metadata (row counts,
    // tail pages) lives only there, and recovery rebuilds tables from it.
    OXML_RETURN_NOT_OK(SaveCatalog());
  }
  // On failure the transaction stays open for the caller to roll back.
  OXML_RETURN_NOT_OK(pool_->CommitTxn());
  catalog_dirty_ = false;
  EndTxnBookkeeping();
  if (wal_ != nullptr && options_.wal_checkpoint_threshold_bytes > 0 &&
      wal_->size_bytes() > options_.wal_checkpoint_threshold_bytes) {
    // The commit above is already durable; a failed auto-checkpoint only
    // leaves the log longer than intended, so it must not fail the commit.
    // The log keeps growing past the threshold, so the very next commit
    // re-enters this branch and retries — no separate retry state needed.
    // (A failed FlushAll cannot corrupt: committed page images stay in the
    // WAL until a successful Reset, and replay is idempotent.)
    Status cp = Checkpoint();
    if (!cp.ok()) {
      ++stats_.checkpoints_failed;
      std::fprintf(stderr,
                   "oxml: auto-checkpoint failed (will retry at next "
                   "threshold crossing): %s\n",
                   cp.ToString().c_str());
    }
  }
  return Status::OK();
}

Status Database::Rollback() {
  // A transaction that is already over — including one torn down by a failed Commit's crash-out
  // path — makes Rollback a safe error, never a second undo pass.
  if (!txn_open_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("no transaction is open");
  }
  if (!CurrentThreadOwnsTxn()) {
    return Status::InvalidArgument(
        "transaction is owned by another session or thread");
  }
  ExclusiveStatementGuard guard(&latch_);
  return RollbackInner();
}

Status Database::RollbackInner() {
  if (!pool_->InTxn()) {
    return Status::InvalidArgument("no transaction is open");
  }
  Status undo = pool_->RollbackTxn();
  if (!undo.ok()) {
    // The pool may hold a mix of restored and unrestored pages; nothing in
    // memory can be trusted. Fail the database the way a crash would:
    // discard buffered state, keep the WAL on disk (it still holds the
    // committed history for the next open), and refuse further work.
    pool_->set_discard_on_destroy(true);
    pool_->SetWal(nullptr);
    wal_.reset();
    closed_ = true;
    EndTxnBookkeeping();
    InvalidatePlans();
    return undo;
  }
  Status rebuilt = Status::OK();
  for (const auto& [name, meta] : heap_snapshot_) {
    TableInfo* t = GetTable(name);
    if (t == nullptr) continue;  // unreachable: DDL is barred inside txns
    t->heap()->RestoreMetadata(meta);
    // The in-memory B+trees have no pre-images; recompute them from the
    // restored heaps, the same way Open does. Keep going on failure so
    // every table is restored and the stale plans below still die.
    Status r = t->RebuildIndexes();
    if (rebuilt.ok()) rebuilt = r;
  }
  EndTxnBookkeeping();
  // Rebuilding invalidated every TableIndex* captured by cached plans.
  InvalidatePlans();
  return rebuilt;
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  WriteStatementGuard guard(this);
  OXML_RETURN_NOT_OK(guard.status());
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table " + name);
  }
  if (pool_->InTxn()) {
    return Status::InvalidArgument("DDL cannot run inside a transaction");
  }
  OXML_RETURN_NOT_OK(Begin());
  auto heap = HeapTable::Create(pool_.get(), schema);
  if (!heap.ok()) {
    (void)Rollback();
    return heap.status();
  }
  tables_[name] = std::make_unique<TableInfo>(name, std::move(schema),
                                              std::move(heap).value());
  InvalidatePlans();
  Status c = Commit();
  if (!c.ok()) {
    tables_.erase(name);
    (void)Rollback();
    return c;
  }
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  WriteStatementGuard guard(this);
  OXML_RETURN_NOT_OK(guard.status());
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  if (pool_->InTxn()) {
    return Status::InvalidArgument("DDL cannot run inside a transaction");
  }
  // Pages are not reclaimed (no free list); the catalog entry goes away.
  // Cached plans hold raw TableInfo*/TableIndex* into the dropped table, so
  // every one of them must go before anything can execute again.
  OXML_RETURN_NOT_OK(Begin());
  auto node = tables_.extract(it);
  InvalidatePlans();
  Status c = Commit();
  if (!c.ok()) {
    tables_.insert(std::move(node));
    (void)Rollback();
    return c;
  }
  return Status::OK();
}

Status Database::CreateIndex(const std::string& index_name,
                             const std::string& table,
                             const std::vector<std::string>& columns,
                             bool unique) {
  WriteStatementGuard guard(this);
  OXML_RETURN_NOT_OK(guard.status());
  TableInfo* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  if (pool_->InTxn()) {
    return Status::InvalidArgument("DDL cannot run inside a transaction");
  }
  std::vector<int> positions;
  for (const std::string& col : columns) {
    int idx = t->schema().IndexOf(col);
    if (idx < 0) {
      return Status::NotFound("no column " + col + " in table " + table);
    }
    positions.push_back(idx);
  }
  // Building the index only reads the heap; the transaction exists to make
  // the catalog entry durable.
  OXML_RETURN_NOT_OK(Begin());
  Status built =
      t->CreateIndex(index_name, std::move(positions), unique).status();
  if (!built.ok()) {
    (void)Rollback();
    return built;
  }
  // Cached access paths were chosen without this index; recompile.
  InvalidatePlans();
  Status c = Commit();
  if (!c.ok()) {
    // The in-memory index stays; catalog_dirty_ remains set, so the next
    // successful commit persists its definition.
    (void)Rollback();
    return c;
  }
  return Status::OK();
}

TableInfo* Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Result<Rid> Database::Insert(const std::string& table, const Row& row) {
  WriteStatementGuard guard(this);
  OXML_RETURN_NOT_OK(guard.status());
  TableInfo* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  if (pool_->InTxn()) return t->InsertRow(row, &stats_);
  // Auto-commit: a single programmatic insert is its own transaction.
  OXML_RETURN_NOT_OK(Begin());
  Result<Rid> r = t->InsertRow(row, &stats_);
  if (!r.ok()) {
    (void)Rollback();
    return r.status();
  }
  Status c = Commit();
  if (!c.ok()) {
    (void)Rollback();
    return c;
  }
  return r;
}

Result<int64_t> Database::BulkLoadRows(const std::string& table,
                                       const std::vector<Row>& rows) {
  // The bulk load is one governed statement, so the parallel shred/build
  // pipeline's per-unit checks and run-buffer charges have a control to
  // hit (a load started inside an outer statement inherits its control).
  StatementGovernor governor(this, StatementOptions{});
  WriteStatementGuard guard(this);
  if (!guard.status().ok()) {
    governor.NoteOutcome(guard.status());
    return guard.status();
  }
  auto run = [&]() -> Result<int64_t> {
    TableInfo* t = GetTable(table);
    if (t == nullptr) return Status::NotFound("no such table: " + table);
    // Bulk index construction needs empty trees; a populated table is
    // rejected before any transaction starts.
    if (t->heap()->row_count() != 0) {
      return Status::InvalidArgument("BulkLoadRows requires an empty table: " +
                                     table);
    }
    if (pool_->InTxn()) {
      OXML_RETURN_NOT_OK(t->BulkLoadRows(rows, load_pool_.get(), &stats_));
      return static_cast<int64_t>(rows.size());
    }
    // Auto-commit: the whole batch is one transaction, so the WAL receives
    // every dirtied page image followed by a single commit record.
    OXML_RETURN_NOT_OK(Begin());
    Status st = t->BulkLoadRows(rows, load_pool_.get(), &stats_);
    if (!st.ok()) {
      (void)Rollback();
      return st;
    }
    Status c = Commit();
    if (!c.ok()) {
      (void)Rollback();
      return c;
    }
    return static_cast<int64_t>(rows.size());
  };
  Result<int64_t> r = run();
  governor.NoteOutcome(r.status());
  return r;
}

void Database::InvalidatePlans() {
  // Callers hold the statement latch exclusively (DDL / rollback), so no
  // reader is compiling concurrently; the cache mutex still guards against
  // entries being spliced by a hit on another thread... which cannot exist
  // under exclusivity, but the invariant "plan_cache_/lru_ only under
  // plan_cache_mu_" is cheap to keep unconditional.
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  ++catalog_generation_;
  plan_cache_.clear();
  lru_.clear();
  catalog_dirty_ = true;
}

namespace {

bool IsCacheableKind(StmtKind kind) {
  switch (kind) {
    case StmtKind::kSelect:
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
      return true;
    default:
      return false;  // DDL is rare and invalidates the cache anyway
  }
}

}  // namespace

Result<std::unique_ptr<PlanInstance>> Database::CompileInstance(
    const std::string& sql, StmtKind* kind, size_t* param_count) {
  auto start = std::chrono::steady_clock::now();
  OXML_ASSIGN_OR_RETURN(ParsedStatement parsed, ParseSqlWithParams(sql));
  auto inst = std::make_unique<PlanInstance>();
  inst->params = std::move(parsed.params);
  if (kind != nullptr) *kind = parsed.stmt->kind;
  if (param_count != nullptr) *param_count = parsed.param_count;
  if (parsed.stmt->kind == StmtKind::kSelect) {
    OXML_ASSIGN_OR_RETURN(
        inst->plan,
        PlanSelect(this, static_cast<SelectStmt*>(parsed.stmt.get())));
  } else {
    inst->stmt = std::move(parsed.stmt);
  }
  stats_.parse_plan_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return inst;
}

Result<std::shared_ptr<CachedPlan>> Database::GetOrBuildPlan(
    std::string_view sql) {
  std::string key(sql);
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      ++stats_.plan_cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second->lru_it);
      return it->second;
    }
  }
  ++stats_.plan_cache_misses;

  // Compile outside the cache mutex: planning reads only the catalog
  // (protected by the statement latch every caller already holds).
  auto entry = std::make_shared<CachedPlan>();
  entry->sql = key;
  entry->generation = catalog_generation_;
  OXML_ASSIGN_OR_RETURN(
      std::unique_ptr<PlanInstance> inst,
      CompileInstance(key, &entry->kind, &entry->param_count));
  entry->bindings = std::make_shared<Row>(entry->param_count, Value::Null());
  entry->instances.push_back(std::move(inst));

  if (plan_cache_capacity_ > 0 && IsCacheableKind(entry->kind)) {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      // Another reader compiled the same text while we were planning; keep
      // the cached entry (ours is dropped) so all threads share one pool.
      lru_.splice(lru_.begin(), lru_, it->second->lru_it);
      return it->second;
    }
    lru_.push_front(key);
    entry->lru_it = lru_.begin();
    plan_cache_[key] = entry;
    if (plan_cache_.size() > plan_cache_capacity_) {
      plan_cache_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  return entry;
}

Result<PlanInstance*> Database::AcquireInstance(CachedPlan* entry) {
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    for (auto& inst : entry->instances) {
      if (!inst->busy) {
        inst->busy = true;
        return inst.get();
      }
    }
  }
  // Every instance is executing on another thread: compile one more. The
  // pool grows to the peak concurrency on this text and is then reused.
  OXML_ASSIGN_OR_RETURN(std::unique_ptr<PlanInstance> inst,
                        CompileInstance(entry->sql, nullptr, nullptr));
  inst->busy = true;
  PlanInstance* raw = inst.get();
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->instances.push_back(std::move(inst));
  return raw;
}

Result<int64_t> Database::ExecuteEntry(CachedPlan* entry,
                                       PlanInstance* inst) {
  bool dml = entry->kind == StmtKind::kInsert ||
             entry->kind == StmtKind::kUpdate ||
             entry->kind == StmtKind::kDelete;
  // Auto-commit: a standalone DML statement is its own transaction (DDL
  // manages durability itself; SELECT mutates nothing).
  if (!dml || pool_->InTxn()) return ExecuteEntryInner(entry, inst);
  OXML_RETURN_NOT_OK(Begin());
  Result<int64_t> r = ExecuteEntryInner(entry, inst);
  if (!r.ok()) {
    (void)Rollback();
    return r.status();
  }
  Status c = Commit();
  if (!c.ok()) {
    (void)Rollback();
    return c;
  }
  return r;
}

Result<int64_t> Database::ExecuteEntryInner(CachedPlan* entry,
                                            PlanInstance* inst) {
  switch (entry->kind) {
    case StmtKind::kSelect: {
      OXML_ASSIGN_OR_RETURN(
          ResultSet rs,
          ExecuteToResultSet(
              inst->plan.get(),
              entry->last_row_count.load(std::memory_order_relaxed)));
      entry->last_row_count.store(rs.rows.size(),
                                  std::memory_order_relaxed);
      return static_cast<int64_t>(rs.rows.size());
    }
    case StmtKind::kInsert:
      return ExecuteInsert(static_cast<InsertStmt*>(inst->stmt.get()));
    case StmtKind::kUpdate:
      return ExecuteUpdate(static_cast<UpdateStmt*>(inst->stmt.get()));
    case StmtKind::kDelete:
      return ExecuteDelete(static_cast<DeleteStmt*>(inst->stmt.get()));
    case StmtKind::kCreateTable: {
      auto* ct = static_cast<CreateTableStmt*>(inst->stmt.get());
      OXML_RETURN_NOT_OK(CreateTable(ct->table, Schema(ct->columns)));
      return 0;
    }
    case StmtKind::kCreateIndex: {
      auto* ci = static_cast<CreateIndexStmt*>(inst->stmt.get());
      OXML_RETURN_NOT_OK(
          CreateIndex(ci->index, ci->table, ci->columns, ci->unique));
      return 0;
    }
    case StmtKind::kDropTable: {
      auto* dt = static_cast<DropTableStmt*>(inst->stmt.get());
      OXML_RETURN_NOT_OK(DropTable(dt->table));
      return 0;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<ResultSet> Database::QueryLocked(std::string_view sql, Row* params) {
  ++stats_.statements;
  OXML_ASSIGN_OR_RETURN(std::shared_ptr<CachedPlan> entry,
                        GetOrBuildPlan(sql));
  if (entry->kind != StmtKind::kSelect) {
    return Status::InvalidArgument("Query() requires a SELECT statement");
  }
  if (params == nullptr) {
    if (entry->param_count > 0) {
      return Status::InvalidArgument(
          "statement has '?' parameters; use QueryP() or Prepare()");
    }
  } else if (params->size() != entry->param_count) {
    return Status::InvalidArgument(
        "QueryP got " + std::to_string(params->size()) + " values for " +
        std::to_string(entry->param_count) + " parameters");
  }
  OXML_ASSIGN_OR_RETURN(PlanInstance * inst, AcquireInstance(entry.get()));
  InstanceLease lease(entry.get(), inst);
  if (params != nullptr) *inst->params = std::move(*params);
  OXML_ASSIGN_OR_RETURN(
      ResultSet rs,
      ExecuteToResultSet(
          inst->plan.get(),
          entry->last_row_count.load(std::memory_order_relaxed)));
  entry->last_row_count.store(rs.rows.size(), std::memory_order_relaxed);
  SyncMvccStats();
  return rs;
}

Result<ResultSet> Database::Query(std::string_view sql,
                                  const StatementOptions& sopts) {
  // Governor before the latch: the deadline clock covers queueing time.
  StatementGovernor governor(this, sopts);
  SharedStatementGuard guard(&latch_);
  std::optional<ScopedReadSnapshot> snap;
  MaybeBeginSnapshot(&snap);
  Result<ResultSet> r = QueryLocked(sql, nullptr);
  governor.NoteOutcome(r.status());
  return r;
}

Result<ResultSet> Database::QueryP(std::string_view sql, Row params,
                                   const StatementOptions& sopts) {
  StatementGovernor governor(this, sopts);
  SharedStatementGuard guard(&latch_);
  std::optional<ScopedReadSnapshot> snap;
  MaybeBeginSnapshot(&snap);
  Result<ResultSet> r = QueryLocked(sql, &params);
  governor.NoteOutcome(r.status());
  return r;
}

Status Database::Cancel(uint64_t statement_id) {
  // Copy the shared_ptr out under the registry lock, then flip the flag
  // outside it: the statement may finish (and unregister) concurrently,
  // and the control must stay alive for this call either way.
  std::shared_ptr<QueryControl> ctl;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(statement_id);
    if (it == inflight_.end()) {
      return Status::NotFound("no in-flight statement with id " +
                              std::to_string(statement_id));
    }
    ctl = it->second;
  }
  ctl->Cancel();
  return Status::OK();
}

uint64_t Database::RegisterExternalControl(
    std::shared_ptr<QueryControl> control) {
  uint64_t id =
      statement_id_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  control->set_statement_id(id);
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_[id] = std::move(control);
  return id;
}

void Database::UnregisterControl(uint64_t statement_id) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(statement_id);
}

Result<std::string> Database::Explain(std::string_view sql) {
  SharedStatementGuard guard(&latch_);
  OXML_ASSIGN_OR_RETURN(ParsedStatement parsed, ParseSqlWithParams(sql));
  if (parsed.stmt->kind != StmtKind::kSelect) {
    return Status::InvalidArgument("Explain() requires a SELECT statement");
  }
  OXML_ASSIGN_OR_RETURN(
      OperatorPtr plan,
      PlanSelect(this, static_cast<SelectStmt*>(parsed.stmt.get())));
  std::string out;
  plan->Describe(0, &out);
  return out;
}

Result<int64_t> Database::ExecuteLocked(std::string_view sql, Row* params) {
  ++stats_.statements;
  OXML_ASSIGN_OR_RETURN(std::shared_ptr<CachedPlan> entry,
                        GetOrBuildPlan(sql));
  if (params == nullptr) {
    if (entry->param_count > 0) {
      return Status::InvalidArgument(
          "statement has '?' parameters; use ExecuteP() or Prepare()");
    }
  } else if (params->size() != entry->param_count) {
    return Status::InvalidArgument(
        "ExecuteP got " + std::to_string(params->size()) + " values for " +
        std::to_string(entry->param_count) + " parameters");
  }
  OXML_ASSIGN_OR_RETURN(PlanInstance * inst, AcquireInstance(entry.get()));
  InstanceLease lease(entry.get(), inst);
  if (params != nullptr) *inst->params = std::move(*params);
  return ExecuteEntry(entry.get(), inst);
}

Result<int64_t> Database::Execute(std::string_view sql,
                                  const StatementOptions& sopts) {
  StatementGovernor governor(this, sopts);
  WriteStatementGuard guard(this);
  if (!guard.status().ok()) {
    governor.NoteOutcome(guard.status());
    return guard.status();
  }
  Result<int64_t> r = ExecuteLocked(sql, nullptr);
  governor.NoteOutcome(r.status());
  return r;
}

Result<int64_t> Database::ExecuteP(std::string_view sql, Row params,
                                   const StatementOptions& sopts) {
  StatementGovernor governor(this, sopts);
  WriteStatementGuard guard(this);
  if (!guard.status().ok()) {
    governor.NoteOutcome(guard.status());
    return guard.status();
  }
  Result<int64_t> r = ExecuteLocked(sql, &params);
  governor.NoteOutcome(r.status());
  return r;
}

Result<PreparedStatement> Database::Prepare(std::string_view sql) {
  SharedStatementGuard guard(&latch_);
  OXML_ASSIGN_OR_RETURN(std::shared_ptr<CachedPlan> entry,
                        GetOrBuildPlan(sql));
  return PreparedStatement(this, std::move(entry));
}

// ------------------------------------------------------- PreparedStatement

PreparedStatement::PreparedStatement(Database* db,
                                     std::shared_ptr<CachedPlan> entry)
    : db_(db), entry_(std::move(entry)) {}

const std::string& PreparedStatement::sql() const {
  static const std::string kEmpty;
  return entry_ == nullptr ? kEmpty : entry_->sql;
}

size_t PreparedStatement::param_count() const {
  return entry_ == nullptr ? 0 : entry_->param_count;
}

Status PreparedStatement::Bind(size_t index, Value v) {
  if (entry_ == nullptr) return Status::Internal("statement not prepared");
  if (index >= entry_->param_count) {
    return Status::InvalidArgument(
        "parameter index " + std::to_string(index) + " out of range (" +
        std::to_string(entry_->param_count) + " parameters)");
  }
  (*entry_->bindings)[index] = std::move(v);
  return Status::OK();
}

Status PreparedStatement::BindAll(Row values) {
  if (entry_ == nullptr) return Status::Internal("statement not prepared");
  if (values.size() != entry_->param_count) {
    return Status::InvalidArgument(
        "BindAll got " + std::to_string(values.size()) + " values for " +
        std::to_string(entry_->param_count) + " parameters");
  }
  *entry_->bindings = std::move(values);
  return Status::OK();
}

Status PreparedStatement::Refresh() {
  if (entry_ == nullptr) return Status::Internal("statement not prepared");
  if (entry_->generation == db_->catalog_generation_) return Status::OK();
  // The catalog changed since this plan was compiled: every TableInfo* in
  // it may dangle. Recompile from the SQL text, carrying bindings over.
  Row saved = std::move(*entry_->bindings);
  OXML_ASSIGN_OR_RETURN(std::shared_ptr<CachedPlan> fresh,
                        db_->GetOrBuildPlan(entry_->sql));
  if (fresh->param_count == saved.size()) {
    *fresh->bindings = std::move(saved);
  }
  entry_ = std::move(fresh);
  return Status::OK();
}

Result<ResultSet> PreparedStatement::Query(const StatementOptions& sopts) {
  if (entry_ == nullptr) return Status::Internal("statement not prepared");
  StatementGovernor governor(db_, sopts);
  SharedStatementGuard guard(db_->statement_latch());
  std::optional<ScopedReadSnapshot> snap;
  db_->MaybeBeginSnapshot(&snap);
  auto run = [&]() -> Result<ResultSet> {
    OXML_RETURN_NOT_OK(Refresh());
    if (entry_->kind != StmtKind::kSelect) {
      return Status::InvalidArgument("Query() requires a SELECT statement");
    }
    ++db_->stats_.statements;
    OXML_ASSIGN_OR_RETURN(PlanInstance * inst,
                          db_->AcquireInstance(entry_.get()));
    InstanceLease lease(entry_.get(), inst);
    *inst->params = *entry_->bindings;
    OXML_ASSIGN_OR_RETURN(
        ResultSet rs,
        ExecuteToResultSet(
            inst->plan.get(),
            entry_->last_row_count.load(std::memory_order_relaxed)));
    entry_->last_row_count.store(rs.rows.size(), std::memory_order_relaxed);
    db_->SyncMvccStats();
    return rs;
  };
  Result<ResultSet> r = run();
  governor.NoteOutcome(r.status());
  return r;
}

Result<int64_t> PreparedStatement::Execute(const StatementOptions& sopts) {
  if (entry_ == nullptr) return Status::Internal("statement not prepared");
  StatementGovernor governor(db_, sopts);
  WriteStatementGuard guard(db_);
  if (!guard.status().ok()) {
    governor.NoteOutcome(guard.status());
    return guard.status();
  }
  auto run = [&]() -> Result<int64_t> {
    OXML_RETURN_NOT_OK(Refresh());
    ++db_->stats_.statements;
    OXML_ASSIGN_OR_RETURN(PlanInstance * inst,
                          db_->AcquireInstance(entry_.get()));
    InstanceLease lease(entry_.get(), inst);
    *inst->params = *entry_->bindings;
    return db_->ExecuteEntry(entry_.get(), inst);
  };
  Result<int64_t> r = run();
  governor.NoteOutcome(r.status());
  return r;
}

Result<int64_t> PreparedStatement::ExecuteBatch(
    const std::vector<Row>& rows) {
  if (rows.empty()) return 0;
  if (entry_ == nullptr) return Status::Internal("statement not prepared");
  // One governor for the whole batch (the inner Execute calls inherit it),
  // so a deadline or Cancel spans all N executions and the wrapping
  // transaction rolls the partial batch back.
  StatementGovernor governor(db_, StatementOptions{});
  WriteStatementGuard guard(db_);
  if (!guard.status().ok()) {
    governor.NoteOutcome(guard.status());
    return guard.status();
  }
  OXML_RETURN_NOT_OK(Refresh());
  bool dml = entry_->kind == StmtKind::kInsert ||
             entry_->kind == StmtKind::kUpdate ||
             entry_->kind == StmtKind::kDelete;
  // One transaction (one WAL commit + fsync) for the whole batch: either
  // every row lands or none does.
  bool wrap = dml && !db_->InTransaction();
  if (wrap) OXML_RETURN_NOT_OK(db_->Begin());
  int64_t total = 0;
  for (const Row& row : rows) {
    Status st = BindAll(row);
    Result<int64_t> n = st.ok() ? Execute() : Result<int64_t>(st);
    if (!n.ok()) {
      if (wrap) (void)db_->Rollback();
      governor.NoteOutcome(n.status());
      return n.status();
    }
    total += *n;
  }
  if (wrap) {
    Status c = db_->Commit();
    if (!c.ok()) {
      (void)db_->Rollback();
      governor.NoteOutcome(c);
      return c;
    }
  }
  return total;
}

Result<int64_t> Database::ExecuteInsert(InsertStmt* stmt) {
  TableInfo* t = GetTable(stmt->table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt->table);
  const Schema& schema = t->schema();

  // Map the statement's column list to schema positions.
  std::vector<int> positions;
  if (stmt->columns.empty()) {
    for (size_t i = 0; i < schema.size(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& col : stmt->columns) {
      int idx = schema.IndexOf(col);
      if (idx < 0) {
        return Status::NotFound("no column " + col + " in " + stmt->table);
      }
      positions.push_back(idx);
    }
  }

  int64_t inserted = 0;
  Row empty;
  for (auto& exprs : stmt->rows) {
    OXML_RETURN_NOT_OK(CheckCurrentControl());
    if (exprs.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.size(), Value::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      OXML_ASSIGN_OR_RETURN(row[positions[i]], exprs[i]->Eval(empty));
    }
    // InsertRow coerces each value to its column type.
    OXML_RETURN_NOT_OK(t->InsertRow(row, &stats_).status());
    ++inserted;
  }
  return inserted;
}

Result<std::vector<Rid>> Database::CollectRids(TableInfo* table,
                                               Expr* where) {
  std::vector<Rid> rids;
  std::vector<Expr*> conjunct_ptrs;
  std::vector<ExprPtr> owned;  // only to reuse SplitConjuncts shape

  ExprPtr residual_pred;
  AccessPath path;
  if (where != nullptr) {
    OXML_RETURN_NOT_OK(where->Bind(table->schema()));
    // Split without taking ownership: treat the whole predicate as both
    // sargable candidates and the residual check (re-evaluating consumed
    // conjuncts is harmless here since DML row counts are modest relative
    // to the scan itself).
    std::vector<Expr*> flat;
    // Walk top-level ANDs.
    std::vector<Expr*> stack{where};
    while (!stack.empty()) {
      Expr* e = stack.back();
      stack.pop_back();
      if (e->kind() == Expr::Kind::kBinary) {
        auto* bin = static_cast<BinaryExpr*>(e);
        if (bin->op() == BinaryOp::kAnd) {
          stack.push_back(bin->left());
          stack.push_back(bin->right());
          continue;
        }
      }
      flat.push_back(e);
    }
    path = ChooseAccessPath(*table, flat);
    if (path.dynamic.has_value()) {
      // DML runs with parameters already bound, so parameter-dependent
      // bounds resolve right here. A NULL binding keeps the scan
      // unbounded; the full-predicate recheck below stays correct either
      // way.
      OXML_ASSIGN_OR_RETURN(ResolvedIndexBounds bounds,
                            ResolveIndexBounds(*path.dynamic));
      if (bounds.usable) {
        path.lower = std::move(bounds.lower);
        path.upper = std::move(bounds.upper);
      }
    }
  }

  auto row_matches = [&](const Row& row) -> Result<bool> {
    if (where == nullptr) return true;
    OXML_ASSIGN_OR_RETURN(Value v, where->Eval(row));
    return !v.is_null() && v.IsTruthy();
  };

  if (path.index != nullptr) {
    ++stats_.index_probes;
    IndexCursor it = path.lower.has_value()
                         ? path.index->ScanFrom(*path.lower)
                         : path.index->ScanBegin();
    while (it.valid()) {
      OXML_RETURN_NOT_OK(CheckCurrentControl());
      if (path.upper.has_value() && it.key() >= *path.upper) break;
      OXML_ASSIGN_OR_RETURN(Row row, table->heap()->Get(it.rid()));
      ++stats_.rows_scanned;
      OXML_ASSIGN_OR_RETURN(bool ok, row_matches(row));
      if (ok) rids.push_back(it.rid());
      it.Next();
    }
  } else {
    HeapTable::Iterator it = table->heap()->Scan();
    Rid rid;
    Row row;
    while (true) {
      OXML_RETURN_NOT_OK(CheckCurrentControl());
      OXML_ASSIGN_OR_RETURN(bool has, it.Next(&rid, &row));
      if (!has) break;
      ++stats_.rows_scanned;
      OXML_ASSIGN_OR_RETURN(bool ok, row_matches(row));
      if (ok) rids.push_back(rid);
    }
  }
  return rids;
}

Result<int64_t> Database::ExecuteUpdate(UpdateStmt* stmt) {
  TableInfo* t = GetTable(stmt->table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt->table);
  const Schema& schema = t->schema();

  std::vector<int> positions;
  for (auto& [col, expr] : stmt->assignments) {
    int idx = schema.IndexOf(col);
    if (idx < 0) {
      return Status::NotFound("no column " + col + " in " + stmt->table);
    }
    positions.push_back(idx);
    OXML_RETURN_NOT_OK(expr->Bind(schema));
  }

  OXML_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                        CollectRids(t, stmt->where.get()));

  int64_t updated = 0;
  for (const Rid& rid : rids) {
    OXML_ASSIGN_OR_RETURN(Row row, t->heap()->Get(rid));
    Row new_row = row;
    for (size_t i = 0; i < positions.size(); ++i) {
      OXML_ASSIGN_OR_RETURN(Value v, stmt->assignments[i].second->Eval(row));
      OXML_ASSIGN_OR_RETURN(
          new_row[positions[i]],
          CoerceTo(v, schema.column(positions[i]).type));
    }
    OXML_RETURN_NOT_OK(t->UpdateRow(rid, new_row, &stats_).status());
    ++updated;
  }
  return updated;
}

Result<int64_t> Database::ExecuteDelete(DeleteStmt* stmt) {
  TableInfo* t = GetTable(stmt->table);
  if (t == nullptr) return Status::NotFound("no such table: " + stmt->table);
  OXML_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                        CollectRids(t, stmt->where.get()));
  for (const Rid& rid : rids) {
    OXML_RETURN_NOT_OK(t->DeleteRow(rid, &stats_));
  }
  return static_cast<int64_t>(rids.size());
}

StorageStats Database::GetStorageStats() const {
  SharedStatementGuard guard(&latch_);
  StorageStats s;
  for (const auto& [name, table] : tables_) {
    s.heap_pages += table->heap()->page_chain_length();
    s.heap_rows += table->heap()->row_count();
    s.heap_bytes += table->heap()->data_bytes();
    for (const auto& idx : table->indexes()) {
      s.index_entries += idx->tree.size();
      s.index_bytes += idx->tree.key_bytes();
    }
  }
  return s;
}

}  // namespace oxml
