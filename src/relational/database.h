#ifndef OXML_RELATIONAL_DATABASE_H_
#define OXML_RELATIONAL_DATABASE_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <list>
#include <optional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/relational/buffer_pool.h"
#include "src/relational/catalog.h"
#include "src/relational/executor.h"
#include "src/relational/query_control.h"
#include "src/relational/sql_ast.h"
#include "src/relational/wal.h"

namespace oxml {

struct FaultPlan;
class ThreadPool;

/// Configuration of a Database instance.
struct DatabaseOptions {
  /// When non-empty, pages live in this file behind an LRU buffer pool;
  /// otherwise everything is memory-resident.
  std::string file_path;
  /// Buffer-pool frames when file-backed (0 = unbounded cache).
  size_t buffer_capacity = 0;
  /// Reopen an existing database file: the persisted catalog (page 0) is
  /// read back, heap tables are re-attached and the memory-resident
  /// B+tree indexes are rebuilt by scanning the heaps. When false (the
  /// default) any existing file content is discarded.
  bool open_existing = false;
  /// Capacity of the LRU plan cache (distinct SQL texts). 0 disables
  /// caching entirely: every statement — prepared or ad-hoc — pays a fresh
  /// parse + plan.
  size_t plan_cache_capacity = 128;
  /// Lower interval-containment conjunct pairs (the ancestor–descendant
  /// patterns emitted by the XPath translator) to the stack-based
  /// StructuralJoinOp, which runs inline or, under
  /// enable_parallel_execution, on the thread pool. Off = generic
  /// nested-loop + filter, kept as the reference for differential testing.
  bool enable_structural_join = true;
  /// Use MergeJoinOp for equi-joins whose inputs are already sorted on the
  /// join key (as reported by the operators' order properties).
  bool enable_merge_join = true;
  /// Drop the SortOp for an ORDER BY already satisfied by the input order.
  bool enable_sort_elision = true;

  // ------------------------------------------------------------- parallelism

  /// Let the planner fan single statements out over the database's thread
  /// pool: ParallelScanOp for large scans, and StructuralJoinOp runs its
  /// independent interval groups on the pool instead of inline. Off by default: intra-query parallelism only
  /// pays off on large inputs, and serial plans keep EXPLAIN output and
  /// operator-level tests deterministic. Inter-query concurrency — many
  /// threads calling Query() at once — is always available and does not
  /// depend on this flag.
  bool enable_parallel_execution = false;
  /// Worker threads in the execution pool (0 = hardware_concurrency).
  /// Only consulted when enable_parallel_execution is set.
  size_t num_threads = 0;
  /// Tables with fewer rows than this keep their serial scans even under
  /// enable_parallel_execution (fan-out overhead dominates tiny inputs).
  /// Tests set 0 to force parallel plans on small fixtures.
  size_t parallel_scan_min_rows = 256;

  // -------------------------------------------------------- parallel loading

  /// Workers in the load pool that OrderedXmlStore::LoadDocument shreds
  /// on, beside the calling thread. 0 (the default) creates no pool: the
  /// partition → shred → merge → bulk-install pipeline runs inline on the
  /// calling thread. Every worker count installs byte-identical tables.
  size_t num_load_threads = 0;
  /// Approximate size at which a load worker (or the calling thread, when
  /// loading inline) seals its current sorted run and starts a new one.
  /// Smaller values exercise the k-way merge harder; mostly a testing knob.
  size_t load_run_bytes = 1u << 20;

  // ------------------------------------------------------------- durability

  /// Write-ahead logging for file-backed databases (ignored when memory-
  /// resident): every transaction appends the images of the pages it
  /// dirtied plus a commit record to `<file_path>.wal` before any of them
  /// may reach the data file. Reopening replays committed transactions, so
  /// a crash at any point recovers the last committed state.
  bool enable_wal = true;
  /// fsync the WAL on commit (see WalOptions::sync_on_commit).
  bool wal_sync_on_commit = true;
  /// Group commit: fsync only every Nth commit (see WalOptions).
  size_t wal_group_commit_every = 1;
  /// Auto-checkpoint (flush data file + truncate the WAL) after a commit
  /// leaves the log larger than this many bytes. 0 disables; the WAL then
  /// grows until an explicit Checkpoint() or Close().
  size_t wal_checkpoint_threshold_bytes = 4u << 20;
  /// When set, every data-file and WAL I/O consults this fault schedule
  /// (crash-point testing). Production opens leave it null.
  std::shared_ptr<FaultPlan> fault_plan;

  // ------------------------------------------------------------- governance

  /// Deadline applied to every statement that does not override it via
  /// StatementOptions (0 = none). The clock starts when the statement call
  /// enters the engine — before the statement latch — so time spent queued
  /// behind a writer counts against the deadline. Enforcement is
  /// cooperative: the statement fails with kDeadlineExceeded at its next
  /// check point (operator Next(), morsel claim, shred unit, WAL-replay
  /// record), never mid-page; see docs/INTERNALS.md §12.
  uint64_t default_statement_timeout_ms = 0;
  /// Per-statement cap on memory materialized by allocating operators
  /// (sorts, hash/merge/nested-loop join builds, parallel-scan partitions,
  /// shred runs, result sets), estimated and charged in batches. A
  /// statement over its cap fails with kResourceExhausted; 0 = unlimited.
  size_t statement_memory_budget_bytes = 0;
  /// Database-wide cap shared by all concurrent statements' charges
  /// (0 = unlimited). Statements failing this cap also get
  /// kResourceExhausted; their reservation is fully returned.
  size_t total_memory_budget_bytes = 0;
};

/// Per-call overrides for one statement (Query/QueryP/Execute/ExecuteP and
/// the PreparedStatement equivalents).
struct StatementOptions {
  /// -1 = inherit DatabaseOptions::default_statement_timeout_ms;
  /// 0 = no deadline for this statement; > 0 = deadline in milliseconds.
  int64_t timeout_ms = -1;
  /// -1 = inherit DatabaseOptions::statement_memory_budget_bytes;
  /// 0 = unlimited for this statement; > 0 = cap in bytes. The session
  /// layer uses this to carry per-session budget defaults per call.
  int64_t memory_budget_bytes = -1;
  /// When non-null, receives the statement id assigned to this call before
  /// execution begins, for use with Database::Cancel from another thread.
  uint64_t* statement_id = nullptr;
};

/// The session id attributed to engine calls made on the current thread
/// (0 = none: the embedded API). Installed by ScopedSessionIdentity; the
/// server wraps every engine call made on a session's behalf so that
/// transaction ownership follows the session across pool threads.
uint64_t CurrentSessionId();

/// RAII installation of a session identity in the thread-local slot the
/// transaction-ownership checks consult. Nesting restores the previous
/// identity on destruction.
class ScopedSessionIdentity {
 public:
  explicit ScopedSessionIdentity(uint64_t session_id);
  ~ScopedSessionIdentity();

  ScopedSessionIdentity(const ScopedSessionIdentity&) = delete;
  ScopedSessionIdentity& operator=(const ScopedSessionIdentity&) = delete;

 private:
  uint64_t prev_;
};

/// Aggregate storage numbers (per database), used by the loading/storage
/// experiment.
struct StorageStats {
  uint64_t heap_pages = 0;
  uint64_t heap_rows = 0;
  uint64_t heap_bytes = 0;   // live row bytes
  uint64_t index_entries = 0;
  uint64_t index_bytes = 0;  // key bytes held in B+trees
};

class Database;

/// The database-wide reader–writer statement latch. Read-only statements
/// (Query/QueryP/Explain/Prepare) hold it shared, so any number of client
/// threads read concurrently; every mutation (Execute/ExecuteP, Insert,
/// DDL, Checkpoint, Close) holds it exclusively. An explicit transaction
/// holds exclusivity only per mutating statement and for the commit
/// install point — overlapping reader statements proceed under the shared
/// latch against an MVCC snapshot (INTERNALS.md §11).
///
/// Exclusive ownership is reentrant per thread — the engine's auto-commit
/// wrappers and the stores' TxnScope nest statement calls inside an open
/// transaction — and a thread holding the latch exclusively passes straight
/// through shared acquisitions (reads inside its own transaction). Shared
/// ownership is also reentrant per thread (tracked thread_locally): writer
/// preference would otherwise self-deadlock a thread that re-acquires
/// shared while a writer queues behind its outstanding shared hold.
/// Lock-order inversion (shared then exclusive on the same thread) remains
/// a deadlock, as with any reader–writer lock.
///
/// Writer-preferring: once a writer is waiting, new shared acquisitions
/// queue behind it. std::shared_mutex makes no such promise (glibc's
/// rwlock prefers readers), and a read-heavy workload re-acquiring the
/// latch in a loop can then starve writers indefinitely — observed as a
/// stuck commit under TSan on a single-core host.
class StatementLatch {
 public:
  void LockShared() {
    if (OwnedByThisThread()) return;
    size_t& depth = SharedDepthMap()[this];
    if (depth > 0) {
      // Nested shared acquisition: this thread was already admitted, so it
      // must pass through even when a writer is queued — blocking here
      // would deadlock it against the writer waiting on its own hold.
      ++depth;
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    reader_cv_.wait(lock, [this] {
      return !writer_active_ && writers_waiting_ == 0;
    });
    ++active_readers_;
    depth = 1;
  }
  void UnlockShared() {
    if (OwnedByThisThread()) return;
    auto& depths = SharedDepthMap();
    auto it = depths.find(this);
    if (it != depths.end() && it->second > 1) {
      --it->second;
      return;
    }
    if (it != depths.end()) depths.erase(it);
    std::unique_lock<std::mutex> lock(mu_);
    if (--active_readers_ == 0 && writers_waiting_ > 0) {
      lock.unlock();
      writer_cv_.notify_one();
    }
  }
  void LockExclusive() {
    if (OwnedByThisThread()) {
      ++depth_;
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    writer_cv_.wait(lock, [this] {
      return !writer_active_ && active_readers_ == 0;
    });
    --writers_waiting_;
    writer_active_ = true;
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    depth_ = 1;
  }
  void UnlockExclusive() {
    if (!OwnedByThisThread()) {
      // Unlocking a latch this thread does not hold would corrupt depth_
      // (owned by another thread) or underflow it (nobody holds it),
      // silently breaking exclusion for every later statement. Loud in
      // debug builds; in release, refuse and leave the latch state intact.
      assert(false && "StatementLatch::UnlockExclusive: not the owner");
      std::fprintf(stderr,
                   "StatementLatch::UnlockExclusive ignored: calling thread "
                   "does not hold the latch exclusively\n");
      return;
    }
    if (--depth_ > 0) return;
    bool writers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      owner_.store(std::thread::id(), std::memory_order_relaxed);
      writer_active_ = false;
      writers = writers_waiting_ > 0;
    }
    // Hand off to the next writer if one is queued, else release the
    // whole reader herd.
    if (writers) {
      writer_cv_.notify_one();
    } else {
      reader_cv_.notify_all();
    }
  }

 private:
  bool OwnedByThisThread() const {
    return owner_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  /// This thread's shared-hold depth per latch instance. Entries are erased
  /// on final release, so the map only holds latches the thread is inside.
  static std::unordered_map<const StatementLatch*, size_t>& SharedDepthMap() {
    static thread_local std::unordered_map<const StatementLatch*, size_t> map;
    return map;
  }

  std::mutex mu_;
  std::condition_variable reader_cv_;
  std::condition_variable writer_cv_;
  size_t active_readers_ = 0;
  size_t writers_waiting_ = 0;
  bool writer_active_ = false;
  /// The thread holding the latch exclusively (default id = none). Written
  /// only by that thread while it holds `mu_`.
  std::atomic<std::thread::id> owner_{};
  size_t depth_ = 0;  // exclusive reentrancy depth; touched only by owner
};

/// RAII shared acquisition of the statement latch.
class SharedStatementGuard {
 public:
  explicit SharedStatementGuard(StatementLatch* latch) : latch_(latch) {
    latch_->LockShared();
  }
  ~SharedStatementGuard() { latch_->UnlockShared(); }
  SharedStatementGuard(const SharedStatementGuard&) = delete;
  SharedStatementGuard& operator=(const SharedStatementGuard&) = delete;

 private:
  StatementLatch* latch_;
};

/// RAII exclusive acquisition of the statement latch (reentrant).
class ExclusiveStatementGuard {
 public:
  explicit ExclusiveStatementGuard(StatementLatch* latch) : latch_(latch) {
    latch_->LockExclusive();
  }
  ~ExclusiveStatementGuard() { latch_->UnlockExclusive(); }
  ExclusiveStatementGuard(const ExclusiveStatementGuard&) = delete;
  ExclusiveStatementGuard& operator=(const ExclusiveStatementGuard&) = delete;

 private:
  StatementLatch* latch_;
};

/// RAII exclusive acquisition for a mutating statement. An open
/// transaction does not hold the statement latch for its lifetime, so
/// exclusivity alone does not keep a foreign thread's mutation out of a
/// transaction it does not own; this guard additionally waits (holding no
/// latch while it does) until either no transaction is open or the calling
/// thread owns the open one.
class WriteStatementGuard {
 public:
  explicit WriteStatementGuard(Database* db);
  ~WriteStatementGuard();
  WriteStatementGuard(const WriteStatementGuard&) = delete;
  WriteStatementGuard& operator=(const WriteStatementGuard&) = delete;

  /// kOk when the latch was acquired. kCancelled / kDeadlineExceeded when
  /// the calling statement's QueryControl tripped while gate-waiting on a
  /// foreign session's open transaction — the guard then holds nothing and
  /// the caller must return the status instead of mutating.
  const Status& status() const { return status_; }

 private:
  Database* db_;
  Status status_;
};

/// A compiled statement held by the Database's plan cache (opaque outside
/// database.cc). Operator trees are stateful, so one cached SQL text owns a
/// pool of compiled plan instances; each execution checks one out, and a
/// fresh instance is compiled when every existing one is busy on another
/// thread. The entry also carries the persistent parameter bindings shared
/// by every PreparedStatement handle on the text.
struct CachedPlan;
/// One executable compilation of a cached SQL text (opaque, see CachedPlan).
struct PlanInstance;

/// A reusable statement handle: parse and plan once, then Bind fresh values
/// and re-execute. Obtained from Database::Prepare. Copyable (copies share
/// the underlying compiled plan and its parameter bindings — two handles on
/// the same SQL text rebind each other, so bind-then-execute without
/// interleaving other handles of the same text).
///
/// Handles are not thread-safe objects: bindings are shared per SQL text,
/// so concurrent Bind/Query through handles on the same text race. For
/// concurrent parameterized reads use Database::QueryP, which carries its
/// parameters per call.
///
/// If the catalog changes (CREATE/DROP TABLE or INDEX) between calls, the
/// handle transparently re-prepares itself from its SQL text, preserving
/// current bindings; it never executes a plan from a previous catalog
/// generation.
class PreparedStatement {
 public:
  PreparedStatement() = default;

  const std::string& sql() const;
  size_t param_count() const;

  /// Binds parameter `index` (0-based, left-to-right order of '?' in the
  /// SQL text). Bindings persist across executions until rebound.
  Status Bind(size_t index, Value v);
  /// Binds all parameters at once; `values.size()` must equal param_count().
  Status BindAll(Row values);

  /// Executes a prepared SELECT with the current bindings. `sopts` carries
  /// the per-call governance overrides (deadline, cancel handle).
  Result<ResultSet> Query(const StatementOptions& sopts = {});
  /// Executes any prepared statement; returns affected-row count
  /// (result-row count for SELECT, 0 for DDL).
  Result<int64_t> Execute(const StatementOptions& sopts = {});
  /// Binds and executes once per row: one parse + plan for N executions.
  /// Returns the summed affected-row count. An empty batch is a no-op.
  Result<int64_t> ExecuteBatch(const std::vector<Row>& rows);

 private:
  friend class Database;
  PreparedStatement(Database* db, std::shared_ptr<CachedPlan> entry);

  /// Re-prepares from sql() when the catalog generation has moved.
  Status Refresh();

  Database* db_ = nullptr;
  std::shared_ptr<CachedPlan> entry_;
};

/// The embedded relational engine: catalog + storage + SQL execution.
/// Statements are parsed, planned and executed eagerly.
///
/// Thread-safe under a reader–writer discipline (see StatementLatch and
/// docs/INTERNALS.md §9): any number of threads may run read-only
/// statements (Query/QueryP/Explain) concurrently against one Database;
/// mutations and transactions take the statement latch exclusively and
/// therefore serialize against everything else. With
/// DatabaseOptions::enable_parallel_execution the planner additionally
/// splits single large scans and structural joins across an internal
/// thread pool (intra-query parallelism).
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(
      const DatabaseOptions& options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  ~Database();

  /// Serializes the catalog into page 0, flushes all dirty pages to the
  /// backend and — for WAL-enabled databases — fsyncs the data file and
  /// truncates the log. A no-op guarantee-wise for memory-resident
  /// databases. Must not be called inside a transaction.
  Status Checkpoint();

  /// Checkpoints and releases the WAL. Idempotent; called automatically by
  /// the destructor, which logs (but must swallow) any failure — call
  /// Close() directly to observe it. An open transaction is rolled back.
  Status Close();

  // ------------------------------------------------------------ transactions

  /// Starts an explicit transaction. Every mutation until Commit/Rollback
  /// becomes atomic: all of it or none of it survives a crash. Nested
  /// transactions are rejected. DDL cannot run inside a transaction.
  Status Begin();
  /// Makes the open transaction durable (WAL page images + commit record +
  /// fsync per the sync policy). On failure the transaction remains open
  /// and should be rolled back.
  Status Commit();
  /// Undoes every page the open transaction touched, restores heap
  /// metadata, and rebuilds the in-memory indexes from the restored heaps.
  Status Rollback();
  bool InTransaction() const;

  /// Session id that issued Begin (0 = none, or the embedded thread-bound
  /// API). Read by the session layer to decide whether a disconnecting
  /// session owns the open transaction it is about to roll back.
  uint64_t txn_session() const {
    return txn_session_.load(std::memory_order_acquire);
  }

  /// Whether a transaction is currently open (any owner).
  bool txn_open() const { return txn_open_.load(std::memory_order_acquire); }

  /// True when the calling thread may Commit/Rollback the open transaction:
  /// either the transaction was begun under a session identity and the
  /// current thread carries that same identity (ScopedSessionIdentity), or
  /// — the embedded fallback — the transaction is session-less and the
  /// current thread is the one that called Begin. False when no transaction
  /// is open.
  bool CurrentThreadOwnsTxn() const;

  /// Abandons all buffered state exactly as a process kill would: nothing
  /// is flushed or checkpointed on destruction, and the WAL is left as-is
  /// for the next open to replay. The object is unusable afterwards except
  /// for destruction.
  void SimulateCrashForTesting();

  // -------------------------------------------------------- programmatic API

  Status CreateTable(const std::string& name, Schema schema);
  Status DropTable(const std::string& name);
  Status CreateIndex(const std::string& index_name, const std::string& table,
                     const std::vector<std::string>& columns, bool unique);

  /// Returns the table or nullptr.
  TableInfo* GetTable(const std::string& name) const;

  /// Direct row insertion (bypasses SQL, used by the bulk shredder).
  /// Values are coerced to their column types as SQL INSERT does; an
  /// incompatible kind fails with InvalidArgument and writes nothing.
  Result<Rid> Insert(const std::string& table, const Row& row);

  /// Loads `rows` into the empty `table` through the bulk path
  /// (tail-extended heap + bottom-up index builds, see
  /// TableInfo::BulkLoadRows), auto-committed unless a transaction is open.
  /// A non-empty table is rejected with InvalidArgument and left unchanged
  /// (bulk index construction needs empty trees). Returns the number of
  /// rows loaded.
  Result<int64_t> BulkLoadRows(const std::string& table,
                               const std::vector<Row>& rows);

  // ---------------------------------------------------------------- SQL API

  /// Executes a SELECT and materializes the result. Served from the plan
  /// cache when the same SQL text was seen before. Statements containing
  /// '?' parameters are rejected — use QueryP() or Prepare(). Safe to call
  /// from many threads at once (shared statement latch). `sopts` carries
  /// per-call governance overrides (deadline, cancel handle).
  Result<ResultSet> Query(std::string_view sql,
                          const StatementOptions& sopts = {});

  /// One-shot parameterized SELECT: binds `params` to the '?' markers and
  /// executes, all within a single call. Unlike PreparedStatement handles,
  /// the bindings live in the per-call plan instance, so concurrent QueryP
  /// calls on the same SQL text never observe each other's parameters —
  /// this is the thread-safe path the XPath driver uses.
  Result<ResultSet> QueryP(std::string_view sql, Row params,
                           const StatementOptions& sopts = {});

  /// Executes any statement; returns the number of affected rows
  /// (0 for DDL, result-row count for SELECT). Cache/parameter behavior as
  /// for Query(). Takes the statement latch exclusively (the statement may
  /// mutate).
  Result<int64_t> Execute(std::string_view sql,
                          const StatementOptions& sopts = {});

  /// One-shot parameterized Execute (see QueryP for binding semantics).
  Result<int64_t> ExecuteP(std::string_view sql, Row params,
                           const StatementOptions& sopts = {});

  /// Requests cooperative cancellation of an in-flight statement (the id
  /// from StatementOptions::statement_id, observed on any thread). The
  /// target aborts with kCancelled at its next check point; a mutating
  /// statement rolls back through the normal undo path. NotFound when no
  /// statement with that id is in flight — cancellation raced completion,
  /// which callers should treat as benign.
  Status Cancel(uint64_t statement_id);

  /// Registers an externally-built QueryControl in the in-flight registry
  /// and returns the statement id assigned to it, making it reachable by
  /// Cancel() exactly like a governor-built control. The session layer
  /// installs such controls around whole statements (so deadline/budget
  /// defaults and queue time are session-scoped); the nested governor then
  /// inherits the control instead of registering a second one. Pair with
  /// UnregisterControl once the statement finishes.
  uint64_t RegisterExternalControl(std::shared_ptr<QueryControl> control);
  void UnregisterControl(uint64_t statement_id);

  /// Compiles `sql` (which may contain '?' parameter markers) into a
  /// reusable handle, served from the plan cache on repeat texts.
  Result<PreparedStatement> Prepare(std::string_view sql);

  /// Returns the physical plan of a SELECT as an indented tree. Accepts
  /// '?' markers (bounds depending on them render as dynamic).
  Result<std::string> Explain(std::string_view sql);

  // ------------------------------------------------------------- accounting

  ExecStats* stats() {
    // The retry tally lives with the storage backends (which outlive the
    // stats struct during destruction); fold it in on read.
    if (io_retries_ != nullptr) {
      stats_.io_retries = io_retries_->load(std::memory_order_relaxed);
    }
    return &stats_;
  }
  const DatabaseOptions& options() const { return options_; }
  /// The id the next statement will be assigned (ids are dense and start
  /// at 1). A canceller that snapshots this before racing a peer's
  /// statements can sweep Cancel over the window it observed.
  uint64_t next_statement_id() const {
    return statement_id_counter_.load(std::memory_order_relaxed) + 1;
  }
  /// The database-wide memory budget (see
  /// DatabaseOptions::total_memory_budget_bytes); exposed for tests.
  MemoryBudget* global_memory_budget() { return &global_budget_; }
  BufferPool* buffer_pool() { return pool_.get(); }
  /// The intra-query execution pool, or null when parallel execution is
  /// disabled (the planner then never emits parallel operators).
  ThreadPool* thread_pool() const { return exec_pool_.get(); }
  /// The bulk-load pool, or null when num_load_threads is 0 (the stores
  /// then shred inline on the calling thread).
  ThreadPool* load_pool() const { return load_pool_.get(); }
  /// The database-wide statement latch (tests use it to assert the
  /// reader/writer discipline; normal clients never touch it).
  StatementLatch* statement_latch() { return &latch_; }
  /// The write-ahead log, or null (memory-resident / WAL disabled).
  WriteAheadLog* wal() const { return wal_.get(); }
  StorageStats GetStorageStats() const;

  /// Monotone counter bumped by every CREATE/DROP TABLE and CREATE INDEX;
  /// cached plans from older generations are never executed.
  uint64_t catalog_generation() const { return catalog_generation_; }
  /// Entries currently held by the plan cache.
  size_t plan_cache_size() const {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    return plan_cache_.size();
  }

 private:
  friend class PreparedStatement;
  friend class WriteStatementGuard;
  friend class StatementGovernor;

  // Defined in database.cc: ThreadPool is incomplete here, so both the
  // constructor and destructor must be out of line.
  explicit Database(std::unique_ptr<BufferPool> pool);

  /// Writes the catalog (table + index definitions, heap metadata) into
  /// the reserved catalog page.
  Status SaveCatalog();
  /// Rebuilds the catalog from page 0 of an existing file.
  Status LoadCatalog();

  Result<int64_t> ExecuteInsert(InsertStmt* stmt);
  Result<int64_t> ExecuteUpdate(UpdateStmt* stmt);
  Result<int64_t> ExecuteDelete(DeleteStmt* stmt);

  /// Collects the rids of rows in `table` matching `where` (which may be
  /// null), using an index range when one applies.
  Result<std::vector<Rid>> CollectRids(TableInfo* table, Expr* where);

  /// Looks up `sql` in the plan cache; on miss, parses + plans and (for
  /// cacheable statement kinds) inserts the entry, evicting the least
  /// recently used one past capacity. Thread-safe (plan-cache mutex).
  Result<std::shared_ptr<CachedPlan>> GetOrBuildPlan(std::string_view sql);
  /// Parses + plans one executable instance of `sql` (kind/param_count are
  /// optional out-params for the first compilation of an entry).
  Result<std::unique_ptr<PlanInstance>> CompileInstance(const std::string& sql,
                                                        StmtKind* kind,
                                                        size_t* param_count);
  /// Checks a non-busy instance out of the entry (compiling a fresh one
  /// when every instance is executing on another thread). The caller
  /// returns it by clearing its busy flag under the entry's mutex
  /// (InstanceLease in database.cc).
  Result<PlanInstance*> AcquireInstance(CachedPlan* entry);
  /// Shared implementations of Query/QueryP and Execute/ExecuteP; callers
  /// hold the statement latch. Null `params` = reject parameterized SQL.
  Result<ResultSet> QueryLocked(std::string_view sql, Row* params);
  Result<int64_t> ExecuteLocked(std::string_view sql, Row* params);
  /// Runs a compiled instance, wrapping DML in an auto-commit transaction
  /// when none is open.
  Result<int64_t> ExecuteEntry(CachedPlan* entry, PlanInstance* inst);
  Result<int64_t> ExecuteEntryInner(CachedPlan* entry, PlanInstance* inst);
  /// Drops all cached plans, bumps the catalog generation and marks the
  /// catalog page for inclusion in the next commit (called by every DDL
  /// mutation and by Rollback, which rebuilds the indexes plans point at).
  void InvalidatePlans();

  /// Rollback body without the ownership pre-checks; shared by the public
  /// Rollback, Close() (which rolls back an abandoned transaction from
  /// whatever thread destroys the database) and the commit-failure path.
  Status RollbackInner();
  /// Clears transaction bookkeeping (heap snapshot, per-index txn deltas,
  /// owner/open flags) and wakes writers gate-waiting in
  /// WriteStatementGuard. Called on every Commit/Rollback exit.
  void EndTxnBookkeeping();
  /// Copies the buffer pool's MVCC counters into stats_ (call sites hold
  /// the statement latch at least shared).
  void SyncMvccStats();
  /// Arms `snap` with the current commit LSN when this reader statement
  /// overlaps a foreign thread's open transaction; otherwise
  /// leaves it disengaged and the statement reads current state.
  void MaybeBeginSnapshot(std::optional<ScopedReadSnapshot>* snap) const;

  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<WriteAheadLog> wal_;
  DatabaseOptions options_;
  std::map<std::string, std::unique_ptr<TableInfo>> tables_;
  ExecStats stats_;
  bool closed_ = false;
  /// The catalog changed (DDL / rollback) since the last commit wrote it.
  bool catalog_dirty_ = false;
  /// Per-table heap bookkeeping captured at Begin, restored by Rollback.
  std::map<std::string, HeapTable::Metadata> heap_snapshot_;

  /// Readers shared / writers exclusive. Acquired before any other engine
  /// lock; inside a transaction exclusivity is per mutating statement.
  mutable StatementLatch latch_;
  /// True between a successful Begin and the end of Commit/Rollback.
  /// Written under txn_mu_ (so WriteStatementGuard can wait on txn_cv_),
  /// read lock-free by InTransaction and the ownership pre-checks.
  std::atomic<bool> txn_open_{false};
  /// Thread that issued Begin (default id = none). Mutations from other
  /// threads gate-wait in WriteStatementGuard until the transaction ends.
  std::atomic<std::thread::id> txn_owner_{};
  /// Session identity (CurrentSessionId) at Begin; 0 for the embedded API.
  /// When non-zero, ownership checks compare session ids instead of thread
  /// ids, so a session's transaction survives being served by different
  /// pool threads.
  std::atomic<uint64_t> txn_session_{0};
  /// Guards txn_open_ transitions; pairs with txn_cv_ for the write gate.
  std::mutex txn_mu_;
  std::condition_variable txn_cv_;
  /// Intra-query workers, created at Open when enable_parallel_execution.
  std::unique_ptr<ThreadPool> exec_pool_;
  /// Bulk-load workers, created at Open when num_load_threads > 0.
  std::unique_ptr<ThreadPool> load_pool_;

  // Statement governance (docs/INTERNALS.md §12). The registry maps the
  // ids handed out through StatementOptions::statement_id to the live
  // controls so Cancel() can reach a statement from any thread; entries
  // exist exactly while the owning statement executes.
  MemoryBudget global_budget_;
  IoRetryCounter io_retries_;
  std::atomic<uint64_t> statement_id_counter_{0};
  mutable std::mutex inflight_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<QueryControl>> inflight_;

  // Plan cache: SQL text -> compiled entry, LRU-ordered (front = hottest).
  // `plan_cache_mu_` guards the map and the LRU list; per-entry instance
  // state is guarded by each CachedPlan's own mutex.
  mutable std::mutex plan_cache_mu_;
  std::unordered_map<std::string, std::shared_ptr<CachedPlan>> plan_cache_;
  std::list<std::string> lru_;
  size_t plan_cache_capacity_ = 128;
  uint64_t catalog_generation_ = 0;
};

/// RAII transaction scope with flat nesting: opens a transaction unless one
/// is already active (in which case Commit/destruction are no-ops and the
/// enclosing scope decides the outcome). The destructor rolls back a scope
/// that was never committed, so every early-error return is atomic.
///
///   TxnScope txn(db);
///   OXML_RETURN_NOT_OK(txn.begin_status());
///   ... mutations ...
///   OXML_RETURN_NOT_OK(txn.Commit());
class TxnScope {
 public:
  explicit TxnScope(Database* db) : db_(db) {
    if (db_ != nullptr && !db_->InTransaction()) {
      begin_status_ = db_->Begin();
      owns_ = begin_status_.ok();
    }
  }
  ~TxnScope() {
    if (owns_ && !done_) (void)db_->Rollback();
  }

  TxnScope(const TxnScope&) = delete;
  TxnScope& operator=(const TxnScope&) = delete;

  /// Error from the Begin attempted in the constructor (OK when nested).
  const Status& begin_status() const { return begin_status_; }
  /// True when this scope opened (and will close) the transaction.
  bool owns() const { return owns_; }

  /// Commits if this scope owns the transaction; rolls back on failure.
  /// A failed Commit leaves the transaction open (Database contract), so
  /// the rollback normally runs — but if the failure already tore the
  /// transaction down (e.g. the WAL burned the txn id and a fault-injected
  /// rollback then crashed the database out), InTransaction() is false and
  /// a second Rollback would be a spurious InvalidArgument on a closed
  /// engine; skip it.
  Status Commit() {
    if (!owns_ || done_) return Status::OK();
    done_ = true;
    Status st = db_->Commit();
    if (!st.ok() && db_->InTransaction()) (void)db_->Rollback();
    return st;
  }

 private:
  Database* db_;
  Status begin_status_;
  bool owns_ = false;
  bool done_ = false;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_DATABASE_H_
