#include "src/relational/buffer_pool.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/relational/wal.h"

namespace oxml {

// ---------------------------------------------------------------- backends

void IoRetryPolicy::Backoff(int attempt) {
  int64_t us = 64LL << (attempt < 5 ? attempt : 5);  // 64us .. 2ms
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

bool FileBackend::NoteRetry(int* attempt) {
  if (retries_ != nullptr) retries_->fetch_add(1, std::memory_order_relaxed);
  if (*attempt + 1 >= IoRetryPolicy::kMaxAttempts) return false;
  IoRetryPolicy::Backoff(*attempt);
  ++*attempt;
  return true;
}

Result<uint32_t> MemoryBackend::AllocatePage() {
  auto page = std::make_unique<char[]>(kPageSize);
  std::memset(page.get(), 0, kPageSize);
  pages_.push_back(std::move(page));
  return static_cast<uint32_t>(pages_.size() - 1);
}

Status MemoryBackend::ReadPage(uint32_t id, char* buf) {
  if (id >= pages_.size()) return Status::OutOfRange("bad page id");
  std::memcpy(buf, pages_[id].get(), kPageSize);
  return Status::OK();
}

Status MemoryBackend::WritePage(uint32_t id, const char* buf) {
  if (id >= pages_.size()) return Status::OutOfRange("bad page id");
  std::memcpy(pages_[id].get(), buf, kPageSize);
  return Status::OK();
}

Result<std::unique_ptr<FileBackend>> FileBackend::Open(
    const std::string& path, bool truncate) {
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  auto backend = std::unique_ptr<FileBackend>(new FileBackend(fd, path));
  if (!truncate) {
    off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) {
      return Status::IOError("lseek(" + path + "): " + std::strerror(errno));
    }
    if (size % static_cast<off_t>(kPageSize) != 0) {
      return Status::IOError(path + " is not page-aligned (corrupt?)");
    }
    backend->page_count_ = static_cast<uint32_t>(size / kPageSize);
  }
  return backend;
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint32_t> FileBackend::AllocatePage() {
  uint32_t id = page_count_;
  char zeros[kPageSize];
  std::memset(zeros, 0, kPageSize);
  OXML_RETURN_NOT_OK(WritePage(id, zeros));
  ++page_count_;
  return id;
}

Status FileBackend::ReadPage(uint32_t id, char* buf) {
  size_t done = 0;
  int attempt = 0;
  while (done < kPageSize) {
    ssize_t n = ::pread(fd_, buf + done, kPageSize - done,
                        static_cast<off_t>(id) * kPageSize +
                            static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN && NoteRetry(&attempt)) continue;
      return Status::IOError("pread(" + path_ + ", page " +
                             std::to_string(id) +
                             "): " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("pread(" + path_ + ", page " +
                             std::to_string(id) + "): unexpected EOF at byte " +
                             std::to_string(done));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileBackend::WritePage(uint32_t id, const char* buf) {
  size_t done = 0;
  int attempt = 0;
  while (done < kPageSize) {
    ssize_t n = ::pwrite(fd_, buf + done, kPageSize - done,
                         static_cast<off_t>(id) * kPageSize +
                             static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN && NoteRetry(&attempt)) continue;
      return Status::IOError("pwrite(" + path_ + ", page " +
                             std::to_string(id) +
                             "): " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileBackend::Sync() {
  int attempt = 0;
  while (::fsync(fd_) != 0) {
    if (errno == EINTR) continue;
    if (errno == EAGAIN && NoteRetry(&attempt)) continue;
    return Status::IOError("fsync(" + path_ + "): " + std::strerror(errno));
  }
  return Status::OK();
}

// --------------------------------------------------------------- snapshots

namespace {
/// The snapshot the current thread reads under (null = current state).
/// Plain thread_local, manipulated only by the scopes below.
thread_local const ReadSnapshot* tl_read_snapshot = nullptr;
}  // namespace

const ReadSnapshot* CurrentReadSnapshot() { return tl_read_snapshot; }

ScopedReadSnapshot::ScopedReadSnapshot(uint64_t lsn)
    : prev_(tl_read_snapshot), active_(true) {
  snap_.lsn = lsn;
  tl_read_snapshot = &snap_;
}

ScopedReadSnapshot::~ScopedReadSnapshot() {
  if (active_) tl_read_snapshot = prev_;
}

SnapshotTaskScope::SnapshotTaskScope(const ReadSnapshot* snap)
    : prev_(tl_read_snapshot) {
  tl_read_snapshot = snap;
}

SnapshotTaskScope::~SnapshotTaskScope() { tl_read_snapshot = prev_; }

// ------------------------------------------------------------- page handle

PageHandle::PageHandle(BufferPool* pool, uint32_t page_id, char* data)
    : pool_(pool), page_id_(page_id), data_(data) {}

PageHandle::PageHandle(std::shared_ptr<char[]> image, uint32_t page_id)
    : page_id_(page_id), data_(image.get()), owned_(std::move(image)) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_),
      page_id_(other.page_id_),
      data_(other.data_),
      owned_(std::move(other.owned_)) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_id_ = other.page_id_;
    data_ = other.data_;
    owned_ = std::move(other.owned_);
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  if (pool_ != nullptr) pool_->Unpin(page_id_, /*dirty=*/true);
  // Keep the pin: Unpin(dirty) only sets the dirty bit when pinned.
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(page_id_, /*dirty=*/false);
    pool_ = nullptr;
  }
}

// ------------------------------------------------------------- buffer pool

BufferPool::BufferPool(std::unique_ptr<StorageBackend> backend,
                       size_t capacity)
    : backend_(std::move(backend)), capacity_(capacity) {}

BufferPool::~BufferPool() {
  if (!discard_on_destroy_) (void)FlushAll();
}

void BufferPool::LruRemove(Frame* f) {
  if (capacity_ == 0) return;  // unbounded pools never evict
  std::lock_guard<std::mutex> lock(lru_mu_);
  if (f->in_lru) {
    lru_.erase(f->lru_pos);
    f->in_lru = false;
  }
}

void BufferPool::LruAdd(uint32_t page_id, Frame* f) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(lru_mu_);
  // A concurrent reader may have re-pinned the frame between our pin-count
  // decrement and this point; listing a pinned frame is harmless because
  // eviction re-checks the pin count under the exclusive table latch.
  if (!f->in_lru) {
    lru_.push_front(page_id);
    f->lru_pos = lru_.begin();
    f->in_lru = true;
  }
}

Status BufferPool::EnsureCapacity() {
  if (capacity_ == 0 || frames_.size() < capacity_) return Status::OK();
  // Evict the least recently used unpinned frame. Frames dirtied by the
  // open transaction are not eligible (no-steal): writing them back would
  // put uncommitted bytes in the data file. The exclusive table latch held
  // by the caller keeps every reader out of the page table, so pin counts
  // cannot rise underneath the scan.
  std::lock_guard<std::mutex> lock(lru_mu_);
  bool saw_txn_dirty = false;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    uint32_t victim = *it;
    auto fit = frames_.find(victim);
    if (fit == frames_.end() ||
        fit->second.pin_count.load(std::memory_order_relaxed) > 0) {
      continue;
    }
    Frame& f = fit->second;
    if (f.txn_dirty) {
      saw_txn_dirty = true;
      continue;
    }
    if (f.dirty) {
      OXML_RETURN_NOT_OK(backend_->WritePage(victim, f.data.get()));
    }
    lru_.erase(std::next(it).base());
    frames_.erase(fit);
    return Status::OK();
  }
  if (saw_txn_dirty) {
    // Every evictable frame belongs to the open transaction; grow the pool
    // past its capacity for the transaction's lifetime rather than steal.
    return Status::OK();
  }
  return Status::Internal("buffer pool exhausted: all frames pinned");
}

void BufferPool::CaptureUndo(uint32_t page_id, const Frame& frame) {
  if (!in_txn_ || undo_.count(page_id) > 0) return;
  TxnUndo u;
  u.before = std::shared_ptr<char[]>(new char[kPageSize]);
  std::memcpy(u.before.get(), frame.data.get(), kPageSize);
  u.was_dirty = frame.dirty;
  {
    // Publish the pre-image as a committed page version, sharing the undo
    // buffer. Its base LSN is the newest committed LSN — the state this
    // transaction started from, which is also <= the snapshot LSN of every
    // reader statement that can overlap it (commits are serialized, so the
    // counter cannot advance while this transaction is open).
    std::lock_guard<std::mutex> vlock(versions_mu_);
    auto& chain = versions_[page_id];
    chain.push_back(
        {u.before, last_commit_lsn_.load(std::memory_order_relaxed)});
    versions_published_.fetch_add(1, std::memory_order_relaxed);
    uint64_t len = chain.size();
    uint64_t prev = version_chain_max_.load(std::memory_order_relaxed);
    while (prev < len && !version_chain_max_.compare_exchange_weak(
                             prev, len, std::memory_order_relaxed)) {
    }
  }
  undo_.emplace(page_id, std::move(u));
}

Result<PageHandle> BufferPool::ServeVersion(uint32_t page_id,
                                            uint64_t snap_lsn) {
  std::shared_ptr<char[]> image;
  {
    std::lock_guard<std::mutex> vlock(versions_mu_);
    auto it = versions_.find(page_id);
    if (it != versions_.end()) {
      // Newest version not newer than the snapshot. Chains are in
      // publication (= LSN) order, so scan from the back.
      for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
        if (rit->base_lsn <= snap_lsn) {
          image = rit->image;
          break;
        }
      }
    }
  }
  if (image == nullptr) {
    // Unreachable for pages the committed state references: every txn-dirty
    // frame with committed history has a published pre-image whose base LSN
    // is the snapshot every overlapping reader holds. Only a page born
    // inside the open transaction lacks one, and committed structures never
    // point at it — surfacing an error beats serving uncommitted bytes.
    return Status::Internal("page " + std::to_string(page_id) +
                            " has no version visible at snapshot LSN " +
                            std::to_string(snap_lsn));
  }
  snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
  return PageHandle(std::move(image), page_id);
}

Result<PageHandle> BufferPool::NewPage() {
  // Exclusive: allocation mutates both the backend and the page table.
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  OXML_ASSIGN_OR_RETURN(uint32_t id, backend_->AllocatePage());
  OXML_RETURN_NOT_OK(EnsureCapacity());
  Frame& frame = frames_[id];  // in-place: Frame holds an atomic
  frame.data = std::make_unique<char[]>(kPageSize);
  std::memset(frame.data.get(), 0, kPageSize);
  frame.page_id = id;
  frame.pin_count.store(1, std::memory_order_relaxed);
  frame.dirty = true;  // a fresh page must eventually reach the backend
  if (in_txn_) {
    frame.txn_dirty = true;
    ++txn_dirty_count_;
    TxnUndo u;
    u.is_new = true;  // rollback zeroes the page instead of restoring
    undo_.emplace(id, std::move(u));
  }
  return PageHandle(this, id, frame.data.get());
}

Result<PageHandle> BufferPool::FetchPage(uint32_t page_id) {
  const ReadSnapshot* snap = CurrentReadSnapshot();
  {
    // Fast path: a resident page is pinned under the shared latch, so any
    // number of readers fault-free pages in parallel. Frame addresses are
    // stable across rehashes (unordered_map) and eviction only erases
    // unpinned frames under the exclusive latch, so the returned data
    // pointer stays valid for the life of the pin.
    //
    // Disabled for the owner of an open transaction: undo capture mutates
    // the unsynchronized undo_ map, and the txn owner's own parallel-scan
    // workers (which never take the statement latch) reach here
    // concurrently, so every transactional fetch must serialize through
    // the exclusive path below. in_txn_ only flips under the exclusive
    // table latch, making this shared-latched read race-free.
    //
    // Snapshot readers (tl snapshot set; only foreign threads carry one
    // while a transaction is open) stay on the shared path: a resident
    // frame the transaction has NOT dirtied still holds committed bytes —
    // the statement latch keeps writer statements out while reader
    // statements run, so txn_dirty cannot flip underneath us — and a
    // txn-dirty frame is served from the published version chain instead.
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    if (!in_txn_) {
      auto it = frames_.find(page_id);
      if (it != frames_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        Frame& f = it->second;
        f.pin_count.fetch_add(1, std::memory_order_relaxed);
        LruRemove(&f);
        return PageHandle(this, page_id, f.data.get());
      }
    } else if (snap != nullptr) {
      auto it = frames_.find(page_id);
      if (it != frames_.end()) {
        Frame& f = it->second;
        if (f.txn_dirty) return ServeVersion(page_id, snap->lsn);
        hits_.fetch_add(1, std::memory_order_relaxed);
        f.pin_count.fetch_add(1, std::memory_order_relaxed);
        LruRemove(&f);
        return PageHandle(this, page_id, f.data.get());
      }
      // Non-resident: no-steal keeps txn-dirty frames resident, so the
      // backend copy is committed state. Fault it in below — without
      // capturing undo, which belongs to the transaction owner alone.
    }
  }
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  // Another thread may have faulted the page in while we upgraded.
  auto it = frames_.find(page_id);
  if (it != frames_.end()) {
    Frame& f = it->second;
    if (snap != nullptr && in_txn_ && f.txn_dirty) {
      return ServeVersion(page_id, snap->lsn);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (snap == nullptr) CaptureUndo(page_id, f);
    f.pin_count.fetch_add(1, std::memory_order_relaxed);
    LruRemove(&f);
    return PageHandle(this, page_id, f.data.get());
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  OXML_RETURN_NOT_OK(EnsureCapacity());
  auto data = std::make_unique<char[]>(kPageSize);
  OXML_RETURN_NOT_OK(backend_->ReadPage(page_id, data.get()));
  Frame& frame = frames_[page_id];
  frame.data = std::move(data);
  frame.page_id = page_id;
  frame.pin_count.store(1, std::memory_order_relaxed);
  if (snap == nullptr) CaptureUndo(page_id, frame);
  return PageHandle(this, page_id, frame.data.get());
}

void BufferPool::Unpin(uint32_t page_id, bool dirty) {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  auto it = frames_.find(page_id);
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (dirty) {
    // Only writers mark pages dirty, and the statement latch serializes
    // them against every reader, so these plain fields race with nothing.
    f.dirty = true;
    if (in_txn_ && !f.txn_dirty) {
      f.txn_dirty = true;
      ++txn_dirty_count_;
    }
    return;  // MarkDirty does not drop the pin
  }
  int prev = f.pin_count.load(std::memory_order_relaxed);
  while (prev > 0 && !f.pin_count.compare_exchange_weak(
                         prev, prev - 1, std::memory_order_relaxed)) {
  }
  if (prev == 1) LruAdd(page_id, &f);
}

Status BufferPool::FlushAll() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  for (auto& [id, frame] : frames_) {
    if (frame.dirty && !frame.txn_dirty) {
      OXML_RETURN_NOT_OK(backend_->WritePage(id, frame.data.get()));
      frame.dirty = false;
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ transactions

Status BufferPool::BeginTxn() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  if (in_txn_) {
    return Status::InvalidArgument("a transaction is already open");
  }
  in_txn_ = true;
  txn_dirty_count_ = 0;
  undo_.clear();
  return Status::OK();
}

Status BufferPool::CommitTxn() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  if (!in_txn_) {
    return Status::InvalidArgument("no transaction is open");
  }
  if (txn_dirty_count_ == 0) {
    // Read-only transaction: nothing to log, nothing to make durable, and
    // the commit LSN does not advance (the committed state is unchanged).
    in_txn_ = false;
    undo_.clear();
    RetireVersions();
    return Status::OK();
  }
  // The LSN this commit installs. Commits are serialized by the statement
  // latch, so a simple increment of the newest committed LSN is monotone;
  // it is only published after the commit record succeeds, so a failed
  // commit leaves the snapshot clock untouched.
  uint64_t commit_lsn = last_commit_lsn_.load(std::memory_order_relaxed) + 1;
  if (wal_ != nullptr) {
    // Log images in page order so replay and crash tests are deterministic.
    std::vector<uint32_t> ids;
    ids.reserve(txn_dirty_count_);
    for (const auto& [id, frame] : frames_) {
      if (frame.txn_dirty) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    for (uint32_t id : ids) {
      OXML_RETURN_NOT_OK(wal_->AppendPageImage(id, frames_[id].data.get()));
    }
    // The commit record makes the transaction real. On failure the txn is
    // left open so the caller can roll back — recovery will ignore the
    // orphaned images above.
    OXML_RETURN_NOT_OK(wal_->Commit(commit_lsn));
  }
  for (auto& [id, frame] : frames_) {
    frame.txn_dirty = false;
  }
  last_commit_lsn_.store(commit_lsn, std::memory_order_release);
  in_txn_ = false;
  txn_dirty_count_ = 0;
  undo_.clear();
  RetireVersions();
  return Status::OK();
}

void BufferPool::RetireVersions() {
  // Drop the transaction's published versions. Safe without waiting for
  // readers: commit/rollback run under the exclusive statement latch, so no
  // reader statement is in flight, and any version-backed handle that
  // somehow outlives its statement keeps its buffer alive via shared_ptr.
  std::lock_guard<std::mutex> vlock(versions_mu_);
  versions_.clear();
}

Status BufferPool::RollbackTxn() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  if (!in_txn_) {
    return Status::InvalidArgument("no transaction is open");
  }
  for (auto& [id, u] : undo_) {
    auto it = frames_.find(id);
    if (it == frames_.end()) {
      // An undo-tracked clean frame may have been evicted (it was read, not
      // written, inside the txn — the backend still holds its last committed
      // image). Nothing to restore.
      continue;
    }
    Frame& f = it->second;
    if (u.is_new) {
      // The page did not exist before the transaction. The backend already
      // allocated it (zeroed); zero the frame and mark it clean so nothing
      // is written back. The page id is leaked until reuse, never exposed.
      std::memset(f.data.get(), 0, kPageSize);
      f.dirty = false;
      f.txn_dirty = false;
      continue;
    }
    std::memcpy(f.data.get(), u.before.get(), kPageSize);
    f.dirty = u.was_dirty;
    f.txn_dirty = false;
  }
  in_txn_ = false;
  txn_dirty_count_ = 0;
  undo_.clear();
  RetireVersions();
  return Status::OK();
}

}  // namespace oxml
