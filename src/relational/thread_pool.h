#ifndef OXML_RELATIONAL_THREAD_POOL_H_
#define OXML_RELATIONAL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/result.h"

namespace oxml {

/// A fixed-size pool of worker threads for intra-query parallelism.
/// Deliberately work-stealing-free: ParallelFor hands out shard indices
/// from one atomic counter (morsel-driven scheduling), which balances load
/// without per-worker deques. Tasks must never submit nested tasks — the
/// parallel operators drain their children before fanning out, so a
/// ParallelFor always runs to completion even when every pool thread is
/// busy (the calling thread participates).
class ThreadPool {
 public:
  /// `num_threads` of 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (>= 1).
  size_t size() const { return threads_.size(); }

  /// Runs `fn(shard)` for every shard in [0, shards). Shards are claimed
  /// dynamically by up to size() pool workers plus the calling thread, so
  /// the call makes progress even when the pool is saturated by other
  /// callers. Blocks until every shard has finished; returns the first
  /// non-OK status (remaining shards still run, their errors are dropped).
  Status ParallelFor(size_t shards, const std::function<Status(size_t)>& fn);

  /// Enqueues one standalone task for any worker to run (fire-and-forget;
  /// the caller arranges its own completion signalling). Used by the server
  /// front end to execute protocol frames on pool workers. Tasks queued at
  /// destruction time still run: the destructor drains the queue before
  /// joining. Unlike ParallelFor, the calling thread never participates.
  void Submit(std::function<void()> task);

  /// Drains the queue and joins every worker; idempotent (the destructor
  /// calls it). Lets an owner quiesce the pool while keeping the object —
  /// and any pointers to it that draining tasks still dereference — alive,
  /// then destroy it separately. A task submitted after Shutdown() returns
  /// is never run.
  void Shutdown();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
};

/// How many morsels to cut a scan or join into: a small multiple of the
/// worker count (pool workers + the calling thread) so stragglers can be
/// absorbed, without drowning small inputs in bookkeeping. A null pool
/// (inline execution) gets one.
size_t TargetShards(const ThreadPool* pool);

}  // namespace oxml

#endif  // OXML_RELATIONAL_THREAD_POOL_H_
