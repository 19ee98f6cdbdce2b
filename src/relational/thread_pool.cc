#include "src/relational/thread_pool.h"

#include <algorithm>
#include <memory>

#include "src/relational/query_control.h"

namespace oxml {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.notify_one();
}

Status ThreadPool::ParallelFor(size_t shards,
                               const std::function<Status(size_t)>& fn) {
  if (shards == 0) return Status::OK();
  if (shards == 1) return fn(0);

  // The statement's governance token rides into every worker (morsel
  // boundaries are cancellation check points), exactly like the MVCC read
  // snapshot that the shard lambdas re-install themselves.
  QueryControl* ctl = CurrentQueryControl();

  // Shared fan-out state. Helpers that never got scheduled before the
  // caller drained every shard exit immediately (next >= shards), so the
  // completion wait below cannot miss them.
  struct FanOut {
    std::atomic<size_t> next{0};
    std::atomic<size_t> active{0};
    std::mutex mu;
    std::condition_variable done;
    Status first_error;
  };
  auto state = std::make_shared<FanOut>();

  auto drain = [state, shards, &fn, ctl] {
    QueryControlTaskScope control_scope(ctl);
    size_t i;
    while ((i = state->next.fetch_add(1, std::memory_order_relaxed)) <
           shards) {
      Status st = ctl != nullptr ? ctl->Check() : Status::OK();
      if (st.ok()) st = fn(i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->first_error.ok()) state->first_error = std::move(st);
        // A cancelled/expired statement stops claiming shards; peers see
        // the same control and wind down at their next claim.
        if (st.IsCancelled() || st.IsDeadlineExceeded()) break;
      }
    }
  };

  size_t helpers = std::min(threads_.size(), shards - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      state->active.fetch_add(1, std::memory_order_relaxed);
      queue_.emplace_back([state, drain] {
        drain();
        std::lock_guard<std::mutex> lock(state->mu);
        state->active.fetch_sub(1, std::memory_order_relaxed);
        state->done.notify_one();
      });
    }
  }
  cv_.notify_all();

  drain();  // the caller is always one of the workers

  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&state] {
    return state->active.load(std::memory_order_relaxed) == 0;
  });
  return state->first_error;
}

size_t TargetShards(const ThreadPool* pool) {
  return pool == nullptr ? 1 : (pool->size() + 1) * 2;
}

}  // namespace oxml
