#include "parallel/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <utility>

#include "core/contracts.hpp"
#include "obs/trace.hpp"

namespace hp::parallel {

/// Shared state of one parallel_for call. Heap-allocated and shared with
/// the helper jobs so a helper dequeued after the call returned (possible
/// when the caller finished the whole batch itself) touches live memory.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  /// Span context of the parallel_for caller, re-established on every
  /// thread that executes a share so child spans attach to the caller's
  /// span rather than to whatever ran last on that worker.
  std::uint64_t trace_parent = 0;
  std::atomic<std::size_t> next{0};

  // Leaf lock (DESIGN.md §14): guards the completion/error state below and
  // is never held while acquiring another hp::Mutex.
  Mutex mutex;
  CondVar done_cv;
  std::size_t finished HP_GUARDED_BY(mutex) = 0;
  /// Lowest failing index wins, so the same exception surfaces at any
  /// worker count.
  std::exception_ptr error HP_GUARDED_BY(mutex);
  std::size_t error_index HP_GUARDED_BY(mutex) =
      std::numeric_limits<std::size_t>::max();
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : obs_queue_depth_(&obs::metrics().gauge("pool.queue_depth")),
      obs_task_wait_s_(&obs::metrics().histogram("pool.task_wait_s")),
      obs_jobs_(&obs::metrics().counter("pool.jobs")),
      obs_parallel_for_calls_(
          &obs::metrics().counter("pool.parallel_for_calls")),
      obs_indices_(&obs::metrics().counter("pool.indices")) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(queue_mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::instrument_job(std::function<void()>& job) {
  if (!obs::metrics().enabled()) return;
  obs_queue_depth_->add(1.0);
  const auto enqueued = std::chrono::steady_clock::now();
  job = [this, enqueued, inner = std::move(job)] {
    obs_queue_depth_->add(-1.0);
    obs_task_wait_s_->observe(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - enqueued)
                                  .count());
    obs_jobs_->add(1);
    inner();
  };
}

void ThreadPool::run_batch_share(const std::shared_ptr<Batch>& batch) {
  HP_ASSERT(batch != nullptr && batch->body != nullptr,
            "ThreadPool batch without a body");
  const obs::ScopedParent trace_scope(batch->trace_parent);
  std::size_t done_here = 0;
  for (;;) {
    const std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) break;
    try {
      (*batch->body)(i);
    } catch (...) {
      MutexLock lock(batch->mutex);
      if (i < batch->error_index) {
        batch->error = std::current_exception();
        batch->error_index = i;
      }
    }
    ++done_here;
  }
  if (done_here > 0) {
    MutexLock lock(batch->mutex);
    batch->finished += done_here;
    HP_ASSERT(batch->finished <= batch->n,
              "ThreadPool batch over-counted finished indices");
    if (batch->finished == batch->n) batch->done_cv.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (obs::metrics().enabled()) {
    obs_parallel_for_calls_->add(1);
    obs_indices_->add(n);
  }

  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->n = n;
  if (obs::tracer().enabled()) {
    batch->trace_parent = obs::tracer().current_span();
  }

  if (workers_.empty() || n == 1) {
    // Inline execution, same drain-and-rethrow semantics as the threaded
    // path (every index runs; lowest failing index surfaces). No other
    // thread ever saw this batch, but `error` is guarded state and the
    // uncontended lock keeps the access contract uniform.
    run_batch_share(batch);
    std::exception_ptr error;
    {
      MutexLock lock(batch->mutex);
      error = std::move(batch->error);
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  // One helper job per worker (capped by n-1: the caller takes a share
  // too). A helper that wakes up after the batch drained exits instantly.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  {
    MutexLock lock(queue_mutex_);
    HP_ASSERT(!stopping_, "ThreadPool::parallel_for during shutdown");
    for (std::size_t i = 0; i < helpers; ++i) {
      std::function<void()> helper = [batch] { run_batch_share(batch); };
      instrument_job(helper);
      queue_.emplace_back(std::move(helper));
    }
  }
  queue_cv_.notify_all();

  // The caller participates — this is what makes nested parallel_for safe:
  // even with every worker busy, the calling thread alone finishes the
  // batch.
  run_batch_share(batch);

  // Take the error out of the batch before rethrowing it. A helper job may
  // still hold the batch after this call returns and drop its last
  // reference on a worker; the exception must not die there, after the
  // caller has already caught it and read it. Moved out, the caller's
  // thread holds the only reference.
  std::exception_ptr error;
  {
    MutexLock lock(batch->mutex);
    while (batch->finished != batch->n) batch->done_cv.wait(batch->mutex);
    error = std::move(batch->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace hp::parallel
