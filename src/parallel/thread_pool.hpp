#pragma once
// Fixed-size thread pool with a caller-participating parallel_for — the
// concurrency substrate of the Optimizer's batched rounds and of BO
// acquisition scoring (core/optimizer.hpp). Design constraints:
//  - deterministic clients: the pool never decides *what* work happens, only
//    *where*; callers index tasks explicitly and merge results in canonical
//    order, so a run is bit-identical at any worker count;
//  - nesting-safe: parallel_for called from inside a pool task executes on
//    the calling thread (plus any idle workers) and cannot deadlock;
//  - deterministic failures: when several tasks throw, the exception of the
//    lowest-indexed failing task is rethrown, regardless of scheduling.

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace hp::parallel {

/// Fixed set of worker threads sharing parallel_for batches with their
/// callers. A pool of size 0 is valid and runs everything inline on the
/// calling thread, so code can be written once against the pool and
/// degrade to the sequential path.
class ThreadPool {
 public:
  /// Spawns @p num_threads workers (0 = inline execution, no threads).
  explicit ThreadPool(std::size_t num_threads);
  /// Joins the workers after draining the queue; outstanding parallel_for
  /// calls must have returned before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Runs body(0) .. body(n-1), distributing indices over the workers and
  /// the calling thread; returns when all n calls finished. Every index is
  /// executed even when some fail; if any call throws, the exception of
  /// the lowest failing index is rethrown after the batch drains (so the
  /// same exception surfaces at any worker count). Safe to call from
  /// inside a pool task (the caller executes its share inline).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// parallel_for that collects one result per index, in index order.
  /// T must be default-constructible.
  template <typename T>
  [[nodiscard]] std::vector<T> parallel_map(
      std::size_t n, const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Batch;

  void worker_loop();
  static void run_batch_share(const std::shared_ptr<Batch>& batch);

  std::vector<std::thread> workers_;
  // Leaf lock (DESIGN.md §14 rank table): never held while acquiring any
  // other hp::Mutex — jobs run outside it, so a job may freely log/record.
  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<std::function<void()>> queue_ HP_GUARDED_BY(queue_mutex_);
  bool stopping_ HP_GUARDED_BY(queue_mutex_) = false;

  // Observability counters (process-global registry; fetched once).
  obs::Counter* obs_jobs_;
  obs::Counter* obs_parallel_for_calls_;
  obs::Counter* obs_indices_;
};

}  // namespace hp::parallel
