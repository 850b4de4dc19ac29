// Minimal fixed-size thread pool with a blocking parallel_for.
//
// Design goals, in order: (1) determinism of results — parallel_for
// assigns work by index, so any function whose iteration i writes only
// slot i of its output produces bitwise-identical results at every
// thread count; (2) nesting safety — the calling thread participates in
// draining its own loop, so a parallel_for issued from inside a pool
// task (e.g. the PaRMIS front sampler inside a campaign cell) cannot
// deadlock even when every worker is busy; (3) simplicity — a single
// mutex-protected queue, no work stealing, no futures.
//
// Exceptions thrown by loop bodies are captured and the first one is
// rethrown on the calling thread after the loop completes.
#ifndef PARMIS_EXEC_THREAD_POOL_HPP
#define PARMIS_EXEC_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace parmis::exec {

/// Number of worker threads to use when the caller does not care:
/// hardware concurrency, at least 1.
std::size_t default_num_threads();

/// Fixed-size worker pool.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread is the extra
  /// participant in every parallel_for).  `num_threads == 0` means
  /// default_num_threads().  A 1-thread pool spawns no workers and runs
  /// everything inline — handy for determinism baselines.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: workers + the calling thread.
  std::size_t num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, n).  Blocks until all iterations
  /// finished; rethrows the first captured exception.  Safe to call
  /// from inside a running loop body (the nested loop is drained by the
  /// nesting thread and any idle workers).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Job;

  void worker_loop();
  static void drain(Job& job);

  std::size_t num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Job>> pending_;
  bool stopping_ = false;
};

}  // namespace parmis::exec

#endif  // PARMIS_EXEC_THREAD_POOL_HPP
