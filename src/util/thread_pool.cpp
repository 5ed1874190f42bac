#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/sched_point.hpp"

namespace dinfomap::util {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)),
      errors_(static_cast<std::size_t>(num_threads_)) {
#if defined(DINFOMAP_DCHECK)
  dcheck_modeled_ = dcheck::modeled();
#endif
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int slot = 1; slot < num_threads_; ++slot) {
#if defined(DINFOMAP_DCHECK)
    if (dcheck_modeled_) dcheck::hooks()->thread_announced();
#endif
    workers_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
#if defined(DINFOMAP_DCHECK)
  // Workers need scheduler grants to observe stop_ and exit; hand them the
  // token until they all finish, then the real joins return immediately.
  if (dcheck_modeled_) dcheck::hooks()->join_all();
#endif
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_inline(const std::function<void(int)>& fn) {
#if defined(DINFOMAP_DCHECK)
  if (dcheck::mutation_enabled("threadpool.nested-errors-reset")) {
    // Seeded mutation for the dcheck harness: a nested inline dispatch
    // writing per-slot state the *outer* dispatch's workers still own (the
    // pool once had this race on per-slot timings). Resetting errors_ like a
    // top-level dispatch races with an outer worker capturing its exception
    // — and can drop that exception.
    for (int slot = 0; slot < num_threads_; ++slot) {
      const auto s = static_cast<std::size_t>(slot);
      DI_SCHED_STORE(&errors_[s], "ThreadPool.errors");
      errors_[s] = nullptr;
      fn(slot);
    }
    return;
  }
#endif
  // Nested dispatch only: the outer job's workers are still running and
  // still own their errors_ entries, so touch no per-slot state here — an
  // exception propagates to the enclosing slot, which captures it.
  for (int slot = 0; slot < num_threads_; ++slot) fn(slot);
}

void ThreadPool::run_slots(const std::function<void(int)>& fn) {
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  if (num_threads_ == 1) {
    fn(0);
    return;
  }
  // Nested dispatch (a slot re-entering the pool) would wait on workers that
  // are waiting on it; degrade to inline serial execution — same slots, same
  // order, same results.
  if (active_.exchange(true, std::memory_order_acquire)) {
    run_inline(fn);
    return;
  }

  {
    MutexLock lock(mutex_);
    job_ = &fn;
    pending_ = num_threads_ - 1;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    ++generation_;
  }
  start_cv_.notify_all();

  try {
    fn(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }

  {
    MutexLock lock(mutex_);
    lock.wait(done_cv_,
              [this]() DI_REQUIRES(mutex_) { return pending_ == 0; });
    job_ = nullptr;
  }
  active_.store(false, std::memory_order_release);

  for (const auto& e : errors_)
    if (e) std::rethrow_exception(e);
}

void ThreadPool::worker_loop(int slot) {
#if defined(DINFOMAP_DCHECK)
  if (dcheck_modeled_) {
    dcheck::set_on_model_thread(true);
    dcheck::hooks()->thread_started();
    try {
      worker_loop_body(slot);
    } catch (const dcheck::Aborted&) {
      // Exploration abort: unwind quietly; the scheduler is tearing down.
    }
    dcheck::hooks()->thread_finished();
    return;
  }
#endif
  worker_loop_body(slot);
}

void ThreadPool::worker_loop_body(int slot) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      MutexLock lock(mutex_);
      lock.wait(start_cv_, [&]() DI_REQUIRES(mutex_) {
        return stop_ || generation_ != seen;
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(slot);
    } catch (...) {
      DI_SCHED_STORE(&errors_[static_cast<std::size_t>(slot)],
                     "ThreadPool.errors");
      errors_[static_cast<std::size_t>(slot)] = std::current_exception();
    }
    {
      MutexLock lock(mutex_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace dinfomap::util
