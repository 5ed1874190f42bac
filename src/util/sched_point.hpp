// Scheduling-point hooks for the dcheck model checker (DESIGN.md §16).
//
// Every synchronization primitive in this tree (util::Mutex, util::CondVar,
// util::Atomic, the RelaxMap SpinLock, comm::Mailbox channel ops) funnels
// through the small hook surface declared here. In a normal build
// (DINFOMAP_DCHECK undefined) the macros below expand to nothing and the
// wrappers compile to the raw primitives — zero overhead, byte-identical hot
// paths. Under -DDINFOMAP_DCHECK=ON, tools/dcheck installs a SchedHooks
// implementation that replaces blocking with cooperative scheduling: threads
// participating in an exploration ("model threads") park at every hook call
// and the checker decides, deterministically and exhaustively, who runs next.
//
// Only threads marked with set_on_model_thread(true) are intercepted, so a
// DCHECK build still runs the regular test suite unmodeled. Production code
// never includes tools/dcheck; the dependency is inverted through the
// SchedHooks vtable installed at runtime.
//
// Seeded mutations: dcheck validates each harness by re-introducing a known
// bug (e.g. a nested run_inline pass racing the outer workers on errors_)
// behind mutation_enabled("name"). Mutation code is compiled only under
// DINFOMAP_DCHECK and is dead unless the checker turns the named mutation on.
#pragma once

#if defined(DINFOMAP_DCHECK)

namespace dinfomap::util::dcheck {

/// Thrown into model threads blocked at a scheduling point when an
/// exploration aborts (a bug was found and remaining threads must unwind).
/// Production code must let it propagate to the adoption wrapper; harness
/// threads catch it at their outermost frame.
struct Aborted {};

/// The checker's side of the contract. All calls are made by model threads;
/// the "blocking" entries park the caller until the scheduler grants its
/// next step (and, for locks, until the operation can proceed).
struct SchedHooks {
  virtual ~SchedHooks() = default;

  // --- mutual exclusion (util::Mutex, SpinLock) --------------------------
  /// Scheduling point. Parks until this thread is chosen *and* `m` is free;
  /// then acquires it in the model (the real mutex is never touched).
  virtual void mutex_lock(void* m, const char* what) = 0;
  /// Releases `m` in the model. Not a scheduling point: the next hook call
  /// of this thread offers the switch before its next operation runs.
  virtual void mutex_unlock(void* m) = 0;

  // --- condition variables (util::CondVar via MutexLock shims) -----------
  /// Atomically release `m` and park until notified; reacquires `m` before
  /// returning. Scheduling point.
  virtual void cv_wait(void* cv, void* m) = 0;
  /// Timed variant in virtual time: the waiter stays eligible and the
  /// scheduler explores both wake-by-notify and timeout. Returns false on
  /// (virtual) timeout; `m` is reacquired either way. Scheduling point.
  virtual bool cv_wait_timed(void* cv, void* m) = 0;
  /// Wake one/all model waiters. With `all == false` and several waiters the
  /// victim is a scheduling *decision* (recorded in the schedule string) so
  /// lost-wakeup interleavings are explored, not sampled.
  virtual void cv_notify(void* cv, bool all) = 0;

  // --- memory accesses ---------------------------------------------------
  /// Tracked access to shared state; scheduling point, and input to the
  /// vector-clock race detector. `atomic` accesses synchronize (acq/rel on
  /// the address); plain accesses are checked for data races.
  virtual void access(const void* addr, bool write, bool atomic,
                      const char* what) = 0;
  /// Labeled scheduling point with no memory semantics (protocol-level
  /// granularity markers, e.g. mailbox enqueue/dequeue).
  virtual void region(const char* what, const void* obj) = 0;

  // --- thread lifecycle --------------------------------------------------
  /// Called by the creator immediately before std::thread launch so the
  /// scheduler can wait for the adoption instead of declaring quiescence.
  virtual void thread_announced() = 0;
  /// First call of a freshly adopted thread; parks until first granted.
  virtual void thread_started() = 0;
  /// Last call of an adopted thread.
  virtual void thread_finished() = 0;
  /// Park until every other managed thread has finished (ThreadPool's dtor
  /// join — the workers are the only peers left by then). Never throws, so
  /// it is safe during unwinding.
  virtual void join_all() = 0;
};

/// Installed hooks, or nullptr when no exploration is active.
SchedHooks* hooks();
void install_hooks(SchedHooks* h);

/// Whether the *current thread* participates in the exploration.
bool on_model_thread();
void set_on_model_thread(bool v);

/// True only when hooks are installed and this thread is managed — the one
/// test every intercepted primitive performs.
inline bool modeled() { return hooks() != nullptr && on_model_thread(); }

/// Seeded-mutation registry: at most one mutation is active per run.
bool mutation_enabled(const char* name);
void set_mutation(const char* name);  // nullptr clears

}  // namespace dinfomap::util::dcheck

/// Tracked plain store/load (race-detector input + scheduling point).
#define DI_SCHED_STORE(addr, what)                                   \
  do {                                                               \
    if (::dinfomap::util::dcheck::modeled())                         \
      ::dinfomap::util::dcheck::hooks()->access(addr, true, false,   \
                                                what);               \
  } while (0)
#define DI_SCHED_LOAD(addr, what)                                    \
  do {                                                               \
    if (::dinfomap::util::dcheck::modeled())                         \
      ::dinfomap::util::dcheck::hooks()->access(addr, false, false,  \
                                                what);               \
  } while (0)
/// Tracked atomic access (synchronizes; scheduling point).
#define DI_SCHED_ATOMIC(addr, is_write, what)                        \
  do {                                                               \
    if (::dinfomap::util::dcheck::modeled())                         \
      ::dinfomap::util::dcheck::hooks()->access(addr, is_write,      \
                                                true, what);         \
  } while (0)
/// Labeled scheduling point (no memory semantics).
#define DI_SCHED_REGION(what, obj)                                   \
  do {                                                               \
    if (::dinfomap::util::dcheck::modeled())                         \
      ::dinfomap::util::dcheck::hooks()->region(what, obj);          \
  } while (0)

#else  // !DINFOMAP_DCHECK — every hook disappears entirely.

#define DI_SCHED_STORE(addr, what) ((void)0)
#define DI_SCHED_LOAD(addr, what) ((void)0)
#define DI_SCHED_ATOMIC(addr, is_write, what) ((void)0)
#define DI_SCHED_REGION(what, obj) ((void)0)

#endif  // DINFOMAP_DCHECK
