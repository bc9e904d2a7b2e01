/// \file mutex.hpp
/// The annotated locking vocabulary of wharf: util::Mutex (a std::mutex
/// declared as a Clang thread-safety *capability*), util::MutexLock (the
/// RAII guard the analysis tracks) and util::CondVar (condition waits
/// that keep the capability model honest).  Every mutex-holding class in
/// src/{util,engine,search,io,cli} uses these instead of the std types —
/// std::mutex is not a declared capability and std RAII guards live in
/// system headers the analysis exempts, so locking through them is
/// invisible to `-Wthread-safety`.  tools/check_locking.py enforces the
/// substitution in CI.
///
/// Beyond the static analysis, Mutex tracks its owning thread in debug
/// builds (NDEBUG off: the Debug, ASan/UBSan and TSan CI jobs), so
/// assert_held() gives *runtime* teeth to invariants the annotations
/// cannot express — e.g. a helper reached only through several annotated
/// callers, or lock-order assumptions across distinct objects.
///
/// CondVar waits use explicit `while (!predicate) cv.wait(mutex);` loops
/// rather than predicate lambdas: the analysis checks a lambda body as a
/// separate unannotated function, so guarded reads inside one would
/// either warn or silently escape checking — the explicit loop keeps
/// them inside the annotated caller.

#ifndef WHARF_UTIL_MUTEX_HPP
#define WHARF_UTIL_MUTEX_HPP

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

#ifndef NDEBUG
#include <atomic>
#include <cassert>
#include <thread>
#endif

namespace wharf::util {

/// A std::mutex declared as a thread-safety capability, with debug-build
/// owner tracking behind assert_held().  Satisfies BasicLockable; lock
/// it through MutexLock (or CondVar::wait), never through naked
/// lock()/unlock() pairs — tools/check_locking.py flags those.
class WHARF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Blocks until the capability is exclusively held.
  void lock() WHARF_ACQUIRE() {
    mutex_.lock();
    set_owner();
  }

  /// Releases the capability (caller must hold it).
  void unlock() WHARF_RELEASE() {
    clear_owner();
    mutex_.unlock();
  }

  /// Acquires without blocking; true iff the capability is now held.
  bool try_lock() WHARF_TRY_ACQUIRE(true) {
    const bool acquired = mutex_.try_lock();
    // Owner bookkeeping only when the acquire succeeded.
    if (acquired) set_owner();
    return acquired;
  }

  /// Runtime counterpart of WHARF_REQUIRES for invariants the static
  /// analysis cannot see: aborts (debug builds) unless the calling
  /// thread holds this mutex.  Statically, tells the analysis the
  /// capability is held from here on.
  void assert_held() const WHARF_ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    // The owner field is atomic, so this racy read stays TSan-clean.
    assert(owner_.load(std::memory_order_relaxed) == std::this_thread::get_id() &&
           "mutex not held by the calling thread");
#endif
  }

 private:
#ifndef NDEBUG
  void set_owner() { owner_.store(std::this_thread::get_id(), std::memory_order_relaxed); }
  void clear_owner() { owner_.store(std::thread::id{}, std::memory_order_relaxed); }
  /// Owning thread id; std::thread::id{} when unheld.  Written only by
  /// the holder (between lock and unlock), read racily by assert_held —
  /// atomic so the debug bookkeeping itself stays TSan-clean.
  std::atomic<std::thread::id> owner_{};
#else
  void set_owner() {}
  void clear_owner() {}
#endif

  std::mutex mutex_;
};

/// RAII guard over a Mutex — the annotated equivalent of
/// std::lock_guard.  Scoped capability: the analysis knows the mutex is
/// held between construction and scope exit (early returns included).
class WHARF_SCOPED_CAPABILITY MutexLock {
 public:
  /// Acquires `mutex` (which must outlive the guard).
  explicit MutexLock(Mutex& mutex) WHARF_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the mutex on scope exit.
  ~MutexLock() WHARF_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

/// Condition variable over util::Mutex (std::condition_variable_any
/// underneath).  wait() requires the mutex held — the holder-tracking
/// and capability bookkeeping stay correct across the internal
/// unlock/relock because the wait goes through Mutex's own annotated
/// lock()/unlock().  Use an explicit predicate loop at the call site
/// (see the file comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex` and blocks; `mutex` is re-held on
  /// return.  Spurious wakeups happen — always wait in a predicate loop.
  void wait(Mutex& mutex) WHARF_REQUIRES(mutex) { cv_.wait(mutex); }

  /// Wakes one / every waiter.
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace wharf::util

#endif  // WHARF_UTIL_MUTEX_HPP
