/**
 * @file
 * Capability-annotated mutex primitives.
 *
 * Thin wrappers over std::mutex / std::condition_variable_any that
 * carry the Clang Thread Safety Analysis attributes from
 * common/thread_annotations.hh. The std types themselves carry no
 * capability, so a bare std::mutex member makes every GUARDED_BY
 * uncheckable; all lock discipline in the tree goes through these.
 *
 * They live in common/ (not sim/) because the auditor — which sits
 * *below* sim/ in the layering diagram enforced by
 * tools/lint/pipellm_lint.py — also guards its registries with one.
 * sim/mutex.hh re-exports them under the sim:: namespace for the
 * simulator core.
 */

#ifndef PIPELLM_COMMON_MUTEX_HH
#define PIPELLM_COMMON_MUTEX_HH

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hh"

namespace pipellm {
namespace common {

/**
 * Exclusive capability wrapping std::mutex. Prefer LockGuard over
 * manual lock()/unlock() pairs; the manual interface exists for the
 * analysis-visible primitives LockGuard and CondVar build on.
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    std::mutex mu_;
};

/**
 * RAII guard acquiring a Mutex for the enclosing scope. The
 * SCOPED_CAPABILITY attribute teaches the analysis that the capability
 * is held from construction to destruction (early returns included).
 */
class SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~LockGuard() RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Condition variable waiting directly on a Mutex.
 *
 * wait() atomically releases and reacquires the mutex internally, but
 * is annotated REQUIRES(mu): from the analysis' point of view the
 * capability is held across the call, which is sound for callers — the
 * guarded state may change over the wait (hence the mandatory while
 * loop around every wait), but is never accessible unlocked.
 */
class CondVar
{
  public:
    CondVar() = default;

    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Block until notified; callers re-test their predicate in a
     *  while loop (spurious wakeups included by contract). */
    void wait(Mutex &mu) REQUIRES(mu) { cv_.wait(mu); }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable_any cv_;
};

} // namespace common
} // namespace pipellm

#endif // PIPELLM_COMMON_MUTEX_HH
