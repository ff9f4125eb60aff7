/**
 * @file
 * Clang Thread Safety Analysis annotation macros (Abseil-style).
 *
 * The locking code (shared host arena, page protection, auditor)
 * proves its lock discipline at compile time: mutexes are declared as
 * capabilities, protected fields carry GUARDED_BY, and helpers that
 * assume the lock carry REQUIRES. Clang's -Wthread-safety then rejects
 * any access path that cannot show the capability is held — including
 * paths no test happens to exercise, which is exactly where TSan stops
 * helping. CI builds the tree with -Wthread-safety -Wthread-safety-beta
 * promoted to errors (see .github/workflows/ci.yml, static-analysis).
 *
 * On compilers without the attributes (GCC) every macro expands to
 * nothing, so the annotations are free and the tree stays portable.
 *
 * Conventions (DESIGN.md §13):
 *  - lock members are `common::Mutex`, never bare std::mutex — the
 *    std types carry no capability;
 *  - every field touched by more than one thread is GUARDED_BY its
 *    mutex;
 *  - private helpers that run under the caller's lock are named
 *    `*Locked()` and annotated REQUIRES(mu_);
 *  - recursive mutexes are banned: the analysis cannot reason about
 *    re-entrant acquisition, so re-entrant paths are split into
 *    *Locked() helpers instead (see mem/page_protection.hh).
 */

#ifndef PIPELLM_COMMON_THREAD_ANNOTATIONS_HH
#define PIPELLM_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && (!defined(SWIG))
#define PIPELLM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PIPELLM_THREAD_ANNOTATION(x) // no-op
#endif

/** Marks a class as a lockable capability (e.g. a mutex wrapper). */
#define CAPABILITY(x) PIPELLM_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class that acquires on construction, releases on
 *  destruction (lock guards). */
#define SCOPED_CAPABILITY PIPELLM_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while holding @p x. */
#define GUARDED_BY(x) PIPELLM_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is protected by @p x. */
#define PT_GUARDED_BY(x) PIPELLM_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function may only be called while holding the capabilities. */
#define REQUIRES(...) \
    PIPELLM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function may only be called while NOT holding the capabilities. */
#define EXCLUDES(...) \
    PIPELLM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function acquires the capability and does not release it. */
#define ACQUIRE(...) \
    PIPELLM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capability. */
#define RELEASE(...) \
    PIPELLM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability when returning @p ret. */
#define TRY_ACQUIRE(...) \
    PIPELLM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Asserts (at runtime) that the capability is already held. */
#define ASSERT_CAPABILITY(x) \
    PIPELLM_THREAD_ANNOTATION(assert_capability(x))

/** Function returns a reference to the given capability. */
#define RETURN_CAPABILITY(x) PIPELLM_THREAD_ANNOTATION(lock_returned(x))

/** Mutex acquisition order: this one before @p ... */
#define ACQUIRED_BEFORE(...) \
    PIPELLM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Mutex acquisition order: this one after @p ... */
#define ACQUIRED_AFTER(...) \
    PIPELLM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Escape hatch: the function intentionally evades the analysis.
 *  Every use must carry a justification comment; the lint's
 *  thread-annotation hygiene rules keep this out of src/sim, src/mem
 *  and src/audit entirely. */
#define NO_THREAD_SAFETY_ANALYSIS \
    PIPELLM_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // PIPELLM_COMMON_THREAD_ANNOTATIONS_HH
