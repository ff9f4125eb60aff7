/**
 * @file
 * MPK/PKU-style page protection with fault hooks.
 *
 * PipeLLM's validator revokes *write* permission on pages whose
 * plaintext it has speculatively encrypted (paper §5.2); the async
 * decryptor revokes *all* access on placeholder pages that still hold
 * ciphertext (paper §5.4). An application access to a protected page
 * triggers a fault handler, which resolves the conflict (invalidate
 * the speculation / decrypt synchronously), lifts the protection, and
 * reports the tick at which the access may proceed.
 *
 * Protection is tracked at 4 KiB page granularity, like real MPK keys
 * applied through the page tables.
 */

#ifndef PIPELLM_MEM_PAGE_PROTECTION_HH
#define PIPELLM_MEM_PAGE_PROTECTION_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/mutex.hh"
#include "common/units.hh"

namespace pipellm {
namespace mem {

/** Page size used for protection and sparse materialization. */
constexpr std::uint64_t pageBytes = 4 * KiB;

/** Index of the page containing @p addr. */
constexpr std::uint64_t pageIndex(Addr addr) { return addr / pageBytes; }

/** First address of page @p index. */
constexpr Addr pageBase(std::uint64_t index) { return index * pageBytes; }

/** Protection level applied to a page. */
enum class Protection : std::uint8_t
{
    None,     ///< full access
    NoWrite,  ///< reads allowed, writes fault (validator)
    NoAccess, ///< any access faults (async-decrypt placeholder)
};

/**
 * Fault handler invoked on a protected access.
 *
 * @param addr faulting address
 * @param is_write whether the access is a write
 * @return earliest tick at which the access may proceed (0 if
 *         immediately); the handler must lift the protection that
 *         caused the fault before returning.
 */
using FaultHandler = std::function<Tick(Addr addr, bool is_write)>;

/** Per-page protection map with fault dispatch. */
class PageProtection
{
  public:
    /**
     * Protect all pages overlapping [base, base+len). The range is
     * expanded outward to page boundaries. Protecting an
     * already-protected page overwrites its entry.
     */
    void protect(Addr base, std::uint64_t len, Protection prot,
                 FaultHandler handler);

    /** Restore full access on all pages overlapping the range. */
    void unprotect(Addr base, std::uint64_t len);

    /** Protection currently applied to the page holding @p addr. */
    Protection query(Addr addr) const;

    /**
     * Check an access; dispatch fault handlers for any protected page
     * in the range. Each distinct faulting page invokes its handler
     * once; handlers must lift their own protection (verified here,
     * panic otherwise).
     *
     * @return earliest tick the access may proceed (0 if unprotected)
     */
    Tick access(Addr base, std::uint64_t len, bool is_write);

    /** True if any page in the range carries any protection. */
    bool anyProtected(Addr base, std::uint64_t len) const;

    /** Number of faults dispatched so far. */
    std::uint64_t
    faults() const
    {
        common::LockGuard lock(mu_);
        return faults_;
    }

    /** Number of pages currently protected. */
    std::size_t protectedPages() const;

  private:
    /**
     * Protection is stored as page-aligned *ranges* rather than
     * per-page entries: a speculated OPT-66B layer spans half a
     * million pages, and the semantics (one handler per protect()
     * call, page-rounded bounds) are identical.
     */
    struct Entry
    {
        Addr end = 0; ///< exclusive, page aligned
        Protection prot = Protection::None;
        std::shared_ptr<FaultHandler> handler;
    };

    using RangeMap = std::map<Addr, Entry>; ///< keyed by start

    static bool blocks(Protection prot, bool is_write);
    RangeMap::const_iterator findCoveringLocked(Addr addr) const
        REQUIRES(mu_);
    void unprotectLocked(Addr base, std::uint64_t len) REQUIRES(mu_);
    /**
     * First blocking range overlapping [s, e); fills @p fault_addr and
     * @p handler and bumps the fault counter when one is found.
     */
    bool findBlockingLocked(Addr s, Addr e, bool is_write,
                            Addr &fault_addr,
                            std::shared_ptr<FaultHandler> &handler)
        REQUIRES(mu_);

    /**
     * Serializes the host arena's protection map for concurrent
     * callers. A *plain* capability-annotated mutex: fault handlers
     * legitimately re-enter this class (lifting their own protection,
     * touching other protected pages while resolving), so access()
     * releases the lock around every handler dispatch — the handler
     * re-acquires like any other caller, the compile-time analysis can
     * follow the discipline, and the old recursive_mutex (opaque to
     * Clang's thread-safety analysis) is gone. The handler shared_ptr
     * keeps the callback alive even if a concurrent unprotect() erases
     * its entry mid-dispatch.
     */
    mutable common::Mutex mu_;
    RangeMap ranges_ GUARDED_BY(mu_);
    std::uint64_t faults_ GUARDED_BY(mu_) = 0;
};

} // namespace mem
} // namespace pipellm

#endif // PIPELLM_MEM_PAGE_PROTECTION_HH
