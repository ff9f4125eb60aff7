/**
 * @file
 * Compile-time-optional invariant auditor.
 *
 * The simulator's correctness argument rests on invariants the code
 * only implicitly maintains: IV counters are never reused within a
 * session, mispredicted speculative ciphertexts are discarded before
 * they can be exposed, decryption never completes before its
 * ciphertext arrives, per-resource simulated clocks never run
 * backwards, and the cluster frontier only moves forward. This module
 * makes those invariants *checkable*: instrumented types call the
 * audit hooks, a global registry cross-checks every observation, and
 * any violation either aborts immediately (the default, so CI trips)
 * or is recorded for inspection (tests).
 *
 * Builds with -DPIPELLM_AUDIT=ON define PIPELLM_AUDIT=1 and compile
 * the hooks in; otherwise PIPELLM_AUDIT_HOOK(...) expands to nothing
 * and the subsystem is zero-cost. The committed bench CSVs are
 * produced with the audit OFF and must remain byte-identical, so the
 * hooks must never alter simulated timing, only observe it.
 *
 * Instrumented objects carry a process-unique audit id (assigned at
 * construction, via a hook) rather than being keyed by address:
 * stack- and heap-allocated simulators come and go within one test
 * binary, and a recycled address must not inherit a dead object's
 * audit state.
 */

#ifndef PIPELLM_AUDIT_AUDIT_HH
#define PIPELLM_AUDIT_AUDIT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hh"
#include "common/units.hh"

namespace pipellm {
namespace audit {

/** The invariant classes the auditor distinguishes. */
enum class Check : std::uint8_t
{
    /** (key, IV) exposed twice on the simulated bus. */
    IvReuse,
    /** Sealed ciphertext neither verified nor explicitly discarded. */
    TagLedger,
    /** Two operations overlapping on one serialized resource/lane. */
    LaneOverlap,
    /** A resource reported service completing before it started. */
    ClockRegression,
    /** A chained stage completed before its upstream stage. */
    ChainCompletion,
    /** Shared-bridge bytes differ from the sum over its upstreams. */
    BridgeConservation,
    /** Plaintext declared ready before its ciphertext landed. */
    DecryptBeforeArrival,
    /** The cluster min-clock frontier stepped backwards. */
    FrontierRegression,
    /** A request was processed before its arrival time. */
    EarlyDelivery,
    /** Router load accounting nonzero after the run drained. */
    ResidualLoad,
};

const char *toString(Check check);

/**
 * FNV-1a fold of @p len bytes into a u64 — identity digest for
 * retained-ciphertext replay checks (not cryptographic; the real tag
 * already authenticates the bytes).
 */
std::uint64_t digest(const void *data, std::size_t len);

/** One recorded invariant violation. */
struct Violation
{
    Check check;
    std::string message;
};

/**
 * Global invariant registry. A process-wide singleton: the hooks are
 * sprinkled across layers that share no common owner (the sim
 * resources, SecureChannel, GpuDevice, ClusterRouter), and audit
 * state must survive across Platform instances to catch cross-object
 * reuse. Tests reset() it between cases.
 */
class Auditor
{
  public:
    static Auditor &instance();

    /** Drop all registries and recorded violations (tests). The id
     *  counter is preserved so ids stay process-unique. */
    void reset();

    /** Fresh process-unique id for an instrumented object. */
    std::uint64_t
    newId()
    {
        common::LockGuard lock(mu_);
        return ++next_id_;
    }

    /**
     * When true (default), a violation aborts via PANIC so CI trips
     * at the first broken invariant. Tests set false and inspect
     * violations() instead.
     */
    void
    setTrapOnViolation(bool trap)
    {
        common::LockGuard lock(mu_);
        trap_ = trap;
    }

    bool
    trapOnViolation() const
    {
        common::LockGuard lock(mu_);
        return trap_;
    }

    /**
     * Snapshot of the recorded violations. Returned by value so no
     * reference to the guarded registry escapes the lock — the
     * capability analysis rejects the old by-reference accessor.
     */
    std::vector<Violation>
    violations() const
    {
        common::LockGuard lock(mu_);
        return violations_;
    }

    /** Violations recorded for @p check. */
    std::size_t count(Check check) const;

    /** Times @p check was evaluated (cleanly or not). */
    std::uint64_t evaluations(Check check) const;

    /** Multi-line human-readable report of recorded violations. */
    std::string report() const;

    // --- crypto: IV-uniqueness registry and tag ledger ---

    /**
     * A new CC session epoch began on channel @p channel_id
     * (construction or enableCc re-sync). Exposures from earlier
     * epochs are retired: session setup re-synchronizes counters,
     * modeling a fresh key exchange.
     */
    void noteSessionEpoch(std::uint64_t channel_id);

    /**
     * A lockstep ciphertext crossed the (simulated) bus: sealed under
     * (channel @p channel_id's key, @p dir, @p counter). Any second
     * exposure of the same triple in the same epoch is a (key, IV)
     * reuse — GCM's one fatal misuse.
     */
    void noteExposure(std::uint64_t channel_id, int dir,
                      std::uint64_t counter);

    /**
     * A retained (§8.2 content-generation) ciphertext with tag digest
     * @p tag_digest was exposed under @p counter. Replaying the *same*
     * ciphertext is the design; a *different* ciphertext under an
     * already-used retained IV is a reuse violation, as is any overlap
     * with a lockstep exposure.
     */
    void noteRetainedExposure(std::uint64_t channel_id, int dir,
                              std::uint64_t counter,
                              std::uint64_t tag_digest);

    /**
     * A ciphertext was produced. Returns the ledger serial to stash in
     * the blob; the blob must later be verified or discarded.
     */
    std::uint64_t noteSeal(std::uint64_t channel_id, int dir,
                           std::uint64_t counter);

    /** Blob @p serial passed tag verification. */
    void noteVerified(std::uint64_t serial);

    /** Blob @p serial was explicitly discarded (never to be sent). */
    void noteDiscarded(std::uint64_t serial);

    /** Sealed blobs not yet verified or discarded. */
    std::size_t outstandingBlobs() const;

    /**
     * End-of-scenario ledger check: records a TagLedger violation when
     * any sealed blob was neither verified nor discarded.
     */
    void checkLedgerDrained(const char *context);

    // --- sim: clocks, serialized occupancy, conservation ---

    /**
     * Serialized resource @p res_id (BandwidthResource lane,
     * SerialTimeline) served one request over [start, done]. Checks
     * service causality (done >= start) and that the interval does
     * not overlap the resource's previous one.
     */
    void noteService(std::uint64_t res_id, const std::string &name,
                     Tick start, Tick done, std::uint64_t bytes);

    /**
     * An upstream stage forwarded @p bytes into shared stage
     * @p down_id; the chained request completed at @p chain_done with
     * the upstream stage alone done at @p upstream_done. Checks the
     * chained completion never precedes the upstream stage and
     * accumulates the conservation ledger for checkConservation().
     */
    void noteChainForward(std::uint64_t down_id,
                          const std::string &down_name,
                          std::uint64_t bytes, Tick upstream_done,
                          Tick chain_done);

    /**
     * Decryption of a ciphertext that lands at @p arrival finished at
     * @p plain_ready; plaintext may not precede ciphertext.
     */
    void noteDecrypt(Tick arrival, Tick plain_ready);

    /**
     * Conservation check: every shared stage that ever received
     * forwarded traffic must have served exactly the bytes its
     * upstreams forwarded (no direct submissions, no lost bytes).
     */
    void checkConservation();

    /**
     * Conservation check scoped to one shared stage (by its audit id).
     * The cluster router audits only its own platform's host bridge so
     * unrelated stages from other live simulations cannot bleed in.
     */
    void checkConservation(std::uint64_t stage_id);

    // --- serving: cluster frontier and router accounting ---

    /** Cluster run @p run_id's min-clock frontier reached @p t. */
    void noteFrontier(std::uint64_t run_id, Tick t);

    /**
     * A replica stepped with clock @p engine_clock while the frontier
     * stood at @p frontier; the co-simulation only ever steps the
     * replica *at* the frontier, so a replica ahead of it racing
     * forward is an interleaving bug.
     */
    void noteReplicaStep(std::uint64_t run_id, Tick engine_clock,
                         Tick frontier);

    /**
     * Request with arrival @p arrival was delivered to a replica whose
     * clock then read @p engine_clock (must be >= arrival: a replica
     * may not process a request before it exists).
     */
    void noteDelivery(std::uint64_t run_id, Tick arrival,
                      Tick engine_clock);

    /**
     * Cluster run @p run_id drained. @p residual_load is the sum of
     * the router's per-replica outstanding-load estimates, which must
     * have returned to zero.
     */
    void noteRunEnd(std::uint64_t run_id, std::uint64_t residual_load);

  private:
    struct SharedStage;

    Auditor() = default;

    void violate(Check check, std::string message) REQUIRES(mu_);
    void
    evaluated(Check check) REQUIRES(mu_)
    {
        ++evaluations_[std::size_t(check)];
    }
    void checkStage(std::uint64_t id, const SharedStage &stage)
        REQUIRES(mu_);

    /**
     * The registry is process-global, so every public entry point
     * locks for callers on any thread; the private helpers above are
     * REQUIRES(mu_) and run under the caller's lock.
     * The hooks observe simulated time rather than influencing it, so
     * serialization here cannot perturb results.
     */
    mutable common::Mutex mu_;
    bool trap_ GUARDED_BY(mu_) = true;
    std::vector<Violation> violations_ GUARDED_BY(mu_);
    std::uint64_t evaluations_[16] GUARDED_BY(mu_) = {};
    std::uint64_t next_id_ GUARDED_BY(mu_) = 0;

    // (channel, epoch, dir, counter) -> exposure kind/digest.
    struct ExposureKey
    {
        std::uint64_t channel;
        std::uint64_t epoch;
        int dir;
        std::uint64_t counter;
        bool operator==(const ExposureKey &o) const
        {
            return channel == o.channel && epoch == o.epoch &&
                   dir == o.dir && counter == o.counter;
        }
    };
    struct ExposureKeyHash
    {
        std::size_t operator()(const ExposureKey &k) const
        {
            std::uint64_t h = k.channel;
            h = (h ^ k.epoch) * 0x9e3779b97f4a7c15ull;
            h = (h ^ std::uint64_t(k.dir)) * 0x9e3779b97f4a7c15ull;
            h = (h ^ k.counter) * 0x9e3779b97f4a7c15ull;
            return std::size_t(h);
        }
    };
    struct Exposure
    {
        bool retained = false;
        /** Tag digest for retained replay-identity checks. */
        std::uint64_t tag_digest = 0;
    };
    std::unordered_map<ExposureKey, Exposure, ExposureKeyHash>
        exposures_ GUARDED_BY(mu_);
    std::unordered_map<std::uint64_t, std::uint64_t> channel_epoch_
        GUARDED_BY(mu_);

    // Tag ledger: serial -> state.
    enum class BlobState : std::uint8_t { Sealed, Verified, Discarded };
    struct BlobRecord
    {
        BlobState state = BlobState::Sealed;
        std::uint64_t channel = 0;
        int dir = 0;
        std::uint64_t counter = 0;
    };
    std::unordered_map<std::uint64_t, BlobRecord> ledger_
        GUARDED_BY(mu_);
    std::uint64_t next_serial_ GUARDED_BY(mu_) = 0;

    // Per serialized resource: the last served interval.
    struct ResState
    {
        Tick last_start = 0;
        Tick last_done = 0;
        bool seen = false;
        std::uint64_t served_bytes = 0;
    };
    std::unordered_map<std::uint64_t, ResState> resources_
        GUARDED_BY(mu_);

    // Shared-stage conservation: forwarded bytes per chained stage.
    struct SharedStage
    {
        std::string name;
        std::uint64_t forwarded = 0;
    };
    std::unordered_map<std::uint64_t, SharedStage> shared_stages_
        GUARDED_BY(mu_);

    std::unordered_map<std::uint64_t, Tick> frontier_ GUARDED_BY(mu_);
};

} // namespace audit
} // namespace pipellm

/**
 * Wrap every audit call site so the instrumentation vanishes from
 * non-audit builds. Usage:
 *   PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteExposure(...));
 */
#if defined(PIPELLM_AUDIT) && PIPELLM_AUDIT
#define PIPELLM_AUDIT_ENABLED 1
#define PIPELLM_AUDIT_HOOK(...)                                            \
    do {                                                                   \
        __VA_ARGS__;                                                       \
    } while (0)
#else
#define PIPELLM_AUDIT_ENABLED 0
#define PIPELLM_AUDIT_HOOK(...)                                            \
    do {                                                                   \
    } while (0)
#endif

#endif // PIPELLM_AUDIT_AUDIT_HH
