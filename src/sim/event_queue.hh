/**
 * @file
 * Discrete-event simulation core.
 *
 * Each EventQueue is an ordered event list plus a simulated clock.
 * Events are pool-allocated intrusive pairing-heap nodes carrying a
 * small-buffer-optimized callback, so steady-state scheduling
 * touches neither malloc nor std::function. Events at the same tick
 * fire in insertion order.
 */

#ifndef PIPELLM_SIM_EVENT_QUEUE_HH
#define PIPELLM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>

#include "audit/audit.hh"
#include "common/units.hh"
#include "sim/pool.hh"
#include "sim/small_fn.hh"

namespace pipellm {
namespace sim {

/** Callback fired when its scheduled tick is reached. */
using EventFn = InlineFn;

/**
 * An ordered event queue and simulated clock.
 *
 * Components schedule callbacks; run() (or runUntil()) dispatches them
 * in (tick, insertion) order while advancing now(). Not thread-safe.
 */
class EventQueue
{
  public:
    EventQueue()
    {
        PIPELLM_AUDIT_HOOK(
            audit_id_ = audit::Auditor::instance().newId());
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Process-unique audit identity (0 in non-audit builds). */
    std::uint64_t auditId() const { return audit_id_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn at absolute tick @p when (>= now). */
    void schedule(Tick when, EventFn &&fn);

    /** Schedule @p fn @p delay ticks from now. */
    void scheduleIn(Tick delay, EventFn &&fn);

    /** Pre-size the node pool for @p n in-flight events. */
    void reserve(std::size_t n) { pool_.reserve(n); }

    /** True when no events remain. */
    bool empty() const { return root_ == nullptr; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Tick of the next pending event, or maxTick when empty. */
    Tick
    nextEventTick() const
    {
        return root_ ? root_->when : maxTick;
    }

    /** Dispatch the single next event; returns false if none remain. */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run until the queue drains or simulated time would pass
     * @p deadline; events at exactly @p deadline still fire.
     */
    void runUntil(Tick deadline);

    /** Total events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return dispatched_; }

  private:
    /** Intrusive pairing-heap node; lives in pool_, never the heap. */
    struct Event
    {
        Event(Tick w, std::uint64_t s, EventFn &&f)
            : when(w), seq(s), fn(std::move(f))
        {}

        Tick when;
        std::uint64_t seq;
        Event *child = nullptr;   ///< leftmost child
        Event *sibling = nullptr; ///< next sibling to the right
        EventFn fn;
    };

    static bool
    before(const Event *a, const Event *b)
    {
        return a->when != b->when ? a->when < b->when : a->seq < b->seq;
    }

    static Event *meld(Event *a, Event *b);
    static Event *mergePairs(Event *first);

    /** Unlink and return the minimum event; pending_ is updated. */
    Event *popMin();

    /** Fire @p ev (already unlinked) and recycle its node. */
    void dispatch(Event *ev);

    Pool<Event> pool_;
    Event *root_ = nullptr;
    std::size_t pending_ = 0;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t audit_id_ = 0;
};

} // namespace sim
} // namespace pipellm

#endif // PIPELLM_SIM_EVENT_QUEUE_HH
