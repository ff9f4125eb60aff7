/**
 * @file
 * A minimal event queue: callbacks dispatched in (tick, insertion)
 * order while a clock advances.
 *
 * No simulation runs on it. Every resource computes its completion
 * times by reservation (sim/resource.hh), so nothing in src/ ever
 * schedules an event. The queue stays only because
 * perfbench/perfbench.cc builds its sim.events_per_s probe on it;
 * the next change to the benchmark should drop that probe and this
 * file with it.
 */

#ifndef PIPELLM_SIM_EVENT_QUEUE_HH
#define PIPELLM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace pipellm {
namespace sim {

/** Callbacks on a binary heap ordered by (tick, seq). Not thread-safe. */
class EventQueue
{
  public:
    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn at absolute tick @p when (>= now). */
    void
    schedule(Tick when, std::function<void()> fn)
    {
        PIPELLM_ASSERT(when >= now_, "scheduling into the past: when=",
                       when, " now=", now_);
        heap_.push_back({when, next_seq_++, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /** Schedule @p fn @p delay ticks from now. */
    void
    scheduleIn(Tick delay, std::function<void()> fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    /** Dispatch events, advancing now(), until none remain. */
    void
    run()
    {
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            Event ev = std::move(heap_.back());
            heap_.pop_back();
            now_ = ev.when;
            ev.fn();
        }
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    /** Heap comparator: the earliest (when, seq) sits on top. */
    static bool
    later(const Event &a, const Event &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    std::vector<Event> heap_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace sim
} // namespace pipellm

#endif // PIPELLM_SIM_EVENT_QUEUE_HH
