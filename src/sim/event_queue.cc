#include "sim/event_queue.hh"

#include <utility>
#include <vector>

#include "common/logging.hh"

namespace pipellm {
namespace sim {

EventQueue::~EventQueue()
{
    // Destroy pending events iteratively; a recursive walk could
    // overflow the stack on a deep heap.
    std::vector<Event *> work;
    if (root_)
        work.push_back(root_);
    while (!work.empty()) {
        Event *ev = work.back();
        work.pop_back();
        if (ev->child)
            work.push_back(ev->child);
        if (ev->sibling)
            work.push_back(ev->sibling);
        pool_.destroy(ev);
    }
    root_ = nullptr;
}

EventQueue::Event *
EventQueue::meld(Event *a, Event *b)
{
    if (!a)
        return b;
    if (!b)
        return a;
    if (before(b, a))
        std::swap(a, b);
    // b becomes a's leftmost child.
    b->sibling = a->child;
    a->child = b;
    return a;
}

EventQueue::Event *
EventQueue::mergePairs(Event *first)
{
    if (!first)
        return nullptr;
    // Two-pass pairing merge, iterative in both passes. Pass one melds
    // adjacent pairs left to right, chaining the melded roots through
    // their (now spare) sibling links; pass two melds that chain right
    // to left, which is what gives the pairing heap its amortized
    // O(log n) pop.
    Event *stack = nullptr;
    while (first) {
        Event *a = first;
        Event *b = a->sibling;
        first = b ? b->sibling : nullptr;
        a->sibling = nullptr;
        if (b)
            b->sibling = nullptr;
        Event *melded = meld(a, b);
        melded->sibling = stack;
        stack = melded;
    }
    Event *root = stack;
    stack = stack->sibling;
    root->sibling = nullptr;
    while (stack) {
        Event *next = stack->sibling;
        stack->sibling = nullptr;
        root = meld(root, stack);
        stack = next;
    }
    return root;
}

void
EventQueue::schedule(Tick when, EventFn &&fn)
{
    PIPELLM_ASSERT(when >= now_, "scheduling into the past: when=", when,
                   " now=", now_);
    Event *ev = pool_.create(when, next_seq_++, std::move(fn));
    root_ = meld(root_, ev);
    ++pending_;
}

void
EventQueue::scheduleIn(Tick delay, EventFn &&fn)
{
    schedule(now_ + delay, std::move(fn));
}

EventQueue::Event *
EventQueue::popMin()
{
    Event *ev = root_;
    root_ = mergePairs(ev->child);
    ev->child = nullptr;
    --pending_;
    return ev;
}

void
EventQueue::dispatch(Event *ev)
{
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteClockAdvance(
        audit_id_, now_, ev->when));
    now_ = ev->when;
    ++dispatched_;
    // Move the callback out and recycle the node before invoking it:
    // the callback may schedule new events, and the freed slot is the
    // first one the pool hands back.
    EventFn fn = std::move(ev->fn);
    pool_.destroy(ev);
    fn();
}

bool
EventQueue::step()
{
    if (!root_)
        return false;
    dispatch(popMin());
    return true;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

void
EventQueue::runUntil(Tick deadline)
{
    while (root_ && root_->when <= deadline)
        dispatch(popMin());
    if (now_ < deadline) {
        PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteClockAdvance(
            audit_id_, now_, deadline));
        now_ = deadline;
    }
}

} // namespace sim
} // namespace pipellm
