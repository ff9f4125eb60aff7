#include "sim/resource.hh"

#include <algorithm>
#include <utility>

#include "audit/audit.hh"
#include "common/logging.hh"

namespace pipellm {
namespace sim {

BandwidthResource::BandwidthResource(std::string name,
                                     double bytes_per_sec,
                                     Tick per_op_latency)
    : name_(std::move(name)), rate_(bytes_per_sec),
      latency_(per_op_latency)
{
    PIPELLM_ASSERT(rate_ > 0, "resource rate must be positive: ", name_);
    PIPELLM_AUDIT_HOOK(audit_id_ = audit::Auditor::instance().newId());
}

Tick
BandwidthResource::submitNotBefore(Tick earliest, std::uint64_t bytes)
{
    Tick start = std::max(earliest, free_at_);
    Tick service = latency_ + transferTicks(bytes, rate_);
    Tick done = start + service;
    free_at_ = done;
    bytes_served_ += bytes;
    ++requests_;
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteService(
        audit_id_, name_, start, done, bytes));
    if (downstream_) {
        // Cut-through into the shared stage: the downstream begins
        // draining the moment this stage starts, so an uncontended
        // request finishes at whichever stage is slower, while
        // concurrent upstreams queue against each other here.
        Tick chain_done =
            std::max(done, downstream_->submitNotBefore(start, bytes));
        PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteChainForward(
            downstream_->auditId(), downstream_->name(), bytes, done,
            chain_done));
        done = chain_done;
    }
    return done;
}

LaneGroup::LaneGroup(std::string name, unsigned lanes,
                     double bytes_per_sec_per_lane, Tick per_op_latency)
{
    PIPELLM_ASSERT(lanes > 0, "lane group needs at least one lane");
    lanes_.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i) {
        lanes_.emplace_back(name + "[" + std::to_string(i) + "]",
                            bytes_per_sec_per_lane, per_op_latency);
    }
}

BandwidthResource &
LaneGroup::pickLane()
{
    auto it = std::min_element(
        lanes_.begin(), lanes_.end(),
        [](const BandwidthResource &a, const BandwidthResource &b) {
            return a.freeAt() < b.freeAt();
        });
    return *it;
}

Tick
LaneGroup::submitNotBefore(Tick earliest, std::uint64_t bytes)
{
    return pickLane().submitNotBefore(earliest, bytes);
}

Tick
LaneGroup::submitNotBeforeBestFit(Tick earliest, std::uint64_t bytes)
{
    BandwidthResource *best = nullptr;
    for (auto &lane : lanes_) {
        if (lane.freeAt() > earliest)
            continue;
        // Latest-free among the lanes that can start on time: the
        // tightest fit wastes the least idle capacity.
        if (!best || lane.freeAt() > best->freeAt())
            best = &lane;
    }
    if (!best) {
        // Every lane is busy past the floor: queue on the one that
        // frees up first.
        best = &pickLane();
    }
    return best->submitNotBefore(earliest, bytes);
}

Tick
LaneGroup::earliestFree() const
{
    Tick best = maxTick;
    for (const auto &lane : lanes_)
        best = std::min(best, lane.freeAt());
    return best;
}

std::uint64_t
LaneGroup::bytesServed() const
{
    std::uint64_t total = 0;
    for (const auto &lane : lanes_)
        total += lane.bytesServed();
    return total;
}

SerialTimeline::SerialTimeline(std::string name) : name_(std::move(name))
{
    PIPELLM_AUDIT_HOOK(audit_id_ = audit::Auditor::instance().newId());
}

Tick
SerialTimeline::submit(Tick earliest, Tick duration)
{
    Tick start = std::max(earliest, free_at_);
    free_at_ = start + duration;
    busy_ticks_ += duration;
    ++requests_;
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteService(
        audit_id_, name_, start, free_at_, 0));
    return free_at_;
}

} // namespace sim
} // namespace pipellm
