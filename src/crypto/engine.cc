#include "crypto/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace pipellm {
namespace crypto {

CryptoLanes::CryptoLanes(std::string name, unsigned width,
                         double bytes_per_sec_per_lane)
    : owned_(std::make_unique<sim::LaneGroup>(std::move(name), width,
                                              bytes_per_sec_per_lane)),
      group_(owned_.get()), slot_free_(width, 0)
{
}

CryptoLanes::CryptoLanes(sim::LaneGroup &pool, unsigned width)
    : owned_(nullptr), group_(&pool), slot_free_(width, 0)
{
    PIPELLM_ASSERT(width > 0, "crypto lane view needs width >= 1");
}

Tick
CryptoLanes::submitNotBefore(Tick earliest, std::uint64_t bytes)
{
    bytes_submitted_ += bytes;
    Tick done = dispatch(earliest, bytes);
    // An injected lane death loses the finished attempt; the job is
    // redone on a re-initialized lane, back to back.
    if (injector_ != nullptr && injector_->failLane(done)) {
        ++lane_faults_;
        Tick redo = dispatch(done, bytes);
        lane_fault_ticks_ += redo - done;
        done = redo;
    }
    return done;
}

Tick
CryptoLanes::dispatch(Tick earliest, std::uint64_t bytes)
{
    if (owned_)
        return group_->submitNotBefore(earliest, bytes);

    // Shared view: the client's own thread width caps its parallelism
    // even when the pool has idle lanes. Occupy this client's
    // earliest-free slot for the full request, then queue on the pool.
    // Best-fit lane choice keeps one client's serial backlog (e.g. a
    // deep speculative pre-encryption chain) pinned to as few pool
    // lanes as possible instead of marking them all busy.
    auto slot = std::min_element(slot_free_.begin(), slot_free_.end());
    Tick floor = std::max(earliest, *slot);
    Tick done = group_->submitNotBeforeBestFit(floor, bytes);
    *slot = done;
    return done;
}

void
CryptoLanes::setFaultInjector(fault::FaultInjector *injector)
{
    injector_ = injector;
}

Tick
CryptoLanes::earliestFree() const
{
    if (owned_)
        return group_->earliestFree();
    Tick slot = *std::min_element(slot_free_.begin(), slot_free_.end());
    return std::max(slot, group_->earliestFree());
}

CryptoEngine::CryptoEngine(double bytes_per_sec_per_lane,
                           unsigned shared_lanes)
    : bw_per_lane_(bytes_per_sec_per_lane)
{
    if (shared_lanes > 0)
        pool_ = std::make_unique<sim::LaneGroup>(
            "host-crypto", shared_lanes, bw_per_lane_);
}

CryptoLanes
CryptoEngine::acquire(const std::string &name, unsigned width)
{
    PIPELLM_ASSERT(width > 0, "crypto client needs width >= 1: ", name);
    CryptoLanes lanes = pool_ ? CryptoLanes(*pool_, width)
                              : CryptoLanes(name, width, bw_per_lane_);
    lanes.setFaultInjector(injector_);
    return lanes;
}

void
CryptoEngine::setFaultInjector(fault::FaultInjector *injector)
{
    injector_ = injector;
}

} // namespace crypto
} // namespace pipellm
