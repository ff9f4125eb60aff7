/**
 * @file
 * Timed hardware resources: serialized bandwidth servers and lane
 * groups.
 *
 * Every resource is a reservation timeline. It remembers the tick at
 * which it next falls idle; a submission with a start floor is served
 * from max(floor, free-at) and returns its completion tick. There is
 * no global clock: callers carry their own time and pass it in as the
 * floor.
 *
 * A BandwidthResource models a device that serves requests one at a
 * time at a fixed byte rate plus a fixed per-request latency: a PCIe
 * link, a copy engine, one CPU encryption thread. A LaneGroup models k
 * identical lanes with earliest-free dispatch, e.g. a pool of
 * encryption threads.
 *
 * Resources chain: a BandwidthResource may drain into a shared
 * downstream stage (setDownstream), modeling hierarchical bandwidth —
 * e.g. per-device PCIe links that all funnel through one host bridge.
 * Every byte submitted to the upstream stage is also charged to the
 * downstream stage cut-through style (the downstream begins draining
 * when the upstream starts), so the downstream only binds when the
 * *aggregate* demand across upstreams exceeds its rate.
 */

#ifndef PIPELLM_SIM_RESOURCE_HH
#define PIPELLM_SIM_RESOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace pipellm {
namespace sim {

/** Serialized FIFO server with a byte rate and per-request latency. */
class BandwidthResource
{
  public:
    /**
     * @param name for diagnostics
     * @param bytes_per_sec service rate
     * @param per_op_latency fixed overhead added to every request
     */
    BandwidthResource(std::string name, double bytes_per_sec,
                      Tick per_op_latency = 0);

    /**
     * Reserve service for a request of @p bytes that cannot start
     * before @p earliest; returns its completion tick. Requests are
     * served strictly in submission order.
     */
    Tick submitNotBefore(Tick earliest, std::uint64_t bytes);

    /** Tick at which the resource next becomes idle. */
    Tick freeAt() const { return free_at_; }

    double rate() const { return rate_; }
    void setRate(double bytes_per_sec) { rate_ = bytes_per_sec; }

    Tick perOpLatency() const { return latency_; }
    void setPerOpLatency(Tick t) { latency_ = t; }

    /**
     * Chain this resource into a shared downstream stage: every
     * request served here is also charged to @p shared, and the
     * request completes only when both stages are done. Pass nullptr
     * to unchain. The downstream resource is not owned and must
     * outlive this one; chains may nest (the downstream can itself
     * drain into another stage).
     */
    void setDownstream(BandwidthResource *shared) { downstream_ = shared; }
    BandwidthResource *downstream() const { return downstream_; }

    const std::string &name() const { return name_; }

    /** Process-unique audit identity (0 in non-audit builds). */
    std::uint64_t auditId() const { return audit_id_; }

    /** Total bytes served. */
    std::uint64_t bytesServed() const { return bytes_served_; }

    /** Total requests served. */
    std::uint64_t requests() const { return requests_; }

  private:
    std::string name_;
    double rate_;
    Tick latency_;
    Tick free_at_ = 0;
    std::uint64_t bytes_served_ = 0;
    std::uint64_t requests_ = 0;
    BandwidthResource *downstream_ = nullptr;
    std::uint64_t audit_id_ = 0;
};

/**
 * k identical bandwidth lanes with earliest-free dispatch. Models a
 * pool of CPU encryption threads: aggregate throughput scales with the
 * lane count while each request is still served by a single lane.
 */
class LaneGroup
{
  public:
    LaneGroup(std::string name, unsigned lanes,
              double bytes_per_sec_per_lane, Tick per_op_latency = 0);

    /**
     * Dispatch @p bytes to the earliest-free lane, starting no
     * earlier than @p earliest; completion tick.
     */
    Tick submitNotBefore(Tick earliest, std::uint64_t bytes);

    /**
     * Dispatch with a start-time floor, preferring the *latest-free*
     * lane that can still start at @p earliest (falling back to the
     * earliest-free lane when all are busy past the floor). Clients
     * that share one pool should use this: earliest-free dispatch
     * makes a serial chain of requests rotate across idle lanes and
     * mark every lane busy until the chain's tail (lanes never
     * backfill), which a best-fit pick avoids by keeping the chain on
     * a single lane.
     */
    Tick submitNotBeforeBestFit(Tick earliest, std::uint64_t bytes);

    unsigned lanes() const { return unsigned(lanes_.size()); }

    /** Earliest tick at which any lane is free. */
    Tick earliestFree() const;

    /** Sum of bytes served across lanes. */
    std::uint64_t bytesServed() const;

    /** Per-lane access for stats. */
    const BandwidthResource &lane(unsigned i) const { return lanes_[i]; }

  private:
    BandwidthResource &pickLane();

    std::vector<BandwidthResource> lanes_;
};

/**
 * Serialized FIFO server for requests measured in *time* rather than
 * bytes — e.g. a GPU compute engine executing kernels of modeled
 * duration.
 */
class SerialTimeline
{
  public:
    explicit SerialTimeline(std::string name);

    /** Occupy the resource for @p duration, not before @p earliest. */
    Tick submit(Tick earliest, Tick duration);

    Tick freeAt() const { return free_at_; }
    Tick busyTicks() const { return busy_ticks_; }
    std::uint64_t requests() const { return requests_; }

    const std::string &name() const { return name_; }

    /** Process-unique audit identity (0 in non-audit builds). */
    std::uint64_t auditId() const { return audit_id_; }

  private:
    std::string name_;
    Tick free_at_ = 0;
    Tick busy_ticks_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t audit_id_ = 0;
};

} // namespace sim
} // namespace pipellm

#endif // PIPELLM_SIM_RESOURCE_HH
