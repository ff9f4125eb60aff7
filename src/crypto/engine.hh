/**
 * @file
 * The host CPU's AES-GCM crypto engine: the machine-wide supply of
 * encryption/decryption lanes that every runtime draws from.
 *
 * The paper's bottleneck analysis (§7, Fig. 9) is about *shared*
 * host-side crypto: all CC sessions on a multi-GPU CVM encrypt on the
 * same CPU cores. The engine has two modes:
 *
 *  - Dedicated (default): every acquire() hands out a privately owned
 *    LaneGroup, reproducing the original per-runtime lane model
 *    bit-for-bit. Runtimes on different devices never contend.
 *  - Shared: one pool of k lanes serves every client. A client still
 *    declares a width (how many lanes its threads can drive at once),
 *    but its submissions land on the common pool, so speculation on
 *    one device queues against demand encryption on another.
 */

#ifndef PIPELLM_CRYPTO_ENGINE_HH
#define PIPELLM_CRYPTO_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"
#include "sim/resource.hh"

namespace pipellm {

namespace fault {
class FaultInjector;
} // namespace fault

namespace crypto {

/**
 * A client's handle onto CPU crypto lanes: either a privately owned
 * LaneGroup (dedicated mode) or a width-limited view of the shared
 * pool. Movable; obtained from CryptoEngine::acquire().
 */
class CryptoLanes
{
  public:
    /** Dedicated lanes, privately owned. */
    CryptoLanes(std::string name, unsigned width,
                double bytes_per_sec_per_lane);

    /** A @p width-wide view onto the shared pool (not owned). */
    CryptoLanes(sim::LaneGroup &pool, unsigned width);

    CryptoLanes(CryptoLanes &&) = default;
    CryptoLanes &operator=(CryptoLanes &&) = default;

    /**
     * Dispatch @p bytes to a lane, starting no earlier than
     * @p earliest; completion tick.
     */
    Tick submitNotBefore(Tick earliest, std::uint64_t bytes);

    /**
     * Earliest tick at which the next request could start:
     * accounts for both pool availability and this client's own
     * thread width (a shared view cannot out-parallelize its width
     * even when the pool has idle lanes).
     */
    Tick earliestFree() const;

    /** Lanes this client's threads can drive concurrently. */
    unsigned width() const { return unsigned(slot_free_.size()); }

    /** True when this handle is a view of a shared pool. */
    bool sharedView() const { return owned_ == nullptr; }

    /** Bytes submitted through this handle. */
    std::uint64_t bytesSubmitted() const { return bytes_submitted_; }

    /** The lane group requests land on (pool or private). */
    const sim::LaneGroup &group() const { return *group_; }

    /** Wire the machine-wide fault injector (nullptr to detach). */
    void setFaultInjector(fault::FaultInjector *injector);

    /** Jobs redone after an injected lane death. */
    std::uint64_t laneFaults() const { return lane_faults_; }

    /** Simulated time the redone jobs added. */
    Tick laneFaultTicks() const { return lane_fault_ticks_; }

  private:
    /** One submission, without the fault-retry wrapper. */
    Tick dispatch(Tick earliest, std::uint64_t bytes);

    std::unique_ptr<sim::LaneGroup> owned_; // dedicated mode only
    sim::LaneGroup *group_;                 // owned_ or the shared pool
    fault::FaultInjector *injector_ = nullptr;
    std::uint64_t lane_faults_ = 0;
    Tick lane_fault_ticks_ = 0;
    /**
     * Per-thread occupancy in shared mode: slot i holds the tick at
     * which this client's i-th thread is free again. Dedicated mode
     * keeps them for width(), but the LaneGroup's own lanes already
     * bound parallelism.
     */
    std::vector<Tick> slot_free_;
    std::uint64_t bytes_submitted_ = 0;
};

/** Machine-wide crypto lane supply, owned by the Platform. */
class CryptoEngine
{
  public:
    /**
     * @param bytes_per_sec_per_lane single-thread AES-GCM rate
     * @param shared_lanes pool size; 0 selects dedicated mode
     */
    explicit CryptoEngine(double bytes_per_sec_per_lane,
                          unsigned shared_lanes = 0);

    /** True when every acquire() shares one pool. */
    bool shared() const { return pool_ != nullptr; }

    /** Lanes in the shared pool (0 in dedicated mode). */
    unsigned poolLanes() const { return pool_ ? pool_->lanes() : 0; }

    /**
     * Hand out lanes to a client. Dedicated mode: a private
     * @p width-lane group named @p name. Shared mode: a @p width-wide
     * view of the pool (@p name is ignored; the pool was named at
     * construction).
     */
    CryptoLanes acquire(const std::string &name, unsigned width);

    /** The shared pool, for stats; null in dedicated mode. */
    const sim::LaneGroup *pool() const { return pool_.get(); }

    double bwPerLane() const { return bw_per_lane_; }

    /**
     * Wire the machine-wide fault injector; handles acquired from now
     * on can suffer injected lane deaths.
     */
    void setFaultInjector(fault::FaultInjector *injector);

  private:
    double bw_per_lane_;
    std::unique_ptr<sim::LaneGroup> pool_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace crypto
} // namespace pipellm

#endif // PIPELLM_CRYPTO_ENGINE_HH
