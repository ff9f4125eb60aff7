/**
 * @file
 * The chunked ciphertext data path between CVM private memory and the
 * PCIe link (paper §6): fixed-size shared-memory staging buffers,
 * with the private<->shared memcpy stage pipelined against DMA.
 *
 * This is what caps the CC path at ~40 GB/s even when encryption is
 * fully hidden (§7.2) — the memcpy engine, not PCIe, is the slowest
 * stage.
 */

#ifndef PIPELLM_RUNTIME_STAGED_PATH_HH
#define PIPELLM_RUNTIME_STAGED_PATH_HH

#include "fault/fault.hh"
#include "gpu/spec.hh"
#include "mem/staging.hh"
#include "sim/resource.hh"

namespace pipellm {
namespace runtime {

/** One direction's staged ciphertext pipeline. */
class StagedCopyPath
{
  public:
    /**
     * @param link the PCIe direction this path feeds/drains
     * @param toward_device true for H2D (memcpy, DMA, GPU decrypt),
     *        false for D2H (GPU encrypt, DMA, memcpy)
     * @param device_crypto the GPU copy engine's crypto stage;
     *        pipelined per chunk when non-null
     */
    StagedCopyPath(const gpu::SystemSpec &spec,
                   sim::BandwidthResource &link, bool toward_device,
                   sim::BandwidthResource *device_crypto = nullptr);

    /**
     * Move @p len ciphertext bytes through the staged pipeline
     * starting no earlier than @p earliest.
     * @return tick at which the final stage of the last chunk is done
     */
    Tick transfer(Tick earliest, std::uint64_t len);

    const mem::StagingPool &pool() const { return pool_; }
    const sim::BandwidthResource &copyEngine() const { return copy_; }

    /** Wire the machine-wide fault injector (nullptr to detach). */
    void setFaultInjector(fault::FaultInjector *injector);

    /** Stall/retry counters accumulated by this path. */
    const fault::FaultReport &faultReport() const { return faults_; }

  private:
    /**
     * Injected copy-engine stalls for one chunk: each stall costs the
     * watchdog timeout plus a jittered capped-exponential backoff,
     * then the chunk is retried; the injector stops stalling past the
     * plan's attempt cap, so the transfer always completes.
     * @return tick at which the chunk's copy may proceed
     */
    Tick stallDelay(Tick ready);

    sim::BandwidthResource copy_;
    sim::BandwidthResource &link_;
    sim::BandwidthResource *device_crypto_;
    mem::StagingPool pool_;
    bool toward_device_;
    fault::FaultInjector *injector_ = nullptr;
    fault::FaultReport faults_;
};

} // namespace runtime
} // namespace pipellm

#endif // PIPELLM_RUNTIME_STAGED_PATH_HH
