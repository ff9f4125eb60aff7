/**
 * @file
 * The simulated GPU: HBM arena, PCIe DMA engines, a copy engine that
 * decrypts/encrypts in CC mode with its own IV counters, and a
 * roofline compute engine.
 *
 * The device enforces the H100 CC contract: a received blob is only
 * accepted if its AES-GCM tag verifies under the *device's* next IV
 * for that direction. Any speculation bug on the CPU side therefore
 * manifests as a hard integrity failure here, exactly as it would on
 * real hardware.
 */

#ifndef PIPELLM_GPU_DEVICE_HH
#define PIPELLM_GPU_DEVICE_HH

#include <cstdint>
#include <string>

#include "common/units.hh"
#include "crypto/channel.hh"
#include "crypto/iv.hh"
#include "gpu/spec.hh"
#include "mem/sparse_memory.hh"
#include "sim/resource.hh"

namespace pipellm {
namespace gpu {

/** Work submitted to the compute engine. */
struct KernelDesc
{
    std::string name;
    /** Floating point operations performed. */
    double flops = 0;
    /** HBM bytes moved (for the memory-bound side of the roofline). */
    double hbm_bytes = 0;
};

/** Simulated H100-class device. */
class GpuDevice
{
  public:
    /**
     * @param label prefix for resource names, disambiguating devices
     *        in a multi-GPU platform ("" keeps the legacy names)
     */
    explicit GpuDevice(const SystemSpec &spec,
                       const std::string &label = "");

    // --- memory ---
    mem::SparseMemory &memory() { return mem_; }
    const SystemSpec &spec() const { return spec_; }

    /** Allocate device memory; fatal() when HBM is exhausted. */
    mem::Region alloc(std::uint64_t len, std::string name);
    void free(const mem::Region &region);

    // --- confidential computing ---
    /**
     * Enter CC mode with the given session; resets both direction
     * counters to zero (session setup synchronizes them with the CPU).
     */
    void enableCc(const crypto::SecureChannel *channel);
    bool ccEnabled() const { return channel_ != nullptr; }

    /** Device-side next-IV counters (for tests and diagnostics). */
    std::uint64_t rxCounter() const { return rx_iv_.current(); }
    std::uint64_t txCounter() const { return tx_iv_.current(); }

    // --- data paths ---
    /**
     * Plaintext H2D DMA (CC disabled): occupies the H2D link, lands
     * @p sample at @p dst.
     * @return completion tick
     */
    Tick dmaH2dPlain(Addr dst, const std::uint8_t *sample,
                     std::uint64_t sample_len, std::uint64_t full_len,
                     Tick earliest);

    /** Plaintext D2H DMA (CC disabled); @p out receives the sample. */
    Tick dmaD2hPlain(Addr src, std::uint8_t *out,
                     std::uint64_t sample_len, std::uint64_t full_len,
                     Tick earliest);

    /**
     * CC H2D: DMA the blob from shared memory, then the copy engine
     * decrypts it against the device's next RX IV and writes the
     * sample to @p dst. Panics on tag failure (integrity violation:
     * on real hardware the session is torn down).
     * @return completion tick
     */
    Tick dmaH2dEncrypted(const crypto::CipherBlob &blob, Addr dst,
                         Tick earliest);

    /**
     * CC D2H: the copy engine encrypts @p full_len bytes starting at
     * @p src under the device's next TX IV and DMAs the blob out.
     * @param[out] blob the ciphertext handed to the host
     * @return completion tick
     */
    Tick dmaD2hEncrypted(Addr src, std::uint64_t full_len,
                         crypto::CipherBlob &blob, Tick earliest);

    /**
     * Copy-engine half of an encrypted H2D transfer: decrypt @p blob
     * (which finished DMAing at @p dma_done) against the device's
     * next RX IV and write the sample to @p dst. Used by runtimes
     * that model the PCIe stage themselves (chunked staging).
     * @return completion tick
     */
    Tick deliverEncrypted(const crypto::CipherBlob &blob, Addr dst,
                          Tick dma_done);

    /**
     * Copy-engine half of an encrypted D2H transfer: encrypt
     * @p full_len bytes at @p src under the device's next TX IV.
     * The caller models the PCIe stage.
     * @return tick at which the ciphertext is ready for DMA
     */
    Tick produceEncrypted(Addr src, std::uint64_t full_len,
                          crypto::CipherBlob &blob, Tick earliest);

    /**
     * Functional-only half of an encrypted H2D delivery: verify the
     * tag against the device's next RX IV and write the sample.
     * Timing is the caller's job (the copy-engine decrypt is a
     * pipelined stage of the staged data path).
     */
    void commitEncrypted(const crypto::CipherBlob &blob, Addr dst);

    /**
     * Like commitEncrypted(), but an *injected* tag failure (a
     * simulated PCIe bit error, CipherBlob::injected_fault) is
     * recoverable: the copy engine discards the blob and reports
     * false, the RX IV having been consumed on both sides, so the
     * host retries by re-sealing at its next counter. A genuine tag
     * failure still panics with the original diagnostics — fault
     * injection must never mask a real speculation bug.
     * @return true when the blob verified and landed
     */
    [[nodiscard]] bool tryCommitEncrypted(const crypto::CipherBlob &blob,
                                          Addr dst);

    /** Functional-only half of an encrypted D2H: read + seal. */
    crypto::CipherBlob sealD2h(Addr src, std::uint64_t full_len);

    /**
     * §8.2 hypothetical hardware: accept a *retained* ciphertext,
     * verified under the (direction, IV) it was originally sealed
     * with, without touching the lockstep counters. Today's H100
     * rejects this by design (replay protection); the paper discusses
     * it as a future ciphertext-reuse interface for read-only swap
     * data. Counted separately in stats.
     */
    void commitRetained(const crypto::CipherBlob &blob, Addr dst);

    /**
     * §8.2: seal @p full_len bytes at @p src under an explicit
     * caller-chosen IV counter (content generation), outside the
     * lockstep TX sequence.
     */
    crypto::CipherBlob sealRetainedD2h(Addr src, std::uint64_t full_len,
                                       std::uint64_t iv_counter);

    /** Retained (replayed) blobs accepted so far. */
    std::uint64_t retainedCommits() const { return retained_commits_; }

    /** H2D link for runtimes that schedule DMA chunks directly. */
    sim::BandwidthResource &h2dLinkMut() { return pcie_h2d_; }
    sim::BandwidthResource &d2hLinkMut() { return pcie_d2h_; }

    /**
     * Chain both PCIe links through a shared host-bridge stage so this
     * device's traffic contends with its siblings' for the aggregate
     * host bandwidth. Pass nullptr to detach. The bridge is not owned
     * (the Platform holds it) and must outlive the device.
     */
    void attachHostBridge(sim::BandwidthResource *bridge)
    {
        pcie_h2d_.setDownstream(bridge);
        pcie_d2h_.setDownstream(bridge);
    }
    /** Copy-engine crypto stage for staged-path pipelining. */
    sim::BandwidthResource &copyEngineCryptoMut() {
        return copy_engine_crypto_;
    }

    /**
     * Verify-only probe used by tests: would @p blob decrypt under
     * the device's current RX counter? Does not advance state.
     */
    bool wouldAccept(const crypto::CipherBlob &blob) const;

    // --- compute ---
    /**
     * Execute a kernel on the serialized compute engine.
     * Duration = launch overhead + max(flops/FLOPS, bytes/HBM-bw).
     * @return completion tick
     */
    Tick launchKernel(const KernelDesc &kernel, Tick earliest);

    /** Modeled execution time of @p kernel excluding queueing. */
    Tick kernelDuration(const KernelDesc &kernel) const;

    /** Compute engine idle time accumulated between kernels. */
    const sim::SerialTimeline &computeEngine() const { return compute_; }
    const sim::BandwidthResource &h2dLink() const { return pcie_h2d_; }
    const sim::BandwidthResource &d2hLink() const { return pcie_d2h_; }

    /**
     * Tag verification failures observed. Zero on fault-free runs;
     * with injected corruption armed, counts the discarded blobs.
     */
    std::uint64_t integrityFailures() const { return integrity_failures_; }

  private:
    SystemSpec spec_;
    mem::SparseMemory mem_;
    sim::BandwidthResource pcie_h2d_;
    sim::BandwidthResource pcie_d2h_;
    sim::BandwidthResource copy_engine_crypto_;
    sim::SerialTimeline compute_;

    const crypto::SecureChannel *channel_ = nullptr;
    crypto::IvCounter rx_iv_{crypto::Direction::HostToDevice};
    crypto::IvCounter tx_iv_{crypto::Direction::DeviceToHost};
    std::uint64_t integrity_failures_ = 0;
    std::uint64_t retained_commits_ = 0;
};

} // namespace gpu
} // namespace pipellm

#endif // PIPELLM_GPU_DEVICE_HH
