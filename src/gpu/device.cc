#include "gpu/device.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace pipellm {
namespace gpu {

GpuDevice::GpuDevice(const SystemSpec &spec, const std::string &label)
    : spec_(spec), mem_(label + "gpu-hbm", spec.gpu_mem_bytes),
      pcie_h2d_(label + "pcie-h2d", spec.pcie_h2d_bw, spec.pcie_latency),
      pcie_d2h_(label + "pcie-d2h", spec.pcie_d2h_bw, spec.pcie_latency),
      copy_engine_crypto_(label + "copy-engine-crypto",
                          spec.copy_engine_crypto_bw),
      compute_(label + "sm-compute")
{
    spec_.validate();
}

mem::Region
GpuDevice::alloc(std::uint64_t len, std::string name)
{
    return mem_.alloc(len, std::move(name), mem::MemSpace::Device);
}

void
GpuDevice::free(const mem::Region &region)
{
    mem_.free(region);
}

void
GpuDevice::enableCc(const crypto::SecureChannel *channel)
{
    channel_ = channel;
    rx_iv_ = crypto::IvCounter(crypto::Direction::HostToDevice);
    tx_iv_ = crypto::IvCounter(crypto::Direction::DeviceToHost);
    // Session setup re-synchronizes both counters, modeling a fresh
    // key exchange: the audit registry starts a new exposure epoch.
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteSessionEpoch(
        channel_->auditId()));
}

Tick
GpuDevice::dmaH2dPlain(Addr dst, const std::uint8_t *sample,
                       std::uint64_t sample_len, std::uint64_t full_len,
                       Tick earliest)
{
    Tick done = pcie_h2d_.submitNotBefore(earliest, full_len);
    if (sample_len > 0)
        mem_.write(dst, sample, sample_len);
    return done;
}

Tick
GpuDevice::dmaD2hPlain(Addr src, std::uint8_t *out,
                       std::uint64_t sample_len, std::uint64_t full_len,
                       Tick earliest)
{
    Tick done = pcie_d2h_.submitNotBefore(earliest, full_len);
    if (sample_len > 0)
        mem_.read(src, out, sample_len);
    return done;
}

void
GpuDevice::commitEncrypted(const crypto::CipherBlob &blob, Addr dst)
{
    bool ok = tryCommitEncrypted(blob, dst);
    PIPELLM_ASSERT(ok, "injected tag fault reached a path with no "
                       "recovery; route it through tryCommitEncrypted");
}

bool
GpuDevice::tryCommitEncrypted(const crypto::CipherBlob &blob, Addr dst)
{
    PIPELLM_ASSERT(channel_, "CC transfer on a non-CC device");
    PIPELLM_ASSERT(blob.dir == crypto::Direction::HostToDevice,
                   "blob direction mismatch");

    std::uint64_t expected = rx_iv_.next();
    std::vector<std::uint8_t> sample;
    if (!channel_->open(blob, expected, sample)) {
        ++integrity_failures_;
        if (!blob.injected_fault) {
            PANIC("GPU copy engine: AES-GCM tag failure on H2D transfer "
                  "(sender IV counter ", blob.iv_counter,
                  ", device expected ", expected,
                  "); the CC session would be terminated");
        }
        // Injected PCIe corruption: discard the blob. The RX IV was
        // consumed, matching the host counter's advance at seal time,
        // so a fresh-IV retry stays in lockstep.
        return false;
    }
    // The ciphertext crossed the (simulated) bus: register the
    // exposure after verification so tag-failure paths keep their
    // original diagnostics.
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteExposure(
        channel_->auditId(), int(crypto::Direction::HostToDevice),
        expected));
    if (!sample.empty())
        mem_.write(dst, sample.data(), sample.size());
    return true;
}

crypto::CipherBlob
GpuDevice::sealD2h(Addr src, std::uint64_t full_len)
{
    PIPELLM_ASSERT(channel_, "CC transfer on a non-CC device");
    std::uint64_t n = channel_->sampledLen(full_len);
    std::vector<std::uint8_t> sample(n);
    mem_.read(src, sample.data(), n);
    std::uint64_t counter = tx_iv_.next();
    crypto::CipherBlob blob = channel_->seal(
        crypto::Direction::DeviceToHost, counter, sample.data(),
        full_len);
    // D2H production is exposure: the blob is sealed to be sent.
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteExposure(
        channel_->auditId(), int(crypto::Direction::DeviceToHost),
        counter));
    return blob;
}

void
GpuDevice::commitRetained(const crypto::CipherBlob &blob, Addr dst)
{
    PIPELLM_ASSERT(channel_, "CC transfer on a non-CC device");
    std::vector<std::uint8_t> sample;
    if (!channel_->open(blob, blob.iv_counter, sample)) {
        ++integrity_failures_;
        PANIC("GPU copy engine: tag failure on retained ciphertext "
              "(IV counter ", blob.iv_counter, ")");
    }
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteRetainedExposure(
        channel_->auditId(), int(blob.dir), blob.iv_counter,
        audit::digest(blob.tag.data(), blob.tag.size())));
    ++retained_commits_;
    if (!sample.empty())
        mem_.write(dst, sample.data(), sample.size());
}

crypto::CipherBlob
GpuDevice::sealRetainedD2h(Addr src, std::uint64_t full_len,
                           std::uint64_t iv_counter)
{
    PIPELLM_ASSERT(channel_, "CC transfer on a non-CC device");
    std::uint64_t n = channel_->sampledLen(full_len);
    std::vector<std::uint8_t> sample(n);
    mem_.read(src, sample.data(), n);
    crypto::CipherBlob blob = channel_->seal(
        crypto::Direction::DeviceToHost, iv_counter, sample.data(),
        full_len);
    PIPELLM_AUDIT_HOOK(audit::Auditor::instance().noteRetainedExposure(
        channel_->auditId(), int(crypto::Direction::DeviceToHost),
        iv_counter, audit::digest(blob.tag.data(), blob.tag.size())));
    return blob;
}

Tick
GpuDevice::deliverEncrypted(const crypto::CipherBlob &blob, Addr dst,
                            Tick dma_done)
{
    Tick done = copy_engine_crypto_.submitNotBefore(dma_done,
                                                    blob.full_len);
    commitEncrypted(blob, dst);
    return done;
}

Tick
GpuDevice::dmaH2dEncrypted(const crypto::CipherBlob &blob, Addr dst,
                           Tick earliest)
{
    PIPELLM_ASSERT(channel_, "CC transfer on a non-CC device");
    // DMA the ciphertext across PCIe, then the copy engine decrypts at
    // line rate into HBM.
    Tick dma_done = pcie_h2d_.submitNotBefore(earliest, blob.full_len);
    return deliverEncrypted(blob, dst, dma_done);
}

Tick
GpuDevice::produceEncrypted(Addr src, std::uint64_t full_len,
                            crypto::CipherBlob &blob, Tick earliest)
{
    Tick enc_done = copy_engine_crypto_.submitNotBefore(earliest,
                                                        full_len);
    blob = sealD2h(src, full_len);
    return enc_done;
}

Tick
GpuDevice::dmaD2hEncrypted(Addr src, std::uint64_t full_len,
                           crypto::CipherBlob &blob, Tick earliest)
{
    // The copy engine reads HBM and encrypts at line rate, then the
    // ciphertext crosses PCIe.
    Tick enc_done = produceEncrypted(src, full_len, blob, earliest);
    return pcie_d2h_.submitNotBefore(enc_done, full_len);
}

bool
GpuDevice::wouldAccept(const crypto::CipherBlob &blob) const
{
    PIPELLM_ASSERT(channel_, "CC probe on a non-CC device");
    std::vector<std::uint8_t> scratch;
    return channel_->open(blob, rx_iv_.current(), scratch);
}

Tick
GpuDevice::kernelDuration(const KernelDesc &kernel) const
{
    double compute_s = kernel.flops / spec_.gpu_flops;
    double memory_s = kernel.hbm_bytes / spec_.gpu_hbm_bw;
    double s = std::max(compute_s, memory_s);
    return spec_.kernel_launch_overhead + Tick(s * 1e9);
}

Tick
GpuDevice::launchKernel(const KernelDesc &kernel, Tick earliest)
{
    return compute_.submit(earliest, kernelDuration(kernel));
}

} // namespace gpu
} // namespace pipellm
