/**
 * @file
 * The simulated machine: one CVM (host memory) attached to a cluster
 * of N GPUs over per-device PCIe links, each with its own
 * confidential-computing session.
 *
 * Every device is wrapped in a DeviceContext bundling the GPU, its
 * PCIe links (owned by the GpuDevice), an independent SecureChannel
 * (per-device, per-direction IV counters, as on real multi-GPU CC
 * systems where each GPU negotiates its own SPDM session key), and
 * the staged ciphertext copy paths feeding its links. Runtimes bind
 * to one device id; the legacy single-device accessors alias id 0.
 *
 * Host-side capacity is modeled by HostResources: optionally all
 * per-device PCIe links drain through one shared host bridge, and
 * the CPU crypto lanes every runtime draws from (CryptoEngine) can
 * be one machine-wide pool instead of dedicated per-client groups.
 * The defaults keep both private, preserving the historical
 * independent-replica timing bit for bit.
 */

#ifndef PIPELLM_RUNTIME_PLATFORM_HH
#define PIPELLM_RUNTIME_PLATFORM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/channel.hh"
#include "crypto/engine.hh"
#include "fault/fault.hh"
#include "gpu/device.hh"
#include "gpu/spec.hh"
#include "mem/sparse_memory.hh"
#include "runtime/staged_path.hh"
#include "sim/resource.hh"

namespace pipellm {
namespace runtime {

/** Index of a device within the platform's cluster. */
using DeviceId = std::uint32_t;

/**
 * Host-side resources shared by every device on the machine. The
 * defaults select the legacy private-resource model: no bridge cap
 * (each PCIe link is independent) and a dedicated crypto pool per
 * runtime. Setting either knob turns the host into a contended stage,
 * which is where multi-GPU CC serving actually serializes.
 */
struct HostResources
{
    /**
     * Aggregate host-bridge bandwidth all per-device PCIe links drain
     * through (bytes/s). 0 = uncapped (no shared bridge).
     */
    double bridge_bw = 0;
    /** Per-request latency of the bridge stage. */
    Tick bridge_latency = 0;
    /**
     * Size of the machine-wide CPU crypto lane pool shared by every
     * runtime. 0 = dedicated mode (each runtime owns private lanes,
     * the pre-refactor behavior).
     */
    unsigned shared_crypto_lanes = 0;

    /**
     * True when any knob makes the host a contended stage coupling
     * the replicas' timelines. A bridge or lane grant can bind two
     * coupled replicas at the same tick, so the cluster router steps
     * them on its sequential min-clock loop; decoupled replicas
     * interact only at routing decisions, and the router runs each
     * one up to the next arrival in turn.
     */
    bool
    coupled() const
    {
        return bridge_bw > 0 || shared_crypto_lanes > 0;
    }
};

/**
 * One GPU and everything private to it: its CC session, its PCIe
 * links (inside the GpuDevice), and the staged copy paths that move
 * ciphertext between CVM memory and those links.
 */
class DeviceContext
{
  public:
    DeviceContext(const gpu::SystemSpec &spec,
                  const crypto::ChannelConfig &channel_cfg, DeviceId id);

    DeviceId id() const { return id_; }
    gpu::GpuDevice &gpu() { return gpu_; }
    const gpu::GpuDevice &gpu() const { return gpu_; }
    crypto::SecureChannel &channel() { return channel_; }
    const crypto::SecureChannel &channel() const { return channel_; }
    StagedCopyPath &h2dPath() { return h2d_path_; }
    StagedCopyPath &d2hPath() { return d2h_path_; }

    /** Wire the machine-wide injector into every injection site. */
    void attachFaultInjector(fault::FaultInjector *injector);

  private:
    DeviceId id_;
    crypto::SecureChannel channel_;
    gpu::GpuDevice gpu_;
    StagedCopyPath h2d_path_;
    StagedCopyPath d2h_path_;
};

/**
 * Owns the host arena, the host-side resources and the device
 * cluster. There is no platform clock: every resource is a
 * reservation timeline, and each runtime carries its own time.
 */
class Platform
{
  public:
    /**
     * @param num_devices GPUs attached to the CVM; each gets its own
     *        PCIe links and CC session (device 0 reproduces the
     *        original single-device machine exactly)
     * @param host shared host-side resources; the defaults keep every
     *        device's resources private
     */
    explicit Platform(const gpu::SystemSpec &spec = gpu::SystemSpec::h100(),
                      const crypto::ChannelConfig &channel_cfg =
                          crypto::ChannelConfig{},
                      unsigned num_devices = 1,
                      const HostResources &host = HostResources{});

    const gpu::SystemSpec &spec() const { return spec_; }
    mem::SparseMemory &hostMem() { return host_mem_; }

    unsigned numDevices() const { return unsigned(devices_.size()); }

    /** Device-indexed access to the cluster. */
    DeviceContext &device(DeviceId id);
    const DeviceContext &device(DeviceId id) const;

    /** Shorthand for device(id).gpu(). */
    gpu::GpuDevice &gpu(DeviceId id) { return device(id).gpu(); }

    /** The machine-wide CPU crypto lane supply. */
    crypto::CryptoEngine &cryptoEngine() { return crypto_engine_; }

    /**
     * The machine-wide fault injector, wired into every channel,
     * staged path, and crypto-lane handle at construction. Disarmed
     * by default (zero cost); arm it with armFaults().
     */
    fault::FaultInjector &faultInjector() { return fault_injector_; }
    const fault::FaultInjector &faultInjector() const {
        return fault_injector_;
    }

    /** Arm deterministic fault injection machine-wide. */
    void armFaults(const fault::FaultPlan &plan) {
        fault_injector_.arm(plan);
    }

    /** The host-resource knobs this platform was built with. */
    const HostResources &hostResources() const { return host_res_; }

    /**
     * True when the cluster router may run each replica up to the
     * next arrival on its own (its decoupled loop): host resources
     * are private and the fault injector is disarmed (its RNG draw
     * order is a machine-wide timeline, so armed runs keep the
     * min-clock loop). The two loops agree except after a migration
     * advances a busy decode replica's clock (ClusterRouter::run).
     */
    bool
    shardable() const
    {
        return !host_res_.coupled() && !fault_injector_.armed();
    }

    /** Shared host bridge; null when bridge_bw is unset. */
    const sim::BandwidthResource *hostBridge() const {
        return host_bridge_.get();
    }

    /** Allocate CVM-private host memory (shared by all devices). */
    mem::Region allocHost(std::uint64_t len, std::string name);
    void freeHost(const mem::Region &region);

  private:
    gpu::SystemSpec spec_;
    HostResources host_res_;
    fault::FaultInjector fault_injector_;
    crypto::CryptoEngine crypto_engine_;
    std::unique_ptr<sim::BandwidthResource> host_bridge_;
    std::vector<std::unique_ptr<DeviceContext>> devices_;
    mem::SparseMemory host_mem_;
};

} // namespace runtime
} // namespace pipellm

#endif // PIPELLM_RUNTIME_PLATFORM_HH
