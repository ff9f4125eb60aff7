#include "runtime/platform.hh"

#include <utility>

#include "common/logging.hh"

namespace pipellm {
namespace runtime {

namespace {

/**
 * Per-device session configuration: each GPU negotiates its own key
 * (real multi-GPU CC derives one SPDM session per device). Device 0
 * keeps the caller's seed so a 1-device cluster is bit-identical to
 * the original single-device machine.
 */
crypto::ChannelConfig
deviceChannelConfig(const crypto::ChannelConfig &base, DeviceId id)
{
    crypto::ChannelConfig cfg = base;
    cfg.key_seed = base.key_seed + id;
    return cfg;
}

/** Resource-name prefix; empty for device 0 (legacy names). */
std::string
deviceLabel(DeviceId id)
{
    return id == 0 ? std::string{} : "dev" + std::to_string(id) + "/";
}

} // namespace

DeviceContext::DeviceContext(const gpu::SystemSpec &spec,
                             const crypto::ChannelConfig &channel_cfg,
                             DeviceId id)
    : id_(id), channel_(deviceChannelConfig(channel_cfg, id)),
      gpu_(spec, deviceLabel(id)),
      h2d_path_(spec, gpu_.h2dLinkMut(), /*toward_device=*/true,
                &gpu_.copyEngineCryptoMut()),
      d2h_path_(spec, gpu_.d2hLinkMut(), /*toward_device=*/false,
                &gpu_.copyEngineCryptoMut())
{
}

void
DeviceContext::attachFaultInjector(fault::FaultInjector *injector)
{
    channel_.setFaultInjector(injector);
    h2d_path_.setFaultInjector(injector);
    d2h_path_.setFaultInjector(injector);
}

Platform::Platform(const gpu::SystemSpec &spec,
                   const crypto::ChannelConfig &channel_cfg,
                   unsigned num_devices, const HostResources &host)
    : spec_(spec), host_res_(host),
      crypto_engine_(spec.cpu_crypto_bw_per_lane,
                     host.shared_crypto_lanes),
      host_mem_("cvm-dram", spec.host_mem_bytes)
{
    PIPELLM_ASSERT(num_devices > 0, "a platform needs >= 1 device");
    if (host_res_.bridge_bw > 0) {
        host_bridge_ = std::make_unique<sim::BandwidthResource>(
            "host-bridge", host_res_.bridge_bw, host_res_.bridge_latency);
    }
    crypto_engine_.setFaultInjector(&fault_injector_);
    devices_.reserve(num_devices);
    for (unsigned i = 0; i < num_devices; ++i) {
        devices_.push_back(std::make_unique<DeviceContext>(
            spec_, channel_cfg, DeviceId(i)));
        devices_.back()->gpu().attachHostBridge(host_bridge_.get());
        devices_.back()->attachFaultInjector(&fault_injector_);
    }
}

DeviceContext &
Platform::device(DeviceId id)
{
    PIPELLM_ASSERT(id < devices_.size(), "device id ", id,
                   " out of range (cluster has ", devices_.size(),
                   " devices)");
    return *devices_[id];
}

const DeviceContext &
Platform::device(DeviceId id) const
{
    PIPELLM_ASSERT(id < devices_.size(), "device id ", id,
                   " out of range (cluster has ", devices_.size(),
                   " devices)");
    return *devices_[id];
}

mem::Region
Platform::allocHost(std::uint64_t len, std::string name)
{
    return host_mem_.alloc(len, std::move(name),
                           mem::MemSpace::CvmPrivate);
}

void
Platform::freeHost(const mem::Region &region)
{
    host_mem_.free(region);
}

} // namespace runtime
} // namespace pipellm
