#include "scenario/builder.hh"

#include "common/logging.hh"

namespace pipellm {
namespace scenario {

ScenarioBuilder::ScenarioBuilder(const ScenarioSpec &spec)
    : spec_(spec)
{
    auto problems = spec.validate();
    PIPELLM_ASSERT(problems.empty(), "invalid scenario '", spec.name,
                   "': ", problems.empty() ? "" : problems.front());
}

gpu::SystemSpec
ScenarioBuilder::systemSpec() const
{
    PIPELLM_ASSERT(spec_.device.spec == "h100",
                   "unknown device spec preset '", spec_.device.spec,
                   "'");
    return gpu::SystemSpec::h100();
}

crypto::ChannelConfig
ScenarioBuilder::channelConfig() const
{
    crypto::ChannelConfig cfg;
    cfg.sample_limit = spec_.device.channel_sample_limit;
    return cfg;
}

llm::ModelConfig
ScenarioBuilder::model() const
{
    const std::string &name = spec_.engine.model;
    if (name == "opt13b")
        return llm::ModelConfig::opt13b();
    if (name == "opt30b")
        return llm::ModelConfig::opt30b();
    if (name == "opt66b")
        return llm::ModelConfig::opt66b();
    if (name == "opt175b")
        return llm::ModelConfig::opt175b();
    if (name == "opt175b-int4")
        return llm::ModelConfig::opt175bInt4();
    if (name == "llama7b")
        return llm::ModelConfig::llama7b();
    FATAL("unknown model preset '", name, "'");
}

trace::DatasetProfile
ScenarioBuilder::datasetProfile() const
{
    const std::string &name = spec_.trace.dataset;
    trace::DatasetProfile profile;
    if (name == "sharegpt")
        profile = trace::DatasetProfile::shareGpt();
    else if (name == "alpaca")
        profile = trace::DatasetProfile::alpaca();
    else if (name == "ultrachat")
        profile = trace::DatasetProfile::ultrachat();
    else
        FATAL("unknown dataset preset '", name, "'");
    if (spec_.trace.max_len > 0)
        profile.max_len = spec_.trace.max_len;
    return profile;
}

runtime::HostResources
ScenarioBuilder::hostResources(const HostVariantSpec &host) const
{
    runtime::HostResources res;
    res.shared_crypto_lanes = host.shared_crypto_lanes;
    res.bridge_bw = host.bridge_gbps * 1e9;
    res.bridge_latency = microseconds(host.bridge_latency_us);
    return res;
}

core::PipeLlmConfig
ScenarioBuilder::pipeConfig(const HostVariantSpec &host) const
{
    core::PipeLlmConfig cfg;
    switch (spec_.pipe.kind) {
      case PipeSpec::Kind::Kv: {
        serving::ClusterConfig cluster_cfg;
        std::uint64_t block_bytes =
            std::uint64_t(cluster_cfg.engine.block_tokens) *
            model().kvBytesPerToken();
        cfg = kvPipeConfig(block_bytes);
        break;
      }
      case PipeSpec::Kind::Offload:
        cfg = offloadPipeConfig(model());
        break;
    }
    if (host.pipe_max_lane_lead_ms >= 0)
        cfg.max_lane_lead = milliseconds(host.pipe_max_lane_lead_ms);
    return cfg;
}

serving::ClusterConfig
ScenarioBuilder::clusterConfig() const
{
    serving::ClusterConfig cfg;
    cfg.engine.model = model();
    cfg.engine.parallel_sampling = spec_.engine.parallel_sampling;
    cfg.policy = spec_.cluster.policy;
    if (spec_.kind == ScenarioKind::Disagg) {
        cfg.disagg.enabled = true;
        cfg.disagg.prefill_replicas = spec_.disagg.prefill_replicas;
        cfg.disagg.migration.chunk_bytes =
            std::uint64_t(spec_.disagg.chunk_kib * double(KiB));
        cfg.disagg.migration.pipeline_depth =
            spec_.disagg.pipeline_depth;
    }
    return cfg;
}

fault::FaultPlan
ScenarioBuilder::scaledPlan(double scale) const
{
    const FaultSpec &f = spec_.faults;
    fault::FaultPlan plan;
    plan.seed = f.seed;
    plan.tag_corruption_rate = f.tag_corruption_rate * scale;
    plan.copy_stall_rate = f.copy_stall_rate * scale;
    plan.lane_fault_rate = f.lane_fault_rate * scale;
    plan.replica_crash_rate = f.replica_crash_rate * scale;
    plan.replica_restart_rate = f.replica_restart_rate * scale;
    plan.spdm_rekey_ticks = milliseconds(f.spdm_rekey_ms);
    plan.warmup_probe_bytes =
        std::uint64_t(f.warmup_probe_kib * double(KiB));
    plan.migration_tag_rate = f.migration_tag_rate * scale;
    plan.migration_stall_rate = f.migration_stall_rate * scale;
    plan.dest_crash_rate = f.dest_crash_rate * scale;
    plan.migration_stall_timeout =
        microseconds(f.migration_stall_timeout_us);
    plan.max_migration_attempts = f.max_migration_attempts;
    plan.storm_start = seconds(f.storm_start_s);
    plan.storm_end = seconds(f.storm_end_s);
    plan.storm_multiplier = f.storm_multiplier;
    for (unsigned d : f.crash_devices)
        plan.crash_devices.push_back(d);
    return plan;
}

trace::Trace
ScenarioBuilder::poissonTrace(std::size_t n_requests,
                              unsigned n_devices) const
{
    trace::TraceGenerator gen(datasetProfile(), spec_.trace.seed);
    return gen.poisson(n_requests,
                       spec_.trace.rate_per_device * n_devices);
}

BuiltCluster
ScenarioBuilder::build(SystemMode mode, unsigned n_devices,
                       const HostVariantSpec &host, double fault_scale,
                       unsigned) const
{
    BuiltCluster out;
    out.platform = std::make_unique<runtime::Platform>(
        systemSpec(), channelConfig(), n_devices,
        hostResources(host));
    if (fault_scale > 0)
        out.platform->armFaults(scaledPlan(fault_scale));

    auto cfg = clusterConfig();
    auto pipe_cfg = pipeConfig(host);
    out.router = std::make_unique<serving::ClusterRouter>(
        *out.platform,
        [mode, pipe_cfg](runtime::Platform &p,
                         runtime::DeviceId device) {
            return makeRuntime(mode, p, pipe_cfg, device);
        },
        cfg);
    return out;
}

chaos::SoakPlan
ScenarioBuilder::soakPlan(bool quick) const
{
    chaos::SoakPlan plan;
    plan.n_devices = spec_.cluster.devices.front();
    plan.use_pipellm = spec_.cluster.modes.front() == SystemMode::Pipe;
    plan.trace_seed = spec_.trace.seed;
    plan.model = model();
    plan.parallel_sampling = spec_.engine.parallel_sampling;
    plan.channel_sample_limit = spec_.device.channel_sample_limit;
    plan.profile = datasetProfile();
    plan.phases.clear();
    for (const auto &ph : spec_.soak.phases) {
        plan.phases.push_back(chaos::SoakPhase{
            quick && ph.requests_quick > 0 ? ph.requests_quick
                                           : ph.requests,
            ph.rate_per_device * plan.n_devices});
    }
    plan.faults = scaledPlan(1);
    plan.admission.shed_enabled = spec_.admission.shed;
    plan.admission.service_cost_per_sec =
        spec_.admission.service_cost_per_sec;
    plan.admission.max_outstanding_cost =
        spec_.admission.max_outstanding_cost;
    plan.slo_floor = seconds(spec_.slo.floor_s);
    plan.slo_per_token = milliseconds(spec_.slo.per_token_ms);
    plan.goodput_window = seconds(spec_.soak.goodput_window_s);
    plan.recover_frac = spec_.soak.recover_frac;
    return plan;
}

chaos::SoakPlan
ScenarioBuilder::overloadPlan(bool quick, double multiplier,
                              bool shed) const
{
    const OverloadSpec &o = spec_.overload;
    auto plan = soakPlan(quick);
    // Pure overload: no faults, one phase at the swept rate.
    plan.faults = fault::FaultPlan{};
    std::size_t n_requests =
        quick && o.requests_quick > 0 ? o.requests_quick : o.requests;
    plan.phases = {chaos::SoakPhase{
        n_requests,
        multiplier * o.rate_per_device * plan.n_devices}};
    plan.slo_floor = seconds(o.slo_floor_s);
    plan.slo_per_token = milliseconds(o.slo_per_token_ms);
    plan.admission.service_cost_per_sec = o.service_cost_per_sec;
    plan.admission.shed_enabled = shed;
    if (!shed)
        plan.admission.max_outstanding_cost = 0;
    return plan;
}

} // namespace scenario
} // namespace pipellm
