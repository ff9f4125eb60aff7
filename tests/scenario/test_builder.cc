/**
 * @file
 * Builder equivalence: a cluster materialized from a committed
 * .scenario file produces a bit-identical ClusterResult to the
 * hand-rolled construction the legacy bench mains performed. This is
 * the refactor's safety net — if the builder drifts from the legacy
 * recipe (different preset, unit conversion, seed threading), the
 * hexfloat fingerprints diverge long before anyone diffs a CSV.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "scenario/builder.hh"
#include "scenario/spec.hh"
#include "serving/cluster.hh"
#include "tests/serving/cluster_fingerprint.hh"
#include "trace/generator.hh"

using namespace pipellm;
using namespace pipellm::scenario;
using serving_test::fingerprint;

namespace {

ScenarioSpec
load(const char *path)
{
    auto parsed = loadScenario(path);
    PIPELLM_ASSERT(parsed.ok(), "cannot load ", path);
    return parsed.spec;
}

/** The legacy bench_cluster_scale/bench_faults construction. */
serving::ClusterResult
legacyRun(SystemMode mode, unsigned n_devices, std::size_t n_requests,
          const runtime::HostResources &host,
          const fault::FaultPlan *plan)
{
    crypto::ChannelConfig channel;
    channel.sample_limit = 512;
    runtime::Platform platform(gpu::SystemSpec::h100(), channel,
                               n_devices, host);
    if (plan)
        platform.armFaults(*plan);

    serving::ClusterConfig cfg;
    cfg.engine.model = llm::ModelConfig::opt30b();
    cfg.engine.parallel_sampling = 6;
    cfg.policy = serving::RoutePolicy::RoundRobin;

    std::uint64_t block_bytes =
        std::uint64_t(cfg.engine.block_tokens) *
        cfg.engine.model.kvBytesPerToken();
    auto pipe_cfg = kvPipeConfig(block_bytes);
    if (host.shared_crypto_lanes > 0)
        pipe_cfg.max_lane_lead = milliseconds(10);

    serving::ClusterRouter router(
        platform,
        [mode, &pipe_cfg](runtime::Platform &p,
                          runtime::DeviceId device) {
            return makeRuntime(mode, p, pipe_cfg, device);
        },
        cfg);

    auto profile = trace::DatasetProfile::shareGpt();
    profile.max_len = 1024;
    trace::TraceGenerator gen(profile, 42);
    return router.run(gen.poisson(n_requests, 0.8 * n_devices));
}

} // namespace

TEST(ScenarioBuilder, ClusterScaleMatchesHandBuiltPrivateHost)
{
    auto spec = load(PIPELLM_SCENARIO_DIR "/cluster_scale.scenario");
    ScenarioBuilder builder(spec);

    const unsigned n = 2;
    std::size_t requests = spec.requestsPerDevice(true) * n;
    auto hosts = spec.hostAxis();
    ASSERT_EQ(hosts[0].name, "private");

    auto built = builder.build(SystemMode::Cc, n, hosts[0], 0, 1);
    auto spec_result =
        built.router->run(builder.poissonTrace(requests, n));
    auto legacy = legacyRun(SystemMode::Cc, n, requests,
                            runtime::HostResources{}, nullptr);
    EXPECT_EQ(fingerprint(spec_result), fingerprint(legacy));
}

TEST(ScenarioBuilder, ClusterScaleMatchesHandBuiltSharedHost)
{
    auto spec = load(PIPELLM_SCENARIO_DIR "/cluster_scale.scenario");
    ScenarioBuilder builder(spec);

    auto hosts = spec.hostAxis();
    ASSERT_EQ(hosts.size(), 2u);
    ASSERT_EQ(hosts[1].name, "shared");

    const unsigned n = 2;
    std::size_t requests = spec.requestsPerDevice(true) * n;

    runtime::HostResources shared;
    shared.shared_crypto_lanes = 2;
    shared.bridge_bw = 160e9;
    ASSERT_EQ(builder.hostResources(hosts[1]).bridge_bw,
              shared.bridge_bw);

    // Pipe exercises the shared-host lane-lead override.
    auto built = builder.build(SystemMode::Pipe, n, hosts[1], 0, 1);
    auto spec_result =
        built.router->run(builder.poissonTrace(requests, n));
    auto legacy =
        legacyRun(SystemMode::Pipe, n, requests, shared, nullptr);
    EXPECT_EQ(fingerprint(spec_result), fingerprint(legacy));
}

TEST(ScenarioBuilder, FaultSweepMatchesHandBuiltArmedPlan)
{
    auto spec = load(PIPELLM_SCENARIO_DIR "/faults.scenario");
    ScenarioBuilder builder(spec);

    const unsigned n = 2;
    const double scale = 2;
    std::size_t requests = spec.requestsPerDevice(true) * n;

    // The legacy basePlan(scale) from bench_faults.
    fault::FaultPlan plan;
    plan.seed = 1009;
    plan.tag_corruption_rate = 0.02 * scale;
    plan.copy_stall_rate = 0.01 * scale;
    plan.lane_fault_rate = 0.01 * scale;
    plan.replica_crash_rate = 0.02 * scale;
    plan.replica_restart_rate = 0.1 * scale;

    auto from_spec = builder.scaledPlan(scale);
    EXPECT_EQ(from_spec.seed, plan.seed);
    EXPECT_EQ(from_spec.tag_corruption_rate, plan.tag_corruption_rate);
    EXPECT_EQ(from_spec.replica_crash_rate, plan.replica_crash_rate);
    EXPECT_EQ(from_spec.replica_restart_rate,
              plan.replica_restart_rate);

    auto built = builder.build(SystemMode::Cc, n, HostVariantSpec{},
                               scale, 1);
    auto spec_result =
        built.router->run(builder.poissonTrace(requests, n));
    auto legacy = legacyRun(SystemMode::Cc, n, requests,
                            runtime::HostResources{}, &plan);
    EXPECT_EQ(fingerprint(spec_result), fingerprint(legacy));
}

TEST(ScenarioBuilder, ScaledPlanConvertsHumanUnits)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = f\n"
                                "kind = fault_sweep\n"
                                "[cluster]\n"
                                "devices = 2\n"
                                "modes = Cc\n"
                                "[faults]\n"
                                "seed = 7\n"
                                "scales = 0 1\n"
                                "spdm_rekey_ms = 25\n"
                                "warmup_probe_kib = 64\n"
                                "storm_start_s = 3\n"
                                "storm_end_s = 9\n"
                                "storm_multiplier = 4\n");
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed.spec.validate().empty());
    ScenarioBuilder builder(parsed.spec);

    auto plan = builder.scaledPlan(1);
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_EQ(plan.spdm_rekey_ticks, milliseconds(25));
    EXPECT_EQ(plan.warmup_probe_bytes, 64 * KiB);
    EXPECT_EQ(plan.storm_start, seconds(3));
    EXPECT_EQ(plan.storm_end, seconds(9));
    EXPECT_EQ(plan.storm_multiplier, 4.0);
}

TEST(ScenarioBuilder, CrashDevicesListingAllIdsMatchesEmptyList)
{
    // The empty list means "any device may crash"; naming every id
    // must consume the identical draw sequence and reproduce the
    // bit-identical run.
    const std::string base = "[scenario]\n"
                             "name = f\n"
                             "kind = fault_sweep\n"
                             "[cluster]\n"
                             "devices = 2\n"
                             "modes = Cc\n"
                             "[engine]\n"
                             "model = opt13b\n"
                             "[trace]\n"
                             "requests_per_device = 8\n"
                             "[faults]\n"
                             "scales = 0 1\n"
                             "replica_crash_rate = 0.5\n"
                             "replica_restart_rate = 0.5\n";
    auto all = parseScenario(base);
    auto named = parseScenario(base + "crash_devices = 0 1\n");
    ASSERT_TRUE(all.ok());
    ASSERT_TRUE(named.ok());
    ASSERT_TRUE(named.spec.validate().empty());

    auto run = [](const ScenarioSpec &spec) {
        ScenarioBuilder builder(spec);
        auto built = builder.build(SystemMode::Cc, 2,
                                   HostVariantSpec{}, 1, 1);
        return fingerprint(
            built.router->run(builder.poissonTrace(16, 2)));
    };
    EXPECT_EQ(run(all.spec), run(named.spec));
}

TEST(ScenarioBuilder, CrashDevicesRestrictsWhichReplicasDie)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = f\n"
                                "kind = fault_sweep\n"
                                "[cluster]\n"
                                "devices = 2\n"
                                "modes = Cc\n"
                                "[engine]\n"
                                "model = opt13b\n"
                                "[trace]\n"
                                "requests_per_device = 8\n"
                                "[faults]\n"
                                "scales = 0 1\n"
                                "replica_crash_rate = 2\n"
                                "replica_restart_rate = 0.01\n"
                                "crash_devices = 0\n");
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed.spec.validate().empty());
    ScenarioBuilder builder(parsed.spec);

    auto built =
        builder.build(SystemMode::Cc, 2, HostVariantSpec{}, 1, 1);
    auto r = built.router->run(builder.poissonTrace(16, 2));

    // At 2 crashes/s per replica the unrestricted plan would kill
    // both replicas almost immediately; the filter must keep every
    // crash on device 0.
    ASSERT_EQ(r.replicas.size(), 2u);
    EXPECT_GT(r.replicas[0].crash_count, 0u);
    EXPECT_EQ(r.replicas[1].crash_count, 0u);
}

TEST(ScenarioBuilder, SoakPlanMirrorsScenario)
{
    auto spec = load(PIPELLM_SCENARIO_DIR "/soak.scenario");
    ScenarioBuilder builder(spec);

    auto plan = builder.soakPlan(/*quick=*/true);
    EXPECT_EQ(plan.n_devices, spec.cluster.devices.front());
    EXPECT_EQ(plan.use_pipellm,
              spec.cluster.modes.front() == SystemMode::Pipe);
    ASSERT_EQ(plan.phases.size(), spec.soak.phases.size());
    for (std::size_t i = 0; i < plan.phases.size(); ++i) {
        EXPECT_EQ(plan.phases[i].requests,
                  spec.soak.phases[i].requests_quick);
        EXPECT_EQ(plan.phases[i].requests_per_sec,
                  spec.soak.phases[i].rate_per_device *
                      plan.n_devices);
    }
    EXPECT_EQ(plan.admission.shed_enabled, spec.admission.shed);
    EXPECT_EQ(plan.goodput_window, seconds(spec.soak.goodput_window_s));

    auto overload = builder.overloadPlan(/*quick=*/true, 4.0,
                                         /*shed=*/false);
    EXPECT_FALSE(overload.faults.armed());
    EXPECT_FALSE(overload.admission.shed_enabled);
    ASSERT_EQ(overload.phases.size(), 1u);
    EXPECT_EQ(overload.phases[0].requests_per_sec,
              4.0 * spec.overload.rate_per_device * plan.n_devices);
}
