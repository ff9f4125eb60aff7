/**
 * @file
 * Which co-simulation loop a cluster run takes.
 *
 * A decoupled platform (private host resources, faults disarmed)
 * runs each replica up to the next arrival in turn; a coupled host or
 * an armed injector keeps the sequential min-clock loop.
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "runtime/cc_runtime.hh"
#include "serving/cluster.hh"
#include "tests/serving/serving_fixture.hh"
#include "trace/generator.hh"

using namespace pipellm;
using namespace pipellm::serving;
using namespace serving_test;

namespace {

VllmConfig
swapHeavyEngine()
{
    VllmConfig cfg;
    cfg.model = tinyModel();
    cfg.parallel_sampling = 4;
    cfg.gpu_reserved_bytes = 160 * MiB;
    return cfg;
}

trace::Trace
burstTrace()
{
    trace::DatasetProfile profile{"determinism", 48.0, 0.4, 160.0, 0.4};
    profile.max_len = 192;
    trace::TraceGenerator gen(profile, 5);
    return gen.poisson(16, 200.0);
}

RuntimeFactory
ccFactory()
{
    return [](runtime::Platform &p, runtime::DeviceId d) {
        return std::make_unique<runtime::CcRuntime>(p, 1, d);
    };
}

/** One full serving run on a fresh platform. */
ClusterResult
serve(const runtime::HostResources &host, const fault::FaultPlan *plan,
      bool disagg = false)
{
    runtime::Platform platform(tinyGpu(448 * MiB),
                               crypto::ChannelConfig{}, 2, host);
    if (plan)
        platform.armFaults(*plan);
    ClusterConfig cfg;
    cfg.engine = swapHeavyEngine();
    cfg.policy = RoutePolicy::RoundRobin;
    cfg.disagg.enabled = disagg;
    ClusterRouter router(platform, ccFactory(), cfg);
    return router.run(burstTrace());
}

} // namespace

TEST(ClusterDeterminism, DecoupledRunTakesTheShardedSchedule)
{
    auto r = serve(runtime::HostResources{}, nullptr);
    EXPECT_TRUE(r.sharded);
    EXPECT_GT(r.engine_steps, 0u);
    EXPECT_EQ(r.completed, 16u);
}

TEST(ClusterDeterminism, CoupledHostFallsBackAndIgnoresThreads)
{
    runtime::HostResources host;
    host.shared_crypto_lanes = 1;
    auto r = serve(host, nullptr);
    EXPECT_FALSE(r.sharded);
    EXPECT_GT(r.engine_steps, 0u);
}

TEST(ClusterDeterminism, ArmedInjectorFallsBackAndIgnoresThreads)
{
    // An armed injector's RNG draw order is a machine-wide timeline,
    // so fault runs must keep the sequential schedule.
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.tag_corruption_rate = 0.02;
    EXPECT_FALSE(serve(runtime::HostResources{}, &plan).sharded);

    // Armed migration faults keep a disaggregated run there too.
    fault::FaultPlan migration;
    migration.seed = 21;
    migration.migration_tag_rate = 0.05;
    migration.migration_stall_rate = 0.02;
    EXPECT_FALSE(serve(runtime::HostResources{}, &migration, true).sharded);
}
