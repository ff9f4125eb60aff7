/**
 * @file
 * Simulation invariant audits: serialized-resource occupancy, service
 * causality, chained-stage completion ordering, shared-bridge byte
 * conservation, and decrypt causality.
 */

#include <gtest/gtest.h>

#include "audit/audit.hh"
#include "sim/resource.hh"

using namespace pipellm;
using audit::Auditor;
using audit::Check;

namespace {

struct AuditSimFixture : ::testing::Test
{
    Auditor &auditor = Auditor::instance();

    void
    SetUp() override
    {
        auditor.reset();
        auditor.setTrapOnViolation(false);
    }

    void
    TearDown() override
    {
        auditor.reset();
    }
};

} // namespace

TEST_F(AuditSimFixture, LaneDoubleBookingIsFlagged)
{
    // Inject directly through the hook: a serialized lane reports two
    // service intervals that overlap in simulated time.
    auto id = auditor.newId();
    auditor.noteService(id, "lane", 0, 100, 64);
    EXPECT_EQ(auditor.count(Check::LaneOverlap), 0u);
    auditor.noteService(id, "lane", 50, 150, 64);
    EXPECT_EQ(auditor.count(Check::LaneOverlap), 1u);
}

TEST_F(AuditSimFixture, BackwardsServiceIntervalIsFlagged)
{
    // A service interval whose completion precedes its start.
    auto id = auditor.newId();
    auditor.noteService(id, "lane", 100, 150, 0);
    EXPECT_EQ(auditor.count(Check::ClockRegression), 0u);
    auditor.noteService(id, "lane", 200, 180, 0);
    EXPECT_EQ(auditor.count(Check::ClockRegression), 1u);
}

TEST_F(AuditSimFixture, ChainCompletingBeforeUpstreamIsFlagged)
{
    auto id = auditor.newId();
    auditor.noteChainForward(id, "bridge", 64, 100, 100);
    EXPECT_EQ(auditor.count(Check::ChainCompletion), 0u);
    auditor.noteChainForward(id, "bridge", 64, 100, 90);
    EXPECT_EQ(auditor.count(Check::ChainCompletion), 1u);
}

TEST_F(AuditSimFixture, DecryptBeforeArrivalIsFlagged)
{
    auditor.noteDecrypt(100, 100);
    EXPECT_EQ(auditor.count(Check::DecryptBeforeArrival), 0u);
    auditor.noteDecrypt(100, 50);
    EXPECT_EQ(auditor.count(Check::DecryptBeforeArrival), 1u);
}

TEST_F(AuditSimFixture, RealResourcesSatisfyTheAudits)
{
    sim::BandwidthResource link("link", 1e9, 10);
    link.submitNotBefore(0, 1000);
    link.submitNotBefore(0, 1000);
    link.submitNotBefore(5, 500);

    sim::SerialTimeline sm("sm");
    sm.submit(0, 50);
    sm.submit(0, 20);

    sim::LaneGroup lanes("crypto", 2, 1e9);
    lanes.submitNotBefore(0, 256);
    lanes.submitNotBeforeBestFit(0, 256);

    EXPECT_TRUE(auditor.violations().empty()) << auditor.report();
    EXPECT_GE(auditor.evaluations(Check::LaneOverlap), 7u);
    EXPECT_GE(auditor.evaluations(Check::ClockRegression), 1u);
}

TEST_F(AuditSimFixture, ConservationHoldsForChainedTraffic)
{
    sim::BandwidthResource bridge("bridge", 2e9);
    sim::BandwidthResource a("a", 1e9);
    sim::BandwidthResource b("b", 1e9);
    a.setDownstream(&bridge);
    b.setDownstream(&bridge);

    a.submitNotBefore(0, 500);
    b.submitNotBefore(0, 700);
    auditor.checkConservation();
    EXPECT_EQ(auditor.count(Check::BridgeConservation), 0u);
    EXPECT_GE(auditor.evaluations(Check::ChainCompletion), 2u);
}

TEST_F(AuditSimFixture, ConservationFlagsDirectBridgeSubmission)
{
    sim::BandwidthResource bridge("bridge", 2e9);
    sim::BandwidthResource a("a", 1e9);
    a.setDownstream(&bridge);

    a.submitNotBefore(0, 500);
    // A byte that reaches the shared stage without being forwarded by
    // an upstream breaks the hierarchical-bandwidth accounting.
    bridge.submitNotBefore(0, 100);
    auditor.checkConservation(bridge.auditId());
    EXPECT_EQ(auditor.count(Check::BridgeConservation), 1u);
}

TEST_F(AuditSimFixture, PerStageConservationIgnoresOtherStages)
{
    sim::BandwidthResource dirty("dirty-bridge", 2e9);
    sim::BandwidthResource a("a", 1e9);
    a.setDownstream(&dirty);
    a.submitNotBefore(0, 500);
    dirty.submitNotBefore(0, 100); // imbalance on the *other* stage

    sim::BandwidthResource clean("clean-bridge", 2e9);
    sim::BandwidthResource c("c", 1e9);
    c.setDownstream(&clean);
    c.submitNotBefore(0, 300);

    auditor.checkConservation(clean.auditId());
    EXPECT_EQ(auditor.count(Check::BridgeConservation), 0u);
    auditor.checkConservation(dirty.auditId());
    EXPECT_EQ(auditor.count(Check::BridgeConservation), 1u);
}
