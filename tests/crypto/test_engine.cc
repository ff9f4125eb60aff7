/**
 * @file
 * CryptoEngine/CryptoLanes: dedicated mode must reproduce private
 * LaneGroups exactly; shared mode must make clients contend on one
 * pool while each stays capped at its own width.
 */

#include <gtest/gtest.h>

#include "crypto/engine.hh"

using namespace pipellm;
using crypto::CryptoEngine;
using crypto::CryptoLanes;

namespace {
constexpr double kBw = 1e9; // 1 byte per tick
}

TEST(CryptoEngine, DedicatedModeHandsOutPrivateGroups)
{
    CryptoEngine engine(kBw, /*shared_lanes=*/0);
    EXPECT_FALSE(engine.shared());
    EXPECT_EQ(engine.poolLanes(), 0u);
    EXPECT_EQ(engine.pool(), nullptr);

    auto a = engine.acquire("a", 2);
    auto b = engine.acquire("b", 2);
    EXPECT_FALSE(a.sharedView());
    EXPECT_EQ(a.width(), 2u);

    // Private lanes: saturating one client leaves the other untouched.
    for (int i = 0; i < 4; ++i)
        a.submitNotBefore(0, 1000);
    EXPECT_EQ(a.earliestFree(), 2000u);
    EXPECT_EQ(b.earliestFree(), 0u);
    EXPECT_EQ(b.submitNotBefore(0, 1000), 1000u);
}

TEST(CryptoEngine, DedicatedModeMatchesRawLaneGroupTiming)
{
    CryptoEngine engine(kBw);
    auto lanes = engine.acquire("enc", 2);
    sim::LaneGroup raw("raw", 2, kBw);
    for (int i = 0; i < 9; ++i) {
        std::uint64_t bytes = 100 * (i + 1);
        EXPECT_EQ(lanes.submitNotBefore(50, bytes),
                  raw.submitNotBefore(50, bytes));
        EXPECT_EQ(lanes.earliestFree(), raw.earliestFree());
    }
}

TEST(CryptoEngine, SharedModeMakesClientsContend)
{
    CryptoEngine engine(kBw, /*shared_lanes=*/1);
    EXPECT_TRUE(engine.shared());
    EXPECT_EQ(engine.poolLanes(), 1u);

    auto a = engine.acquire("a", 1);
    auto b = engine.acquire("b", 1);
    EXPECT_TRUE(a.sharedView());

    // Both clients' traffic lands on the same single lane: the second
    // request queues behind the first even though it came from a
    // different client.
    EXPECT_EQ(a.submitNotBefore(0, 1000), 1000u);
    EXPECT_EQ(b.submitNotBefore(0, 1000), 2000u);
    EXPECT_EQ(engine.pool()->bytesServed(), 2000u);
}

TEST(CryptoEngine, SharedViewWidthCapsClientParallelism)
{
    // Pool has 4 lanes but the client may only drive 1: its second
    // request waits for its first even though 3 lanes idle.
    CryptoEngine engine(kBw, 4);
    auto narrow = engine.acquire("narrow", 1);
    EXPECT_EQ(narrow.submitNotBefore(0, 1000), 1000u);
    EXPECT_EQ(narrow.submitNotBefore(0, 1000), 2000u);
    EXPECT_EQ(narrow.earliestFree(), 2000u);

    // A wide client can still use the idle lanes concurrently.
    auto wide = engine.acquire("wide", 2);
    EXPECT_EQ(wide.submitNotBefore(0, 1000), 1000u);
    EXPECT_EQ(wide.submitNotBefore(0, 1000), 1000u);
}

TEST(CryptoEngine, SharedEarliestFreeSeesCrossClientLoad)
{
    CryptoEngine engine(kBw, 1);
    auto a = engine.acquire("a", 1);
    auto b = engine.acquire("b", 1);

    // Client a fills the pool; b has never submitted, yet its
    // earliestFree reflects the pool backlog — this is what lets
    // max_lane_lead throttle speculation against a *sibling's* demand.
    a.submitNotBefore(0, 5000);
    EXPECT_EQ(b.earliestFree(), 5000u);
}

TEST(CryptoEngine, SharedPoolFairUnderSaturation)
{
    CryptoEngine engine(kBw, 2);
    auto a = engine.acquire("a", 1);
    auto b = engine.acquire("b", 1);

    // Width-1 clients on a 2-lane pool, saturated: each effectively
    // owns one lane's worth of service; equal offered load finishes
    // at equal times.
    Tick ta = 0, tb = 0;
    for (int i = 0; i < 10; ++i) {
        ta = a.submitNotBefore(0, 1000);
        tb = b.submitNotBefore(0, 1000);
    }
    EXPECT_EQ(ta, 10000u);
    EXPECT_EQ(tb, 10000u);
    EXPECT_EQ(a.bytesSubmitted(), b.bytesSubmitted());
}
