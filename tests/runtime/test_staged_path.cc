#include <gtest/gtest.h>

#include "runtime/staged_path.hh"

using namespace pipellm;
using namespace pipellm::runtime;

namespace {

struct StagedFixture : ::testing::Test
{
    gpu::SystemSpec spec = gpu::SystemSpec::h100();
    sim::BandwidthResource link{"pcie", spec.pcie_h2d_bw,
                                spec.pcie_latency};
};

} // namespace

TEST_F(StagedFixture, SmallTransferUsesOneChunk)
{
    StagedCopyPath path(spec, link, true);
    Tick done = path.transfer(0, 64 * KiB);
    // memcpy at 40 GB/s + DMA at 55 GB/s, sequential for one chunk.
    Tick expect = transferTicks(64 * KiB, spec.cc_copy_bw) +
                  transferTicks(64 * KiB, spec.pcie_h2d_bw) +
                  spec.pcie_latency;
    EXPECT_NEAR(double(done), double(expect), 10.0);
}

TEST_F(StagedFixture, LargeTransferPipelinesToCopyRate)
{
    StagedCopyPath path(spec, link, true);
    const std::uint64_t len = 1 * GiB;
    Tick done = path.transfer(0, len);
    double rate = achievedRate(len, done);
    // Pipelined: bounded by the slower 40 GB/s memcpy stage, within a
    // few percent (first-chunk fill adds a constant).
    EXPECT_GT(rate, 37e9);
    EXPECT_LT(rate, 41e9);
}

TEST_F(StagedFixture, DeviceToHostDirectionAlsoPipelines)
{
    StagedCopyPath path(spec, link, false);
    const std::uint64_t len = 512 * MiB;
    Tick done = path.transfer(0, len);
    double rate = achievedRate(len, done);
    EXPECT_GT(rate, 37e9);
}

TEST_F(StagedFixture, HonorsEarliestStart)
{
    StagedCopyPath path(spec, link, true);
    Tick done0 = path.transfer(0, 1 * MiB);
    Tick base = done0 + 1000000;
    Tick done1 = path.transfer(base, 1 * MiB);
    EXPECT_GT(done1, base);
}

TEST_F(StagedFixture, BackToBackTransfersShareThePool)
{
    StagedCopyPath path(spec, link, true);
    Tick a = path.transfer(0, 256 * MiB);
    Tick b = path.transfer(0, 256 * MiB);
    EXPECT_GT(b, a);
    double rate = achievedRate(512 * MiB, b);
    EXPECT_GT(rate, 37e9);
    EXPECT_LT(rate, 41e9);
}
