#include <gtest/gtest.h>

#include "crypto/engine.hh"
#include "pipellm/pipeline.hh"

using namespace pipellm;
using namespace pipellm::core;

namespace {

struct PipelineFixture : ::testing::Test
{
    mem::SparseMemory host{"host", 4 * GiB};
    crypto::SecureChannel channel;
    crypto::CryptoLanes lanes{"enc", 2, 5.8e9};
    Predictor predictor;
    PipeLlmConfig config;

    std::vector<mem::Region> regions;

    PipelineFixture()
    {
        config.pipeline_depth = 4;
        config.iv_leeway = 2;
        for (int i = 0; i < 8; ++i)
            regions.push_back(
                host.alloc(256 * KiB, "layer" + std::to_string(i)));
    }

    ChunkId
    chunk(int i)
    {
        return ChunkId{regions[i].base, regions[i].len};
    }

    /** Teach the predictor a full cycle over all regions. */
    void
    teachCycle(int cycles = 4)
    {
        for (int c = 0; c < cycles; ++c)
            for (int i = 0; i < 8; ++i)
                predictor.noteSwapIn(chunk(i));
    }
};

} // namespace

TEST_F(PipelineFixture, RefillFillsToDepth)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, /*cpu_iv=*/0);
    EXPECT_EQ(pipe.depth(), 4u);
    EXPECT_EQ(pipe.stats().pre_encrypted, 4u);
    EXPECT_EQ(pipe.bytesHeld(), 4u * 256 * KiB);
}

TEST_F(PipelineFixture, IvsAssignedWithLeeway)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 10);
    // First entry gets IV 10 + leeway(2) = 12.
    auto e = pipe.find(predictor.predictNext(1)[0].chunk);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->iv, 12u);
    EXPECT_EQ(pipe.speculationHead(), 16u);
}

TEST_F(PipelineFixture, FindMatchesAddressAndLength)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto predicted = predictor.predictNext(1)[0].chunk;
    EXPECT_TRUE(pipe.find(predicted).has_value());
    // Same address, different length: label check fails.
    EXPECT_FALSE(pipe.find(ChunkId{predicted.addr, 128}).has_value());
    EXPECT_FALSE(pipe.find(ChunkId{0xdead, 256 * KiB}).has_value());
}

TEST_F(PipelineFixture, CiphertextOpensUnderAssignedIv)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto predicted = predictor.predictNext(1)[0].chunk;
    auto e = pipe.find(predicted);
    ASSERT_TRUE(e);
    std::vector<std::uint8_t> pt;
    EXPECT_TRUE(channel.open(e->blob, e->iv, pt));
    EXPECT_FALSE(channel.open(e->blob, e->iv + 1, pt));
    // The plaintext really matches host memory at prediction time.
    EXPECT_EQ(pt, host.readSample(predicted.addr,
                                  channel.sampledLen(predicted.len)));
}

TEST_F(PipelineFixture, WriteToSourceInvalidatesEntry)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto predicted = predictor.predictNext(1)[0].chunk;
    ASSERT_TRUE(pipe.find(predicted));

    // Application updates the plaintext -> page fault -> invalidate.
    std::uint8_t v = 0x5a;
    host.write(predicted.addr + 100, &v, 1);
    EXPECT_FALSE(pipe.find(predicted).has_value());
    EXPECT_EQ(pipe.stats().invalidated_by_fault, 1u);
    EXPECT_GE(host.protection().faults(), 1u);
}

TEST_F(PipelineFixture, ReadsDoNotInvalidate)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto predicted = predictor.predictNext(1)[0].chunk;
    host.readSample(predicted.addr, 64);
    EXPECT_TRUE(pipe.find(predicted).has_value());
}

TEST_F(PipelineFixture, ConsumeReleasesProtection)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto predicted = predictor.predictNext(1)[0].chunk;
    auto e = pipe.find(predicted);
    ASSERT_TRUE(e);
    pipe.consume(e->iv);
    EXPECT_FALSE(pipe.find(predicted).has_value());
    // Writing after consume is fault-free.
    auto faults_before = host.protection().faults();
    std::uint8_t v = 1;
    host.write(predicted.addr, &v, 1);
    EXPECT_EQ(host.protection().faults(), faults_before);
}

TEST_F(PipelineFixture, IvCollisionRelinquishesTailAndReusesIvs)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto predicted = predictor.predictNext(1)[0].chunk;
    auto e = pipe.find(predicted);
    ASSERT_TRUE(e);
    // A foreign transfer consumed the head entry's IV: the whole plan
    // tail is positionally shifted and must be relinquished; the
    // never-exposed IVs are reclaimed.
    pipe.invalidateIv(e->iv, 0);
    EXPECT_EQ(pipe.depth(), 0u);
    EXPECT_EQ(pipe.stats().invalidated_by_iv, 1u);
    EXPECT_EQ(pipe.speculationHead(), e->iv + 1);
    // A collision pauses speculation (the current epoch outlived the
    // plan); the next swap activity resumes it, and the refill then
    // rebuilds right after the consumed IV.
    pipe.refill(1000, e->iv + 1);
    EXPECT_EQ(pipe.depth(), 0u);
    pipe.noteSwapRequest();
    pipe.refill(1000, e->iv + 1);
    EXPECT_EQ(pipe.depth(), 4u);
    auto rebuilt = pipe.find(predicted);
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_GT(rebuilt->iv, e->iv);
    std::vector<std::uint8_t> pt;
    EXPECT_TRUE(channel.open(rebuilt->blob, rebuilt->iv, pt));
}

TEST_F(PipelineFixture, RelinquishDropsEverything)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    EXPECT_EQ(pipe.depth(), 4u);
    pipe.relinquish();
    EXPECT_EQ(pipe.depth(), 0u);
    EXPECT_EQ(pipe.bytesHeld(), 0u);
    EXPECT_EQ(pipe.stats().relinquished, 4u);
    EXPECT_EQ(host.protection().protectedPages(), 0u);
}

TEST_F(PipelineFixture, RefillAfterConsumeTopsUp)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto first = predictor.predictNext(1)[0].chunk;
    auto e = pipe.find(first);
    pipe.consume(e->iv);
    // Ground truth arrives; predictor window slides.
    predictor.noteSwapIn(first);
    pipe.refill(1000, 1);
    EXPECT_EQ(pipe.depth(), 4u);
}

TEST_F(PipelineFixture, EncryptionTimeChargedOnLanes)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    auto predicted = predictor.predictNext(1)[0].chunk;
    auto e = pipe.find(predicted);
    ASSERT_TRUE(e);
    // 256 KiB at 5.8 GB/s ~= 45 us.
    EXPECT_NEAR(toMicroseconds(e->ready_at), 45.2, 3.0);
    EXPECT_EQ(lanes.group().bytesServed(), 4u * 256 * KiB);
}

TEST_F(PipelineFixture, ByteBudgetLimitsDepth)
{
    teachCycle();
    config.max_pipeline_bytes = 512 * KiB; // only two chunks
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    EXPECT_EQ(pipe.depth(), 2u);
}

TEST_F(PipelineFixture, SpeculationDisabledDoesNothing)
{
    teachCycle();
    config.speculation = false;
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    pipe.refill(0, 0);
    EXPECT_EQ(pipe.depth(), 0u);
}

TEST_F(PipelineFixture, FreedRegionIsSkipped)
{
    teachCycle();
    SpeculativePipeline pipe(host, channel, lanes, predictor, config);
    auto doomed = predictor.predictNext(1)[0].chunk;
    // Free the region the next prediction points at.
    for (auto &r : regions) {
        if (r.base == doomed.addr) {
            host.free(r);
            break;
        }
    }
    pipe.refill(0, 0);
    EXPECT_FALSE(pipe.find(doomed).has_value());
    EXPECT_GT(pipe.depth(), 0u); // others still pre-encrypted
}
