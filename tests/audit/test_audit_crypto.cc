/**
 * @file
 * Crypto invariant audits: (key, IV) uniqueness across devices,
 * epochs, and the retained namespace, plus the tag-verification
 * ledger. Violations are injected through the *real* transfer paths
 * wherever possible, so these tests double as proof that the hooks
 * sit on the actual exposure points.
 */

#include <gtest/gtest.h>

#include <vector>

#include "audit/audit.hh"
#include "crypto/channel.hh"
#include "gpu/device.hh"
#include "pipellm/pipellm_runtime.hh"

using namespace pipellm;
using audit::Auditor;
using audit::Check;
using crypto::CipherBlob;
using crypto::Direction;
using crypto::SecureChannel;

namespace {

struct AuditCryptoFixture : ::testing::Test
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

    std::vector<std::uint8_t>
    pattern(std::size_t n, std::uint8_t seed = 3)
    {
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = std::uint8_t(seed + i);
        return v;
    }
};

} // namespace

TEST_F(AuditCryptoFixture, IvReuseAcrossDevicesSharingAChannel)
{
    // Two devices keyed by ONE channel: each expects counter 0, so
    // both transfers verify — but the second exposure of (key, IV=0)
    // on the bus is GCM's fatal misuse, and only the auditor sees it.
    auto spec = gpu::SystemSpec::h100();
    SecureChannel ch;
    gpu::GpuDevice a(spec, "a-");
    gpu::GpuDevice b(spec, "b-");
    a.enableCc(&ch);
    b.enableCc(&ch);
    auto ra = a.alloc(1 * MiB, "a-buf");
    auto rb = b.alloc(1 * MiB, "b-buf");

    auto pt = pattern(64);
    auto blob1 = ch.seal(Direction::HostToDevice, 0, pt.data(), 64);
    auto blob2 = ch.seal(Direction::HostToDevice, 0, pt.data(), 64);

    a.dmaH2dEncrypted(blob1, ra.base, 0);
    EXPECT_EQ(auditor.count(Check::IvReuse), 0u);
    b.dmaH2dEncrypted(blob2, rb.base, 0);
    EXPECT_EQ(auditor.count(Check::IvReuse), 1u);
    EXPECT_GE(auditor.evaluations(Check::IvReuse), 2u);
}

TEST_F(AuditCryptoFixture, NewSessionEpochRetiresOldExposures)
{
    auto spec = gpu::SystemSpec::h100();
    SecureChannel ch;
    gpu::GpuDevice dev(spec);
    auto r = dev.alloc(1 * MiB, "buf");
    auto pt = pattern(64);

    dev.enableCc(&ch);
    auto blob = ch.seal(Direction::HostToDevice, 0, pt.data(), 64);
    dev.dmaH2dEncrypted(blob, r.base, 0);

    // Re-keying the session resets both counters; re-exposing counter
    // 0 afterwards is a *fresh* (key, IV) pair, not a reuse.
    dev.enableCc(&ch);
    auto blob2 = ch.seal(Direction::HostToDevice, 0, pt.data(), 64);
    dev.dmaH2dEncrypted(blob2, r.base, 0);
    EXPECT_EQ(auditor.count(Check::IvReuse), 0u);
}

TEST_F(AuditCryptoFixture, D2hProductionCountsAsExposure)
{
    auto spec = gpu::SystemSpec::h100();
    SecureChannel ch;
    gpu::GpuDevice dev(spec);
    dev.enableCc(&ch);
    auto r = dev.alloc(1 * MiB, "buf");

    CipherBlob out;
    dev.dmaD2hEncrypted(r.base, 64, out, 0);
    dev.dmaD2hEncrypted(r.base, 64, out, 0);
    EXPECT_EQ(auditor.count(Check::IvReuse), 0u);
    EXPECT_GE(auditor.evaluations(Check::IvReuse), 2u);
}

TEST_F(AuditCryptoFixture, RetainedReplayAllowedDistinctContentFlagged)
{
    auto spec = gpu::SystemSpec::h100();
    SecureChannel ch;
    gpu::GpuDevice dev(spec);
    dev.enableCc(&ch);
    auto r = dev.alloc(1 * MiB, "kv");
    auto content = pattern(128, 7);
    dev.memory().write(r.base, content.data(), content.size());

    auto blob = dev.sealRetainedD2h(r.base, 128, 7777);
    dev.commitRetained(blob, r.base); // identical bytes: §8.2 design
    dev.commitRetained(blob, r.base);
    EXPECT_EQ(auditor.count(Check::IvReuse), 0u);

    // New plaintext sealed under the *same* retained IV: two distinct
    // ciphertexts with one (key, IV) — two-time-pad material.
    auto changed = pattern(128, 99);
    dev.memory().write(r.base, changed.data(), changed.size());
    dev.sealRetainedD2h(r.base, 128, 7777);
    EXPECT_EQ(auditor.count(Check::IvReuse), 1u);
}

TEST_F(AuditCryptoFixture, RetainedCollidingWithLockstepFlagged)
{
    auto spec = gpu::SystemSpec::h100();
    SecureChannel ch;
    gpu::GpuDevice dev(spec);
    dev.enableCc(&ch);
    auto r = dev.alloc(1 * MiB, "kv");

    CipherBlob out;
    dev.dmaD2hEncrypted(r.base, 64, out, 0); // lockstep D2H counter 0
    dev.sealRetainedD2h(r.base, 64, 0);      // retained under 0 too
    EXPECT_EQ(auditor.count(Check::IvReuse), 1u);
}

TEST_F(AuditCryptoFixture, LedgerFlagsUnsettledBlob)
{
    SecureChannel ch;
    auto pt = pattern(32, 5);
    ch.seal(Direction::HostToDevice, 0, pt.data(), 32);
    EXPECT_EQ(auditor.outstandingBlobs(), 1u);
    auditor.checkLedgerDrained("ledger test");
    EXPECT_EQ(auditor.count(Check::TagLedger), 1u);
}

TEST_F(AuditCryptoFixture, LedgerDrainsWhenVerifiedOrDiscarded)
{
    SecureChannel ch;
    auto pt = pattern(32, 5);
    auto sent = ch.seal(Direction::HostToDevice, 0, pt.data(), 32);
    auto dropped = ch.seal(Direction::HostToDevice, 1, pt.data(), 32);
    EXPECT_EQ(auditor.outstandingBlobs(), 2u);

    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ch.open(sent, 0, out));        // verified
    auditor.noteDiscarded(dropped.audit_serial); // discarded
    EXPECT_EQ(auditor.outstandingBlobs(), 0u);
    auditor.checkLedgerDrained("ledger test");
    EXPECT_EQ(auditor.count(Check::TagLedger), 0u);
}

TEST_F(AuditCryptoFixture, DiscardedBlobLaterVerifiedIsFlagged)
{
    SecureChannel ch;
    auto pt = pattern(32, 5);
    auto blob = ch.seal(Direction::HostToDevice, 0, pt.data(), 32);
    auditor.noteDiscarded(blob.audit_serial);

    // A blob declared dead must never be exposed afterwards: the
    // speculative-rollback safety argument (§6) rests on it.
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ch.open(blob, 0, out));
    EXPECT_EQ(auditor.count(Check::TagLedger), 1u);
}

TEST_F(AuditCryptoFixture, PipeLlmWorkloadLeavesLedgerClean)
{
    // End-to-end positive check: a speculating PipeLLM runtime hits,
    // misses, NOP-pads, and relinquishes; every sealed blob must end
    // verified or discarded, with zero invariant violations.
    {
        runtime::Platform platform;
        core::PipeLlmConfig config;
        config.classifier.layer_param_bytes = 2 * MiB;
        config.enc_lanes = 2;
        config.pipeline_depth = 4;
        core::PipeLlmRuntime rt(platform, config);

        std::vector<mem::Region> layers;
        for (int i = 0; i < 4; ++i) {
            layers.push_back(platform.allocHost(
                2 * MiB, "layer" + std::to_string(i)));
        }
        auto dev_buf = platform.gpu(0).alloc(4 * MiB, "slot");
        auto &s = rt.createStream("s");
        gpu::KernelDesc k{"layer", 2e10, 1e8};
        Tick now = 0;
        for (int c = 0; c < 4; ++c) {
            for (auto &layer : layers) {
                now = rt.memcpyAsync(runtime::CopyKind::HostToDevice,
                                     dev_buf.base, layer.base, 2 * MiB,
                                     s, now)
                          .api_return;
                now = rt.synchronize(now);
                now = rt.launchKernel(k, s, now).api_return;
                now = rt.synchronize(now);
            }
        }
    }
    EXPECT_TRUE(auditor.violations().empty()) << auditor.report();
    auditor.checkLedgerDrained("pipellm workload");
    EXPECT_EQ(auditor.count(Check::TagLedger), 0u)
        << auditor.report();
    EXPECT_GT(auditor.evaluations(Check::IvReuse), 0u);
}
