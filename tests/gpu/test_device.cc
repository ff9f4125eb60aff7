#include <gtest/gtest.h>

#include <vector>

#include "crypto/channel.hh"
#include "gpu/device.hh"

using namespace pipellm;
using namespace pipellm::gpu;
using crypto::CipherBlob;
using crypto::Direction;
using crypto::SecureChannel;

namespace {

struct DeviceFixture : ::testing::Test
{
    SystemSpec spec = SystemSpec::h100();
    SecureChannel channel;

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

TEST_F(DeviceFixture, AllocRespectsHbmCapacity)
{
    GpuDevice dev(spec);
    auto r = dev.alloc(60 * GiB, "weights");
    EXPECT_EQ(dev.memory().bytesAllocated(), 60 * GiB);
    EXPECT_EXIT(dev.alloc(30 * GiB, "too-much"),
                ::testing::ExitedWithCode(1), "out of memory");
    dev.free(r);
    EXPECT_EQ(dev.memory().bytesAllocated(), 0u);
}

TEST_F(DeviceFixture, PlainDmaTimingMatchesPcie)
{
    GpuDevice dev(spec);
    auto r = dev.alloc(64 * MiB, "buf");
    auto data = pattern(256);
    Tick done = dev.dmaH2dPlain(r.base, data.data(), data.size(),
                                32 * MiB, 0);
    // 32 MiB at 55 GB/s ~= 610 us.
    EXPECT_NEAR(toMicroseconds(done), 610.0, 15.0);
    EXPECT_EQ(dev.memory().readSample(r.base, 256), data);
}

TEST_F(DeviceFixture, PlainDmaSerializesOnLink)
{
    GpuDevice dev(spec);
    auto r = dev.alloc(64 * MiB, "buf");
    Tick a = dev.dmaH2dPlain(r.base, nullptr, 0, 16 * MiB, 0);
    Tick b = dev.dmaH2dPlain(r.base, nullptr, 0, 16 * MiB, 0);
    EXPECT_NEAR(double(b), 2.0 * double(a), double(spec.pcie_latency) * 2);
}

TEST_F(DeviceFixture, H2dEncryptedRoundTrip)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto pt = pattern(512);
    auto blob = channel.seal(Direction::HostToDevice, 0, pt.data(),
                             512);
    EXPECT_EQ(dev.rxCounter(), 0u);
    Tick done = dev.dmaH2dEncrypted(blob, r.base, 0);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(dev.rxCounter(), 1u);
    EXPECT_EQ(dev.memory().readSample(r.base, 512), pt);
}

TEST_F(DeviceFixture, H2dSequenceAdvancesIvs)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    for (std::uint64_t i = 0; i < 5; ++i) {
        auto pt = pattern(64, std::uint8_t(i));
        auto blob = channel.seal(Direction::HostToDevice, i, pt.data(),
                                 64);
        dev.dmaH2dEncrypted(blob, r.base, 0);
    }
    EXPECT_EQ(dev.rxCounter(), 5u);
    EXPECT_EQ(dev.integrityFailures(), 0u);
}

TEST_F(DeviceFixture, WrongIvBlobIsRejected)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto pt = pattern(64);
    // Sealed with counter 3, but the device expects 0.
    auto blob = channel.seal(Direction::HostToDevice, 3, pt.data(), 64);
    EXPECT_FALSE(dev.wouldAccept(blob));
    auto ok = channel.seal(Direction::HostToDevice, 0, pt.data(), 64);
    EXPECT_TRUE(dev.wouldAccept(ok));
}

TEST_F(DeviceFixture, WrongIvDeliveryPanics)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto pt = pattern(64);
    auto blob = channel.seal(Direction::HostToDevice, 3, pt.data(), 64);
    EXPECT_DEATH(dev.dmaH2dEncrypted(blob, r.base, 0), "tag failure");
}

TEST_F(DeviceFixture, D2hEncryptedProducesOpenableBlob)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto content = pattern(300, 9);
    dev.memory().write(r.base, content.data(), content.size());

    CipherBlob blob;
    Tick done = dev.dmaD2hEncrypted(r.base, 300, blob, 0);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(blob.dir, Direction::DeviceToHost);
    EXPECT_EQ(blob.iv_counter, 0u);
    EXPECT_EQ(dev.txCounter(), 1u);

    std::vector<std::uint8_t> out;
    ASSERT_TRUE(channel.open(blob, 0, out));
    EXPECT_EQ(out, content);
}

TEST_F(DeviceFixture, CcTransfersKeepDirectionsIndependent)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto pt = pattern(64);
    auto b0 = channel.seal(Direction::HostToDevice, 0, pt.data(), 64);
    dev.dmaH2dEncrypted(b0, r.base, 0);
    CipherBlob out_blob;
    dev.dmaD2hEncrypted(r.base, 64, out_blob, 0);
    dev.dmaD2hEncrypted(r.base, 64, out_blob, 0);
    EXPECT_EQ(dev.rxCounter(), 1u);
    EXPECT_EQ(dev.txCounter(), 2u);
}

TEST_F(DeviceFixture, KernelDurationRoofline)
{
    GpuDevice dev(spec);
    // Compute-bound: 4e12 flops at 400 TFLOPS = 10 ms (+5 us launch).
    KernelDesc heavy{"gemm", 4e12, 1e6};
    EXPECT_NEAR(toMilliseconds(dev.kernelDuration(heavy)), 10.0, 0.1);
    // Memory-bound: 33.5 GB at 3.35 TB/s = 10 ms.
    KernelDesc wide{"attn", 1e9, 33.5e9};
    EXPECT_NEAR(toMilliseconds(dev.kernelDuration(wide)), 10.0, 0.1);
}

TEST_F(DeviceFixture, KernelsSerializeOnComputeEngine)
{
    GpuDevice dev(spec);
    KernelDesc k{"step", 4e11, 0}; // 1 ms
    Tick a = dev.launchKernel(k, 0);
    Tick b = dev.launchKernel(k, 0);
    EXPECT_GT(b, a);
    EXPECT_NEAR(double(b - a), double(dev.kernelDuration(k)), 1.0);
}

TEST_F(DeviceFixture, EnableCcResetsCounters)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto pt = pattern(64);
    auto b0 = channel.seal(Direction::HostToDevice, 0, pt.data(), 64);
    dev.dmaH2dEncrypted(b0, r.base, 0);
    EXPECT_EQ(dev.rxCounter(), 1u);
    dev.enableCc(&channel); // new session
    EXPECT_EQ(dev.rxCounter(), 0u);
    EXPECT_EQ(dev.txCounter(), 0u);
}

TEST_F(DeviceFixture, NonCcDeviceRefusesEncryptedPath)
{
    GpuDevice dev(spec);
    auto pt = pattern(16);
    auto blob = channel.seal(Direction::HostToDevice, 0, pt.data(), 16);
    EXPECT_DEATH(dev.dmaH2dEncrypted(blob, 0x1000, 0), "non-CC device");
}

TEST_F(DeviceFixture, RetainedCommitVerifiesOriginalIv)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto pt = pattern(128, 7);
    // Sealed under an arbitrary out-of-band generation counter.
    auto blob = channel.seal(Direction::DeviceToHost, 999999,
                             pt.data(), 128);
    dev.commitRetained(blob, r.base);
    dev.commitRetained(blob, r.base); // replay accepted by design
    EXPECT_EQ(dev.retainedCommits(), 2u);
    EXPECT_EQ(dev.memory().readSample(r.base, 128), pt);
    // Lockstep counters are untouched by retained commits.
    EXPECT_EQ(dev.rxCounter(), 0u);
    EXPECT_EQ(dev.txCounter(), 0u);
}

TEST_F(DeviceFixture, RetainedCommitRejectsTampering)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto pt = pattern(64);
    auto blob = channel.seal(Direction::DeviceToHost, 5, pt.data(), 64);
    blob.sample_ct[3] ^= 0x40;
    EXPECT_DEATH(dev.commitRetained(blob, r.base), "tag failure");
}

TEST_F(DeviceFixture, SealRetainedUsesCallerCounter)
{
    GpuDevice dev(spec);
    dev.enableCc(&channel);
    auto r = dev.alloc(1 * MiB, "kv");
    auto blob = dev.sealRetainedD2h(r.base, 256, 12345);
    EXPECT_EQ(blob.iv_counter, 12345u);
    EXPECT_EQ(dev.txCounter(), 0u); // lockstep TX untouched
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(channel.open(blob, 12345, out));
    EXPECT_EQ(out, dev.memory().readSample(r.base, 256));
}
