/**
 * @file
 * Wall-clock microbenchmarks of the simulator's own building blocks
 * (google-benchmark). These measure the *reproduction's*
 * performance, not the paper's: AES-GCM sealing, the secure channel,
 * resource booking, sparse-memory access — the
 * per-simulated-transfer costs that bound how large an experiment
 * the harness can run. End-to-end and per-layer wall clock of whole
 * scenarios is perfbench's job (perfbench/README.md).
 *
 *   bench_simcore [gbench flags...]
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "crypto/channel.hh"
#include "crypto/gcm.hh"
#include "mem/sparse_memory.hh"
#include "sim/resource.hh"

using namespace pipellm;

namespace {

void
BM_AesGcmSeal(benchmark::State &state)
{
    std::vector<std::uint8_t> key(32, 0x42);
    crypto::AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> pt(state.range(0), 0xab);
    std::vector<std::uint8_t> ct(pt.size());
    crypto::GcmTag tag;
    crypto::GcmIv iv{};
    std::uint64_t n = 0;
    for (auto _ : state) {
        iv[11] = std::uint8_t(n++);
        gcm.seal(iv, nullptr, 0, pt.data(), pt.size(), ct.data(), tag);
        benchmark::DoNotOptimize(ct.data());
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(512)->Arg(4096)->Arg(65536);

void
BM_AesGcmOpen(benchmark::State &state)
{
    std::vector<std::uint8_t> key(32, 0x42);
    crypto::AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> pt(state.range(0), 0xab);
    std::vector<std::uint8_t> ct(pt.size());
    crypto::GcmTag tag;
    crypto::GcmIv iv{};
    gcm.seal(iv, nullptr, 0, pt.data(), pt.size(), ct.data(), tag);
    std::vector<std::uint8_t> out(pt.size());
    for (auto _ : state) {
        bool ok = gcm.open(iv, nullptr, 0, ct.data(), ct.size(), tag,
                           out.data());
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(512)->Arg(4096);

void
BM_ChannelSealedTransfer(benchmark::State &state)
{
    crypto::ChannelConfig cfg;
    cfg.sample_limit = 512;
    crypto::SecureChannel ch(cfg);
    std::vector<std::uint8_t> sample(512, 0x17);
    std::uint64_t iv = 0;
    for (auto _ : state) {
        auto blob = ch.seal(crypto::Direction::HostToDevice, iv,
                            sample.data(), 32 * MiB);
        std::vector<std::uint8_t> out;
        bool ok = ch.open(blob, iv, out);
        benchmark::DoNotOptimize(ok);
        ++iv;
    }
}
BENCHMARK(BM_ChannelSealedTransfer);

void
BM_ResourceBooking(benchmark::State &state)
{
    sim::BandwidthResource link("link", 55e9, 400);
    for (auto _ : state) {
        Tick t = link.submitNotBefore(0, 1 * MiB);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_ResourceBooking);

void
BM_SparseMemoryWrite(benchmark::State &state)
{
    mem::SparseMemory arena("bench", 16 * GiB);
    auto r = arena.alloc(1 * GiB, "buf");
    std::vector<std::uint8_t> data(4096, 0x5c);
    std::uint64_t off = 0;
    for (auto _ : state) {
        arena.write(r.base + (off % (512 * MiB)), data.data(),
                    data.size());
        off += 4096;
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_SparseMemoryWrite);

void
BM_SparseMemorySyntheticRead(benchmark::State &state)
{
    mem::SparseMemory arena("bench", 400 * GiB);
    auto r = arena.alloc(300 * GiB, "weights");
    std::vector<std::uint8_t> out(512);
    std::uint64_t off = 0;
    for (auto _ : state) {
        arena.read(r.base + (off % (200 * GiB)), out.data(),
                   out.size());
        off += 1 * GiB;
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 512);
}
BENCHMARK(BM_SparseMemorySyntheticRead);

} // namespace

BENCHMARK_MAIN();
