#include <gtest/gtest.h>

#include "gpu/device.hh"
#include "llm/cost_model.hh"

using namespace pipellm;
using namespace pipellm::llm;

TEST(CostModel, DecodeFlopsDominatedByMatmuls)
{
    CostModel cm(ModelConfig::opt30b());
    double h = 7168;
    double f = cm.decodeFlopsPerTokenPerLayer(0);
    EXPECT_DOUBLE_EQ(f, 24.0 * h * h);
    // Context adds the attention term.
    EXPECT_GT(cm.decodeFlopsPerTokenPerLayer(2048), f);
}

TEST(CostModel, PrefillScalesSuperlinearly)
{
    CostModel cm(ModelConfig::opt30b());
    double f256 = cm.prefillFlopsPerLayer(256);
    double f512 = cm.prefillFlopsPerLayer(512);
    EXPECT_GT(f512, 2.0 * f256);      // quadratic attention term
    EXPECT_LT(f512, 4.0 * f256);      // but matmul-dominated
}

TEST(CostModel, SmallBatchDecodeIsMemoryBound)
{
    // At batch 1 the layer weights dominate HBM traffic, so the
    // kernel should be memory-bound on an H100.
    gpu::GpuDevice dev(gpu::SystemSpec::h100());
    CostModel cm(ModelConfig::opt30b());
    auto k = cm.decodeLayerKernel(1, 512);
    double compute_s = k.flops / dev.spec().gpu_flops;
    double memory_s = k.hbm_bytes / dev.spec().gpu_hbm_bw;
    EXPECT_GT(memory_s, compute_s);
}

TEST(CostModel, LargeBatchDecodeIsComputeBound)
{
    gpu::GpuDevice dev(gpu::SystemSpec::h100());
    CostModel cm(ModelConfig::opt30b());
    auto k = cm.decodeLayerKernel(512, 128);
    double compute_s = k.flops / dev.spec().gpu_flops;
    double memory_s = k.hbm_bytes / dev.spec().gpu_hbm_bw;
    EXPECT_GT(compute_s, memory_s);
}

TEST(CostModel, BackwardIsTwiceForward)
{
    CostModel cm(ModelConfig::opt13b());
    auto fwd = cm.forwardLayerKernel(4096);
    auto bwd = cm.backwardLayerKernel(4096);
    EXPECT_DOUBLE_EQ(bwd.flops, 2.0 * fwd.flops);
}

TEST(CostModel, DecodeStepTimeIsPlausible)
{
    // A full OPT-30B decode step at moderate batch should take tens
    // of milliseconds on an H100 — the scale against which swap
    // stalls are measured.
    gpu::GpuDevice dev(gpu::SystemSpec::h100());
    CostModel cm(ModelConfig::opt30b());
    Tick step = 0;
    for (unsigned l = 0; l < cm.model().num_layers; ++l)
        step += dev.kernelDuration(cm.decodeLayerKernel(32, 512));
    step += dev.kernelDuration(cm.embeddingKernel(32));
    EXPECT_GT(toMilliseconds(step), 2.0);
    EXPECT_LT(toMilliseconds(step), 200.0);
}

TEST(CostModel, EmbeddingKernelCostsVocabProjection)
{
    CostModel cm(ModelConfig::opt13b());
    auto k = cm.embeddingKernel(8);
    EXPECT_GT(k.flops, 0);
    EXPECT_GT(k.hbm_bytes, 0);
}

TEST(CostModel, ActivationBytesScaleWithHidden)
{
    CostModel small(ModelConfig::opt13b());
    CostModel big(ModelConfig::opt66b());
    EXPECT_GT(big.activationBytesPerTokenPerLayer(),
              small.activationBytesPerTokenPerLayer());
}
