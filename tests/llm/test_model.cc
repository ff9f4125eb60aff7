#include <gtest/gtest.h>

#include <ostream>

#include "common/units.hh"
#include "llm/model.hh"

using namespace pipellm;
using namespace pipellm::llm;

namespace {

struct SizeCase
{
    const char *name;
    ModelConfig (*make)();
    double params_b;  // expected parameter count, billions
    double bytes_gb;  // expected total weight bytes, decimal GB
};

const SizeCase kSizes[] = {
    // The paper quotes 26 GB for OPT-13B, ~60 GB for OPT-30B and
    // 132 GB for OPT-66B (§3, §7.2).
    {"opt13b", ModelConfig::opt13b, 13.0, 26.0},
    {"opt30b", ModelConfig::opt30b, 30.0, 60.0},
    {"opt66b", ModelConfig::opt66b, 66.0, 132.0},
    {"opt175b", ModelConfig::opt175b, 175.0, 350.0},
    {"opt175b_int4", ModelConfig::opt175bInt4, 175.0, 87.5},
};

// Without a printer gtest dumps the struct's bytes (two pointers)
// into the test name, which then changes with every load address.
void
PrintTo(const SizeCase &c, std::ostream *os)
{
    *os << c.name;
}

class ModelSizes : public ::testing::TestWithParam<SizeCase>
{
};

} // namespace

TEST_P(ModelSizes, ParameterCountMatchesBillingName)
{
    const auto &c = GetParam();
    auto m = c.make();
    m.validate();
    EXPECT_NEAR(double(m.totalParams()) / 1e9, c.params_b,
                c.params_b * 0.05);
}

TEST_P(ModelSizes, WeightBytesMatchPaperFigures)
{
    const auto &c = GetParam();
    auto m = c.make();
    EXPECT_NEAR(double(m.totalParamBytes()) / 1e9, c.bytes_gb,
                c.bytes_gb * 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    OptZoo, ModelSizes, ::testing::ValuesIn(kSizes),
    [](const ::testing::TestParamInfo<SizeCase> &info) {
        return info.param.name;
    });

TEST(ModelConfig, Opt66bDoesNotFitH100)
{
    // The reason FlexGen must offload (paper §3, case study 1).
    auto m = ModelConfig::opt66b();
    EXPECT_GT(m.totalParamBytes(), 80 * GiB);
}

TEST(ModelConfig, Opt30bFitsButDominatesH100)
{
    // 75% of GPU memory (paper §7.2).
    auto m = ModelConfig::opt30b();
    double frac = double(m.totalParamBytes()) / double(80 * GiB);
    EXPECT_GT(frac, 0.65);
    EXPECT_LT(frac, 0.80);
}

TEST(ModelConfig, Opt13bUsesAThirdOfH100)
{
    // ~32.5% of GPU memory (paper §7.2).
    auto m = ModelConfig::opt13b();
    double frac = double(m.totalParamBytes()) / double(80 * GiB);
    EXPECT_GT(frac, 0.28);
    EXPECT_LT(frac, 0.37);
}

TEST(ModelConfig, KvBytesPerToken)
{
    auto m = ModelConfig::opt30b();
    // 2 * hidden * 2 bytes * layers = 2*7168*2*48 ~ 1.38 MB/token.
    EXPECT_EQ(m.kvBytesPerTokenPerLayer(), 2 * 7168 * 2u);
    EXPECT_EQ(m.kvBytesPerToken(), 48u * 2 * 7168 * 2);
}

TEST(ModelConfig, LayerBytesAreSwapSized)
{
    // Layer parameter blocks are >> 128 KiB, the classifier threshold.
    for (auto make : {ModelConfig::opt13b, ModelConfig::opt30b,
                      ModelConfig::opt66b, ModelConfig::opt175bInt4}) {
        auto m = make();
        EXPECT_GT(m.layerParamBytes(), 128 * KiB) << m.name;
    }
}

TEST(ModelConfig, Int4HalvesQuarterWeights)
{
    auto fp16 = ModelConfig::opt175b();
    auto int4 = ModelConfig::opt175bInt4();
    EXPECT_NEAR(double(int4.layerParamBytes()) /
                    double(fp16.layerParamBytes()),
                0.25, 0.01);
    // KV cache stays fp16 in FlexGen's 4-bit config.
    EXPECT_EQ(int4.kvBytesPerTokenPerLayer(),
              fp16.kvBytesPerTokenPerLayer());
}

TEST(Dtype, Bytes)
{
    EXPECT_DOUBLE_EQ(dtypeBytes(Dtype::Fp16), 2.0);
    EXPECT_DOUBLE_EQ(dtypeBytes(Dtype::Int8), 1.0);
    EXPECT_DOUBLE_EQ(dtypeBytes(Dtype::Int4), 0.5);
    EXPECT_STREQ(toString(Dtype::Int4), "int4");
}

TEST(ModelConfigDeath, ValidateCatchesBadConfig)
{
    ModelConfig m;
    m.name = "broken";
    EXPECT_DEATH(m.validate(), "incomplete model config");
}

TEST(ModelConfig, LlamaZoo)
{
    // The 12h^2 layer approximation over-counts LLaMA slightly (its
    // MLP uses a gated ~8/3 expansion instead of 4x), so the derived
    // parameter totals land above the nameplate; sizes stay in the
    // right regime for swap planning.
    auto m7 = llm::ModelConfig::llama7b();
    auto m70 = llm::ModelConfig::llama70b();
    m7.validate();
    m70.validate();
    EXPECT_NEAR(double(m7.totalParams()) / 1e9, 7.0, 2.0);
    EXPECT_NEAR(double(m70.totalParams()) / 1e9, 70.0, 16.0);
    // 70B fp16 cannot fit an 80 GB GPU; 7B fits easily.
    EXPECT_GT(m70.totalParamBytes(), 80 * pipellm::GiB);
    EXPECT_LT(m7.totalParamBytes(), 20 * pipellm::GiB);
}
