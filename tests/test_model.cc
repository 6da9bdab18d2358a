/**
 * @file
 * Tests for model configurations, parameter store and footprint
 * accounting. The constants checked here are the paper's Table I and
 * Table II values.
 */

#include <gtest/gtest.h>

#include "model/config.hh"
#include "model/footprint.hh"
#include "model/model.hh"
#include "util/logging.hh"

namespace gobo {
namespace {

TEST(ModelConfigTest, BertBaseTableI)
{
    auto c = fullConfig(ModelFamily::BertBase);
    EXPECT_EQ(c.numLayers, 12u);
    EXPECT_EQ(c.hidden, 768u);
    EXPECT_EQ(c.intermediate, 3072u);
    EXPECT_EQ(c.numFcLayers(), 73u); // 12*6 + pooler, as in Fig. 3
    EXPECT_EQ(c.headDim(), 64u);
    // 12*(4*768^2 + 2*768*3072) + 768^2 = 85,524,480 weights.
    EXPECT_EQ(c.fcWeightParams(), 85524480u);
}

TEST(ModelConfigTest, BertLargeTableI)
{
    auto c = fullConfig(ModelFamily::BertLarge);
    EXPECT_EQ(c.numLayers, 24u);
    EXPECT_EQ(c.hidden, 1024u);
    EXPECT_EQ(c.intermediate, 4096u);
    EXPECT_EQ(c.numFcLayers(), 145u); // 24*6 + pooler
    EXPECT_EQ(c.fcWeightParams(), 303038464u);
}

TEST(ModelConfigTest, FamilyNames)
{
    EXPECT_EQ(familyName(ModelFamily::BertBase), "BERT-Base");
    EXPECT_EQ(familyName(ModelFamily::RoBertaLarge), "RoBERTa-Large");
    EXPECT_EQ(fcKindName(FcKind::Intermediate), "intermediate");
    EXPECT_EQ(allFamilies().size(), 5u);
}

TEST(ModelConfigTest, MiniConfigsValid)
{
    for (auto family : allFamilies()) {
        auto mini = miniConfig(family);
        auto full = fullConfig(family);
        EXPECT_EQ(mini.numLayers, full.numLayers)
            << mini.name << ": mini keeps the layer count";
        EXPECT_LT(mini.hidden, full.hidden);
        EXPECT_EQ(mini.numFcLayers(), full.numFcLayers());
        EXPECT_NO_THROW(mini.check());
    }
}

TEST(ModelConfigTest, CheckRejectsBadConfigs)
{
    auto c = fullConfig(ModelFamily::BertBase);
    c.numHeads = 7; // 768 % 7 != 0
    EXPECT_THROW(c.check(), FatalError);
    c = fullConfig(ModelFamily::BertBase);
    c.numLayers = 0;
    EXPECT_THROW(c.check(), FatalError);
}

TEST(FootprintTest, BertBaseTableII)
{
    auto f = footprint(fullConfig(ModelFamily::BertBase));
    // Paper Table II: embeddings 89.42 MB, weights 326.26 MB, input
    // per word 3 KB, largest act per word 12 KB, activations 1.5 MB.
    EXPECT_NEAR(toMiB(f.embeddingBytes), 89.42, 0.01);
    EXPECT_NEAR(toMiB(f.weightBytes), 326.25, 0.05);
    EXPECT_NEAR(toKiB(f.inputPerWordBytes), 3.0, 0.01);
    EXPECT_NEAR(toKiB(f.largestActPerWordBytes), 12.0, 0.01);
    EXPECT_EQ(f.sequenceLength, 128u);
    EXPECT_NEAR(toMiB(f.activationBytes), 1.5, 0.01);
}

TEST(FootprintTest, BertLargeTableII)
{
    auto f = footprint(fullConfig(ModelFamily::BertLarge));
    EXPECT_NEAR(toMiB(f.embeddingBytes), 119.22, 0.01);
    EXPECT_NEAR(toMiB(f.weightBytes) / 1024.0, 1.12, 0.02); // 1.12 GB
    EXPECT_NEAR(toKiB(f.inputPerWordBytes), 4.0, 0.01);
    EXPECT_NEAR(toKiB(f.largestActPerWordBytes), 16.0, 0.01);
    EXPECT_NEAR(toMiB(f.activationBytes), 2.0, 0.01);
}

TEST(FootprintTest, EmbeddingSizesTableVII)
{
    // Paper Table VII baseline column (MiB of the word table).
    EXPECT_NEAR(toMiB(footprint(fullConfig(ModelFamily::BertBase))
                          .embeddingBytes),
                89.42, 0.01);
    EXPECT_NEAR(toMiB(footprint(fullConfig(ModelFamily::DistilBert))
                          .embeddingBytes),
                89.42, 0.01);
    EXPECT_NEAR(toMiB(footprint(fullConfig(ModelFamily::RoBerta))
                          .embeddingBytes),
                147.26, 0.01);
    EXPECT_NEAR(toMiB(footprint(fullConfig(ModelFamily::RoBertaLarge))
                          .embeddingBytes),
                196.34, 0.01);
}

TEST(BertModelTest, AllocatesConfiguredShapes)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel m(cfg);
    EXPECT_EQ(m.encoders.size(), cfg.numLayers);
    EXPECT_EQ(m.wordEmbedding.rows(), cfg.vocabSize);
    EXPECT_EQ(m.wordEmbedding.cols(), cfg.hidden);
    EXPECT_EQ(m.encoders[0].interW.rows(), cfg.intermediate);
    EXPECT_EQ(m.encoders[0].interW.cols(), cfg.hidden);
    EXPECT_EQ(m.encoders[0].outW.rows(), cfg.hidden);
    EXPECT_EQ(m.encoders[0].outW.cols(), cfg.intermediate);
    EXPECT_EQ(m.poolerW.rows(), cfg.hidden);
}

TEST(BertModelTest, LayerNormGammaStartsAtOne)
{
    BertModel m(miniConfig(ModelFamily::DistilBert));
    EXPECT_EQ(m.embLnGamma(0), 1.0f);
    EXPECT_EQ(m.encoders[0].attnLnGamma(0), 1.0f);
    EXPECT_EQ(m.encoders[0].outLnGamma(0), 1.0f);
}

TEST(BertModelTest, FcLayerEnumerationOrder)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m(cfg);
    auto layers = m.fcLayers();
    ASSERT_EQ(layers.size(), cfg.numFcLayers());
    EXPECT_EQ(layers[0].name, "encoder0.query");
    EXPECT_EQ(layers[0].kind, FcKind::Query);
    EXPECT_EQ(layers[5].name, "encoder0.output");
    EXPECT_EQ(layers[6].name, "encoder1.query");
    EXPECT_EQ(layers.back().name, "pooler");
    EXPECT_EQ(layers.back().kind, FcKind::Pooler);
    EXPECT_EQ(layers.back().encoder, cfg.numLayers);
    // The refs point into the model.
    layers[0].weight->fill(2.5f);
    EXPECT_EQ(m.encoders[0].queryW(0, 0), 2.5f);
}

TEST(BertModelTest, ConstEnumerationMatches)
{
    const BertModel m(miniConfig(ModelFamily::DistilBert));
    auto layers = m.fcLayers();
    EXPECT_EQ(layers.size(), m.config().numFcLayers());
    EXPECT_EQ(layers[2].name, "encoder0.value");
}

TEST(BertModelTest, ResizeHead)
{
    BertModel m(miniConfig(ModelFamily::BertBase));
    m.resizeHead(3);
    EXPECT_EQ(m.headW.rows(), 3u);
    EXPECT_EQ(m.headW.cols(), m.config().hidden);
    EXPECT_EQ(m.headB.size(), 3u);
    EXPECT_THROW(m.resizeHead(0), FatalError);
}

TEST(BertModelTest, ParametersListEveryTensorWithItsShape)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m(cfg);
    m.resizeHead(3);
    auto params = m.parameters();
    ASSERT_EQ(params.size(), 4 + 16 * cfg.numLayers + 4);
    std::size_t fc = 0;
    for (const auto &p : params) {
        EXPECT_EQ(ParamShape::of(*p.tensor), p.shape) << p.name;
        fc += p.fcWeight;
    }
    EXPECT_EQ(fc, cfg.numFcLayers());
    EXPECT_EQ(params[0].name, "word_embedding");
    EXPECT_EQ(params[4].name, "encoder0.query");
    EXPECT_EQ(params[5].name, "encoder0.query.bias");
    EXPECT_EQ(params.back().shape, (ParamShape{3, 0}));
    EXPECT_THROW(checkParamShape("x", {4, 2}, {2, 4}), FatalError);
}

TEST(BertModelTest, ParameterCountConsistent)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m(cfg);
    // At least all FC weights + embeddings are in there.
    EXPECT_GT(m.parameterCount(),
              cfg.fcWeightParams() + cfg.wordEmbeddingParams());
}

} // namespace
} // namespace gobo
