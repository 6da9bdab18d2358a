/**
 * @file
 * Tests for the synthetic weight generator: determinism, layer
 * independence, and the distributional properties the experiments
 * rely on (Gaussian bulk, outlier census, hot-channel structure).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/outliers.hh"
#include "model/generate.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace gobo {
namespace {

TEST(FcLayerSpecs, CountAndOrder)
{
    auto cfg = fullConfig(ModelFamily::BertBase);
    auto specs = fcLayerSpecs(cfg);
    ASSERT_EQ(specs.size(), 73u);
    EXPECT_EQ(specs[0].name, "encoder0.query");
    EXPECT_EQ(specs[4].kind, FcKind::Intermediate);
    EXPECT_EQ(specs[4].rows, cfg.intermediate);
    EXPECT_EQ(specs[4].cols, cfg.hidden);
    EXPECT_EQ(specs[5].rows, cfg.hidden);
    EXPECT_EQ(specs[5].cols, cfg.intermediate);
    EXPECT_EQ(specs.back().kind, FcKind::Pooler);
}

TEST(LayerDistributionTest, DeterministicAndVaried)
{
    auto cfg = fullConfig(ModelFamily::BertBase);
    auto a = layerDistribution(cfg, FcKind::Query, 3);
    auto b = layerDistribution(cfg, FcKind::Query, 3);
    EXPECT_EQ(a.sigma, b.sigma);
    EXPECT_EQ(a.mean, b.mean);
    // Different layers get different parameters.
    auto c = layerDistribution(cfg, FcKind::Query, 7);
    EXPECT_NE(a.sigma, c.sigma);
    // Sigma stays in the plausible Fig. 1b range.
    for (std::size_t e = 0; e < cfg.numLayers; ++e) {
        for (auto kind : {FcKind::Query, FcKind::Key, FcKind::Value,
                          FcKind::AttnOutput, FcKind::Intermediate,
                          FcKind::Output}) {
            auto d = layerDistribution(cfg, kind, e);
            EXPECT_GT(d.sigma, 0.02);
            EXPECT_LT(d.sigma, 0.09);
            EXPECT_LT(std::abs(d.mean), 0.01);
        }
    }
}

TEST(LayerDistributionTest, RobertaSensitiveLayersHeavier)
{
    auto rob = fullConfig(ModelFamily::RoBerta);
    auto val_early = layerDistribution(rob, FcKind::Value, 1);
    auto val_late = layerDistribution(rob, FcKind::Value, 10);
    EXPECT_GT(val_early.heavyFraction, val_late.heavyFraction);
    auto bert = fullConfig(ModelFamily::BertBase);
    auto bert_val = layerDistribution(bert, FcKind::Value, 1);
    EXPECT_EQ(bert_val.heavyFraction, val_late.heavyFraction);
}

TEST(HotChannelMaskTest, QuarterOfHidden)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    auto mask = hotChannelMask(cfg, 42);
    ASSERT_EQ(mask.size(), cfg.hidden);
    std::size_t hot = 0;
    for (auto m : mask)
        hot += m;
    EXPECT_EQ(hot, cfg.hidden / 4);
    // Deterministic in (config, seed).
    EXPECT_EQ(mask, hotChannelMask(cfg, 42));
    EXPECT_NE(mask, hotChannelMask(cfg, 43));
}

TEST(HotInnerMaskTest, QuarterOfIntermediate)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    auto mask = hotInnerMask(cfg, 42);
    ASSERT_EQ(mask.size(), cfg.intermediate);
    std::size_t hot = 0;
    for (auto m : mask)
        hot += m;
    EXPECT_EQ(hot, cfg.intermediate / 4);
}

TEST(GenerateFcWeight, DeterministicPerLayer)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    auto specs = fcLayerSpecs(cfg);
    Tensor a = generateFcWeight(cfg, specs[10], 42);
    Tensor b = generateFcWeight(cfg, specs[10], 42);
    EXPECT_EQ(a.data(), b.data());
    Tensor c = generateFcWeight(cfg, specs[10], 43);
    EXPECT_NE(a.data(), c.data());
    Tensor d = generateFcWeight(cfg, specs[11], 42);
    EXPECT_NE(a.data(), d.data());
}

TEST(GenerateFcWeight, MatchesGeneratedModelLayers)
{
    // The streaming generator and the whole-model generator must
    // produce identical weights for the same (config, seed).
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 77);
    auto refs = m.fcLayers();
    auto specs = fcLayerSpecs(cfg);
    ASSERT_EQ(refs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Tensor w = generateFcWeight(cfg, specs[i], 77);
        EXPECT_EQ(w.data(), refs[i].weight->data()) << specs[i].name;
    }
}

TEST(GenerateFcWeight, GaussianBulkMatchesDistribution)
{
    auto cfg = fullConfig(ModelFamily::BertBase);
    auto specs = fcLayerSpecs(cfg);
    const auto &spec = specs[4]; // encoder0.intermediate
    auto dist = layerDistribution(cfg, spec.kind, spec.encoder);
    Tensor w = generateFcWeight(cfg, spec, 42);
    // Fitted sigma is close to (slightly below, due to narrow hot
    // columns) the configured sigma.
    double sd = stddev(w.flat());
    EXPECT_GT(sd, dist.sigma * 0.7);
    EXPECT_LT(sd, dist.sigma * 1.2);
}

TEST(GenerateFcWeight, OutlierCensusInPaperRange)
{
    auto cfg = fullConfig(ModelFamily::BertBase);
    auto specs = fcLayerSpecs(cfg);
    // Non-pooler layers: detected outliers between ~0.02% and ~0.5%.
    for (std::size_t i : {std::size_t{0}, std::size_t{16},
                          std::size_t{40}, std::size_t{65}}) {
        Tensor w = generateFcWeight(cfg, specs[i], 42);
        auto split = splitOutliers(w.flat(), -4.0);
        EXPECT_GT(split.outlierFraction(), 0.0001) << specs[i].name;
        EXPECT_LT(split.outlierFraction(), 0.006) << specs[i].name;
    }
    // The pooler (last layer of Fig. 3) runs just under 1%.
    Tensor pooler = generateFcWeight(cfg, specs.back(), 42);
    auto split = splitOutliers(pooler.flat(), -4.0);
    EXPECT_GT(split.outlierFraction(), 0.004);
    EXPECT_LT(split.outlierFraction(), 0.013);
}

TEST(GenerateFcWeight, HotColumnsAreNarrow)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    auto specs = fcLayerSpecs(cfg);
    const auto &spec = specs[0]; // encoder0.query reads residual stream
    Tensor w = generateFcWeight(cfg, spec, 42);
    auto mask = hotChannelMask(cfg, 42);
    RunningStats hot, cold;
    for (std::size_t r = 0; r < w.rows(); ++r) {
        for (std::size_t c = 0; c < w.cols(); ++c) {
            (mask[c] ? hot : cold).add(w(r, c));
        }
    }
    // Hot columns carry roughly half the sigma of cold ones.
    EXPECT_LT(hot.stddev(), cold.stddev() * 0.7);
}

TEST(GenerateWordEmbedding, SpikesOnlyOnHotChannels)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    Tensor emb = generateWordEmbedding(cfg, 42);
    auto mask = hotChannelMask(cfg, 42);
    double sigma = stddev(emb.flat());
    std::size_t spikes = 0, cold_spikes = 0;
    for (std::size_t r = 0; r < emb.rows(); ++r) {
        for (std::size_t c = 0; c < emb.cols(); ++c) {
            if (std::abs(emb(r, c)) > 8.0 * sigma) {
                ++spikes;
                cold_spikes += mask[c] ? 0 : 1;
            }
        }
    }
    // The 8-sigma cut (sigma measured over the spiked table, so ~2x
    // the base scale) still catches a large share of the injected
    // spikes, and no cold-channel value reaches it.
    EXPECT_GT(spikes, emb.rows() / 4);
    EXPECT_EQ(cold_spikes, 0u);
}

TEST(GenerateModel, DeterministicEndToEnd)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel a = generateModel(cfg, 1);
    BertModel b = generateModel(cfg, 1);
    EXPECT_EQ(a.wordEmbedding.data(), b.wordEmbedding.data());
    EXPECT_EQ(a.encoders[3].interW.data(), b.encoders[3].interW.data());
    EXPECT_EQ(a.poolerB.data(), b.poolerB.data());
}

/** FNV-1a over the float bits of every tensor except the task head. */
std::uint64_t
bodyDigest(const BertModel &m)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&](const Tensor &t) {
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(t.data().data());
        for (std::size_t i = 0; i < t.size() * sizeof(float); ++i)
            h = (h ^ bytes[i]) * 0x100000001b3ULL;
    };
    for (const auto &fc : m.fcLayers())
        fold(*fc.weight);
    for (const Tensor *t : {&m.wordEmbedding, &m.positionEmbedding,
                            &m.embLnGamma, &m.embLnBeta, &m.poolerB})
        fold(*t);
    for (const auto &enc : m.encoders)
        for (const Tensor *t :
             {&enc.queryB, &enc.keyB, &enc.valueB, &enc.attnOutB,
              &enc.attnLnGamma, &enc.attnLnBeta, &enc.interB, &enc.outB,
              &enc.outLnGamma, &enc.outLnBeta})
            fold(*t);
    return h;
}

TEST(GenerateModel, HeadIsDrawnWithoutMovingOtherTensors)
{
    BertModel m = generateModel(miniConfig(ModelFamily::BertBase), 42);
    // A nonzero head makes `gobo infer` logits (and every smoke that
    // diffs them) able to differ.
    std::size_t nonzero = 0;
    for (float v : m.headW.flat())
        nonzero += v != 0.0f;
    EXPECT_GT(nonzero, m.headW.size() / 2);
    EXPECT_NE(m.headB(0), 0.0f);
    // The head has its own stream: every other tensor is byte-identical
    // to the generator before the head was drawn.
    EXPECT_EQ(bodyDigest(m), 0x8e3029654614333fULL);
}

TEST(GenerateModel, GammaSpikesOnHotChannels)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel m = generateModel(cfg, 42);
    auto mask = hotChannelMask(cfg, 42);
    for (std::size_t d = 0; d < mask.size(); ++d) {
        float g = m.encoders[0].attnLnGamma(d);
        if (mask[d]) {
            EXPECT_GE(g, 2.5f);
        } else {
            EXPECT_LT(g, 1.5f);
        }
    }
}

} // namespace
} // namespace gobo
