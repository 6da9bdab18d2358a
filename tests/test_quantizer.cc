/**
 * @file
 * Tests for the layer- and model-level quantization drivers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/quantizer.hh"
#include "model/generate.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

Tensor
gaussianTensor(std::size_t r, std::size_t c, std::uint64_t seed,
               double sigma = 0.05)
{
    Rng rng(seed);
    std::vector<float> data(r * c);
    rng.fillGaussian(data, 0.0, sigma);
    return Tensor(r, c, std::move(data));
}

TEST(QuantizeTensor, ReportsStats)
{
    GoboConfig cfg;
    cfg.bits = 3;
    LayerQuantStats stats;
    Tensor w = gaussianTensor(64, 64, 11);
    auto q = quantizeTensor(w, cfg, &stats);
    EXPECT_EQ(stats.weightCount, 4096u);
    EXPECT_NEAR(stats.sigma, 0.05, 0.01);
    EXPECT_NEAR(stats.mean, 0.0, 0.01);
    EXPECT_EQ(stats.outlierCount, q.outlierPositions.size());
    EXPECT_GT(stats.finalL1, 0.0);
    EXPECT_GE(stats.iterations, 1u);
}

TEST(QuantizeTensor, ReconstructionErrorSmall)
{
    GoboConfig cfg;
    cfg.bits = 4;
    Tensor w = gaussianTensor(64, 64, 13);
    auto q = quantizeTensor(w, cfg);
    double err = relativeError(w, q.dequantize());
    // 16 distribution-aware centroids on a Gaussian: ~10% relative L2.
    EXPECT_LT(err, 0.12);
}

TEST(QuantizeTensor, ErrorShrinksWithBits)
{
    Tensor w = gaussianTensor(96, 96, 17);
    double prev = 1e30;
    for (unsigned bits : {2u, 3u, 4u, 5u, 6u}) {
        GoboConfig cfg;
        cfg.bits = bits;
        auto q = quantizeTensor(w, cfg);
        double err = relativeError(w, q.dequantize());
        EXPECT_LT(err, prev);
        prev = err;
    }
}

TEST(QuantizeTensor, OutliersSurviveExactly)
{
    // Plant huge weights; they must come back bit-exact.
    Tensor w = gaussianTensor(32, 32, 19);
    w(0, 0) = 0.77f;
    w(15, 20) = -0.91f;
    GoboConfig cfg;
    cfg.bits = 3;
    auto q = quantizeTensor(w, cfg);
    Tensor t = q.dequantize();
    EXPECT_EQ(t(0, 0), 0.77f);
    EXPECT_EQ(t(15, 20), -0.91f);
}

TEST(QuantizeTensor, NoOutlierModeQuantizesEverything)
{
    Tensor w = gaussianTensor(32, 32, 23);
    w(3, 3) = 0.9f; // would be an outlier
    GoboConfig cfg;
    cfg.bits = 3;
    cfg.detectOutliers = false;
    auto q = quantizeTensor(w, cfg);
    EXPECT_TRUE(q.outlierPositions.empty());
    Tensor t = q.dequantize();
    EXPECT_NE(t(3, 3), 0.9f); // quantized away
}

TEST(QuantizeTensor, NoOutlierModeHurtsReconstruction)
{
    Tensor w = gaussianTensor(64, 64, 29);
    // Plant a heavy far tail.
    for (int i = 0; i < 30; ++i)
        w(i, i) = (i % 2 ? 0.6f : -0.6f);
    GoboConfig with, without;
    with.bits = 3;
    without.bits = 3;
    without.detectOutliers = false;
    double err_with = relativeError(w, quantizeTensor(w, with)
                                           .dequantize());
    double err_without = relativeError(w, quantizeTensor(w, without)
                                              .dequantize());
    EXPECT_LT(err_with, err_without);
}

TEST(QuantizeTensor, ThresholdControlsOutlierCount)
{
    Tensor w = gaussianTensor(64, 64, 31);
    GoboConfig strict, loose;
    strict.bits = 3;
    strict.outlierThreshold = -6.0;
    loose.bits = 3;
    loose.outlierThreshold = -3.0;
    auto qs = quantizeTensor(w, strict);
    auto ql = quantizeTensor(w, loose);
    EXPECT_LE(qs.outlierPositions.size(), ql.outlierPositions.size());
}

TEST(QuantizeTensor, RejectsBadConfig)
{
    Tensor w = gaussianTensor(8, 8, 37);
    GoboConfig cfg;
    cfg.bits = 0;
    EXPECT_THROW(quantizeTensor(w, cfg), FatalError);
    cfg.bits = 9;
    EXPECT_THROW(quantizeTensor(w, cfg), FatalError);
}

TEST(QuantizeTensor, NonFiniteWeightsRejectedBeforeClustering)
{
    // The Gaussian fit sees every weight first, so a NaN or Inf never
    // reaches the clusterer's sort.
    for (float bad : {std::nanf(""), INFINITY, -INFINITY}) {
        for (bool detect : {true, false}) {
            Tensor w = gaussianTensor(16, 16, 41);
            w.data()[37] = bad;
            GoboConfig cfg;
            cfg.detectOutliers = detect;
            try {
                quantizeTensor(w, cfg);
                ADD_FAILURE() << "accepted " << bad;
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "GaussianFit needs sigma > 0"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(ModelQuantOptionsTest, EffectiveBits)
{
    ModelQuantOptions opt;
    opt.base.bits = 3;
    EXPECT_EQ(opt.effectiveBits(FcKind::Query, 0), 3u);
    opt.bitsFor = mixedPolicy(6, 3, 4);
    EXPECT_EQ(opt.effectiveBits(FcKind::Value, 2), 4u);
    EXPECT_EQ(opt.effectiveBits(FcKind::Intermediate, 5), 4u);
    EXPECT_EQ(opt.effectiveBits(FcKind::Value, 6), 3u);
    EXPECT_EQ(opt.effectiveBits(FcKind::Query, 2), 3u);
    opt.bitsFor = [](FcKind, std::size_t) { return 0u; };
    EXPECT_THROW(opt.effectiveBits(FcKind::Query, 0), FatalError);
}

TEST(QuantizeModelInPlace, ReplacesAllFcWeights)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 5);
    BertModel original = model;

    ModelQuantOptions opt;
    opt.base.bits = 3;
    auto report = quantizeModelInPlace(model, opt);

    EXPECT_EQ(report.layers.size(), cfg.numFcLayers());
    EXPECT_EQ(report.weightOriginalBytes,
              cfg.fcWeightParams() * sizeof(float));
    EXPECT_GT(report.weightCompressionRatio(), 9.0);
    // Weights changed but shapes survive and the change is small.
    auto orig_layers = original.fcLayers();
    auto new_layers = model.fcLayers();
    for (std::size_t i = 0; i < orig_layers.size(); ++i) {
        EXPECT_EQ(orig_layers[i].weight->rows(),
                  new_layers[i].weight->rows());
        double err = relativeError(*orig_layers[i].weight,
                                   *new_layers[i].weight);
        EXPECT_GT(err, 0.0);
        EXPECT_LT(err, 0.4);
    }
    // Embeddings untouched at embeddingBits = 0.
    EXPECT_EQ(model.wordEmbedding.data(), original.wordEmbedding.data());
    EXPECT_EQ(report.embeddingPayloadBytes,
              report.embeddingOriginalBytes);
}

TEST(QuantizeModelInPlace, EmbeddingQuantization)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 7);
    Tensor original_emb = model.wordEmbedding;

    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;
    auto report = quantizeModelInPlace(model, opt);
    EXPECT_LT(report.embeddingPayloadBytes,
              report.embeddingOriginalBytes / 6);
    EXPECT_GT(report.embeddingCompressionRatio(), 6.0);
    EXPECT_GT(relativeError(original_emb, model.wordEmbedding), 0.0);
}

TEST(QuantizeModelInPlace, MixedPolicySpendsMoreBitsOnSensitiveLayers)
{
    auto cfg = miniConfig(ModelFamily::RoBerta);
    BertModel model = generateModel(cfg, 9);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.bitsFor = mixedPolicy(cfg.numLayers / 2, 3, 4);
    auto report = quantizeModelInPlace(model, opt);
    for (const auto &entry : report.layers) {
        bool sensitive = (entry.kind == FcKind::Value
                          || entry.kind == FcKind::Intermediate)
                         && entry.encoder < cfg.numLayers / 2;
        EXPECT_EQ(entry.bits, sensitive ? 4u : 3u) << entry.name;
    }
}

TEST(QuantizeConfigStreaming, MatchesInPlaceAccounting)
{
    // The streaming driver and the in-place driver must agree exactly
    // on the compressed sizes for the same config and seed.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;

    auto streaming = quantizeConfigStreaming(cfg, 21, opt);
    BertModel model = generateModel(cfg, 21);
    auto in_place = quantizeModelInPlace(model, opt);

    EXPECT_EQ(streaming.weightOriginalBytes, in_place.weightOriginalBytes);
    EXPECT_EQ(streaming.weightPayloadBytes, in_place.weightPayloadBytes);
    EXPECT_EQ(streaming.embeddingPayloadBytes,
              in_place.embeddingPayloadBytes);
    ASSERT_EQ(streaming.layers.size(), in_place.layers.size());
    for (std::size_t i = 0; i < streaming.layers.size(); ++i) {
        EXPECT_EQ(streaming.layers[i].payloadBytes,
                  in_place.layers[i].payloadBytes)
            << streaming.layers[i].name;
        EXPECT_EQ(streaming.layers[i].stats.outlierCount,
                  in_place.layers[i].stats.outlierCount);
    }
}

TEST(ModelQuantReportTest, RatioArithmetic)
{
    ModelQuantReport r;
    r.weightOriginalBytes = 3200;
    r.weightPayloadBytes = 320;
    r.embeddingOriginalBytes = 800;
    r.embeddingPayloadBytes = 100;
    EXPECT_DOUBLE_EQ(r.weightCompressionRatio(), 10.0);
    EXPECT_DOUBLE_EQ(r.embeddingCompressionRatio(), 8.0);
    EXPECT_DOUBLE_EQ(r.totalCompressionRatio(), 4000.0 / 420.0);
}

} // namespace
} // namespace gobo
