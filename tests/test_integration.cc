/**
 * @file
 * Cross-module integration tests: the full generate -> task -> save ->
 * load -> quantize -> infer pipeline, end to end.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/q8bert.hh"
#include "baselines/qbert.hh"
#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "memsim/memsim.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "nn/encoder.hh"
#include "task/task.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

TEST(Integration, QuantizeSerializedModelAndInfer)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 201);
    auto spec = defaultSpec(TaskKind::MnliLike, 201);
    spec.numExamples = 120;
    spec.seqLen = 8;
    Dataset data = buildTask(model, spec);

    // Persist and reload the fine-tuned model.
    std::stringstream ss;
    saveModel(ss, model);
    BertModel reloaded = loadModel(ss);
    double baseline = evaluate(model, data);
    EXPECT_EQ(evaluate(reloaded, data), baseline);

    // Quantize the reloaded model and check graceful degradation.
    ModelQuantOptions opt;
    opt.base.bits = 4;
    opt.embeddingBits = 4;
    auto report = quantizeModelInPlace(reloaded, opt);
    EXPECT_GT(report.totalCompressionRatio(), 6.5);
    double quantized_score = evaluate(reloaded, data);
    EXPECT_GT(quantized_score, baseline - 0.08);
}

TEST(Integration, DegenerateLayerSurvivesFullPipelineBothFormats)
{
    // A layer with fewer distinct weights than 2^B dedupes its
    // centroid table below 2^B entries. That degenerate shape must
    // survive quantize -> serialize -> load -> packed forward with
    // correct output. (The name predates the single weight format.)
    Tensor w(12, 10);
    auto flat = w.flat();
    for (std::size_t i = 0; i < flat.size(); ++i)
        flat[i] = (i % 3 == 0) ? 0.25f : -0.125f; // 2 distinct values
    GoboConfig cfg;
    cfg.bits = 3;
    auto q = quantizeTensor(w, cfg);
    EXPECT_LT(q.centroids.size(), std::size_t{1} << 3);

    std::stringstream ss;
    q.save(ss);
    QuantizedTensor loaded = QuantizedTensor::load(ss);

    // The deduped table must reconstruct the layer exactly: with only
    // two distinct values the centroids land on them.
    Tensor decoded = loaded.dequantize();
    for (std::size_t i = 0; i < flat.size(); ++i)
        EXPECT_EQ(decoded.flat()[i], flat[i]);

    Tensor bias(12);
    Rng rng(219);
    rng.fillGaussian(bias.data(), 0.0, 0.1);
    QuantizedLinear packed(loaded, bias);
    Tensor x(3, 10);
    rng.fillGaussian(x.data(), 0.0, 1.0);
    Tensor want = linear(x, decoded, bias);
    EXPECT_LT(relativeError(want, packed.forward(x)), 1e-6);
}

TEST(Integration, DecodedModelIsPlugInCompatible)
{
    // The decoded (dequantized) model must run through the unmodified
    // FP32 engine and produce finite, close outputs.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 203);
    std::vector<std::int32_t> ids{1, 2, 3, 4, 5, 6, 7, 8};
    Tensor before = encodeSequence(model, ids);

    ModelQuantOptions opt;
    opt.base.bits = 5;
    quantizeModelInPlace(model, opt);
    Tensor after = encodeSequence(model, ids);

    ASSERT_EQ(before.size(), after.size());
    EXPECT_LT(relativeError(before, after), 0.35);
}

TEST(Integration, MethodOrderingOnSmallModel)
{
    // GOBO's centroid selection must reconstruct the weights at least
    // as well as Linear at 3 bits on every generated layer (measured
    // as the G-group L1, its objective).
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 207);
    for (auto &layer : model.fcLayers()) {
        GoboConfig gobo_cfg, lin_cfg;
        gobo_cfg.bits = 3;
        lin_cfg.bits = 3;
        lin_cfg.method = CentroidMethod::Linear;
        LayerQuantStats gobo_stats, lin_stats;
        quantizeTensor(*layer.weight, gobo_cfg, &gobo_stats);
        quantizeTensor(*layer.weight, lin_cfg, &lin_stats);
        EXPECT_LE(gobo_stats.finalL1, lin_stats.finalL1 * 1.0001)
            << layer.name;
    }
}

TEST(Integration, CompressionRatiosOrderedAcrossMethods)
{
    // Full pipeline CR ordering on one mini model: GOBO 3b compresses
    // harder than Q-BERT 3b (8-bit embeddings) which beats Q8BERT.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel a = generateModel(cfg, 209);
    BertModel b = generateModel(cfg, 209);
    BertModel c = generateModel(cfg, 209);

    ModelQuantOptions gobo_opt;
    gobo_opt.base.bits = 3;
    gobo_opt.embeddingBits = 4;
    auto gobo_report = quantizeModelInPlace(a, gobo_opt);
    auto qbert_report = qbertQuantizeModelInPlace(b, 3, 16);
    auto q8_report = q8bertQuantizeModelInPlace(c);

    EXPECT_GT(gobo_report.totalCompressionRatio(),
              qbert_report.totalCompressionRatio());
    EXPECT_GT(qbert_report.totalCompressionRatio(),
              q8_report.totalCompressionRatio());
}

TEST(Integration, MemsimConsumesQuantizerOutput)
{
    auto cfg = fullConfig(ModelFamily::BertBase);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;
    // Use the streaming driver so no full-size model is materialized.
    auto report = quantizeConfigStreaming(miniConfig(ModelFamily::BertBase),
                                          211, opt);
    MemParams params;
    auto fp32 = estimate(inferenceCost(cfg, 128), params);
    auto comp = estimate(inferenceCost(cfg, 128,
                                       report.weightCompressionRatio(),
                                       report.embeddingCompressionRatio()),
                         params);
    EXPECT_GT(fp32.latencyMs / comp.latencyMs, 3.0);
    EXPECT_GT(fp32.totalEnergyMicroJ / comp.totalEnergyMicroJ, 2.0);
}

TEST(Integration, QuantizedTensorFileRoundtripThroughDequantize)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    auto specs = fcLayerSpecs(cfg);
    Tensor w = generateFcWeight(cfg, specs[7], 213);
    GoboConfig qcfg;
    qcfg.bits = 3;
    auto q = quantizeTensor(w, qcfg);

    std::stringstream ss;
    q.save(ss);
    auto back = QuantizedTensor::load(ss);
    EXPECT_EQ(q.dequantize().data(), back.dequantize().data());
    // On-disk cost is within a byte of the in-memory accounting.
    EXPECT_NEAR(static_cast<double>(ss.str().size()),
                static_cast<double>(q.payloadBytes()), 120.0);
}

} // namespace
} // namespace gobo
