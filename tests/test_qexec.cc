/**
 * @file
 * Tests for compressed-domain execution: QuantizedLinear must agree
 * with the dense FP32 layer over the decoded weights (same arithmetic,
 * different association), and QuantizedBertModel must agree with the
 * FP32 engine running the decoded model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "core/qexec.hh"
#include "model/generate.hh"
#include "nn/encoder.hh"
#include "task/task.hh"
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

QuantizedLinear
makeQL(std::size_t out, std::size_t in, unsigned bits,
       std::uint64_t seed)
{
    Tensor w = gaussianTensor(out, in, seed);
    // Plant a couple of outliers so the correction path is exercised.
    w(0, 1) = 0.8f;
    w(out - 1, in - 1) = -0.75f;
    Tensor b(out);
    Rng rng(seed + 1);
    for (auto &v : b.flat())
        v = static_cast<float>(rng.gaussian(0.0, 0.02));
    GoboConfig cfg;
    cfg.bits = bits;
    return {quantizeTensor(w, cfg), std::move(b)};
}

TEST(QuantizedLinearTest, MatchesDecodedDenseLayer)
{
    auto ql = makeQL(24, 40, 3, 401);
    Tensor x = gaussianTensor(5, 40, 402, 1.0);

    Tensor w = ql.compressed().dequantize();
    Tensor zero_bias(24);
    QuantizedLinear ql2(ql.compressed(), zero_bias);
    Tensor got = ql2.forward(x);
    Tensor want = linear(x, w, zero_bias);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_LT(relativeError(want, got), 1e-5);
}

TEST(QuantizedLinearTest, OutlierCorrectionsApplied)
{
    // Without the correction path, the planted 0.8 outlier would be
    // replaced by a centroid (<0.3) and the first output would be off
    // by ~0.5 * x[1].
    auto ql = makeQL(8, 16, 3, 405);
    Tensor x(1, 16);
    x.fill(0.0f);
    x(0, 1) = 1.0f;
    Tensor y = ql.forward(x);
    Tensor w = ql.compressed().dequantize();
    EXPECT_EQ(w(0, 1), 0.8f);
    // y[0] = bias[0] + w(0,1); verify the 0.8 really flowed through.
    Tensor zero_bias(8);
    QuantizedLinear ql2(ql.compressed(), zero_bias);
    Tensor y2 = ql2.forward(x);
    EXPECT_NEAR(y2(0, 0), 0.8f, 1e-6);
}

TEST(QuantizedLinearTest, OpCountsReflectCentroidScheme)
{
    auto ql = makeQL(64, 64, 3, 407);
    auto ops = ql.opCounts(10);
    auto dense = ql.denseOpCounts(10);
    // Multiplications collapse from in (64) to 2^3 per output (plus
    // outlier corrections).
    EXPECT_LT(ops.multiplications, dense.multiplications / 4);
    EXPECT_GE(ops.additions, dense.additions); // adds stay ~the same
    std::size_t n_out = ql.compressed().outlierPositions.size();
    EXPECT_EQ(ops.multiplications, 10u * (64u * 8u + n_out));
}

TEST(QuantizedLinearTest, RejectsBadShapes)
{
    auto ql = makeQL(8, 16, 3, 409);
    Tensor wrong(2, 8);
    EXPECT_THROW(ql.forward(wrong), FatalError);
    Tensor w = gaussianTensor(8, 16, 411);
    GoboConfig cfg;
    cfg.bits = 3;
    auto q = quantizeTensor(w, cfg);
    Tensor bad_bias(7);
    EXPECT_THROW(QuantizedLinear(q, bad_bias), FatalError);
}

class QexecBits : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(QexecBits, ForwardEquivalenceAcrossWidths)
{
    unsigned bits = GetParam();
    auto ql = makeQL(32, 48, bits, 431 + bits);
    Tensor zero_bias(32);
    QuantizedLinear ql2(ql.compressed(), zero_bias);
    Tensor x = gaussianTensor(7, 48, 433, 2.0);
    Tensor got = ql2.forward(x);
    Tensor want = linear(x, ql.compressed().dequantize(), zero_bias);
    EXPECT_LT(relativeError(want, got), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Widths, QexecBits,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(QuantizedLinearTest, ResidentBytesMatchFormat)
{
    auto ql = makeQL(32, 64, 3, 467);
    const auto &q = ql.compressed();
    std::size_t table_and_outliers =
        q.centroids.size() * sizeof(float)
        + q.outlierPositions.size()
              * (sizeof(std::uint32_t) + sizeof(float));
    // The 3-bit stream itself, plus the table and outlier pairs.
    EXPECT_EQ(ql.residentBytes(),
              (q.elementCount() * 3 + 7) / 8 + table_and_outliers);
    // That is ~B/32 of FP32 plus the small table/outlier tail.
    double fp32 = static_cast<double>(q.originalBytes());
    EXPECT_LT(static_cast<double>(ql.residentBytes()),
              fp32 * (3.0 / 32.0) + 2.0 * table_and_outliers);
}

TEST(QuantizedBertModelTest, MatchesDecodedModelPredictions)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 421);
    auto spec = defaultSpec(TaskKind::MnliLike, 421);
    spec.numExamples = 60;
    spec.seqLen = 8;
    Dataset data = buildTask(model, spec);

    ModelQuantOptions options;
    options.base.bits = 3;
    options.embeddingBits = 4;

    QuantizedBertModel qmodel(model, options);
    BertModel decoded = model;
    quantizeModelInPlace(decoded, options);

    std::size_t agree = 0;
    for (const auto &ex : data.examples) {
        Tensor q_logits = qmodel.classify(ex.tokens);
        auto dec_pred = predict(decoded, TaskKind::MnliLike, ex);
        int q_label = static_cast<int>(argmax(q_logits.flat()));
        agree += q_label == dec_pred.label ? 1 : 0;
    }
    // FP reassociation can flip razor-thin margins; anything beyond a
    // stray example means the engines diverge.
    EXPECT_GE(agree, data.examples.size() - 1);
}

TEST(QuantizedBertModelTest, EncodeMatchesDecodedHidden)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 423);
    ModelQuantOptions options;
    options.base.bits = 4;

    QuantizedBertModel qmodel(model, options);
    BertModel decoded = model;
    quantizeModelInPlace(decoded, options);

    std::vector<std::int32_t> ids{3, 1, 4, 1, 5, 9};
    Tensor a = qmodel.encode(ids);
    Tensor b = encodeSequence(decoded, ids);
    EXPECT_LT(relativeError(b, a), 1e-4);
}

TEST(QuantizedBertModelTest, OpCountsAndFootprint)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 425);
    ModelQuantOptions options;
    options.base.bits = 3;
    QuantizedBertModel qmodel(model, options);

    auto ops = qmodel.opCounts(16);
    auto dense = qmodel.denseOpCounts(16);
    EXPECT_LT(ops.multiplications, dense.multiplications / 4);
    EXPECT_GT(ops.multiplications, 0u);

    // Compressed FC bytes beat FP32 by ~10x at 3 bits.
    std::size_t fp32 = cfg.fcWeightParams() * sizeof(float);
    EXPECT_GT(static_cast<double>(fp32)
                  / static_cast<double>(qmodel.compressedWeightBytes()),
              9.0);
}

TEST(QuantizedBertModelTest, ResidentBytesGolden)
{
    // Exact resident weight bytes of the mini BERT-base reference model
    // (3-bit GOBO FCs, 4-bit embedding): the 3-bit stream plus the
    // centroid tables and outliers, 0.09636 of the FP32 FC weights —
    // the paper's ~10x.
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel model = generateModel(cfg, 42);
    ModelQuantOptions options;
    options.base.bits = 3;
    options.base.method = CentroidMethod::Gobo;
    options.embeddingBits = 4;
    QuantizedBertModel packed(model, options);

    std::size_t fp32 = cfg.fcWeightParams() * sizeof(float);
    EXPECT_EQ(fp32, 2375680u);
    EXPECT_EQ(packed.residentWeightBytes(), 228912u);
    EXPECT_NEAR(static_cast<double>(packed.residentWeightBytes())
                    / static_cast<double>(fp32),
                0.09636, 5e-6);
}

TEST(QuantizedBertModelTest, MixedPrecisionBitsRespected)
{
    auto cfg = miniConfig(ModelFamily::RoBerta);
    BertModel model = generateModel(cfg, 427);
    ModelQuantOptions options;
    options.base.bits = 3;
    options.bitsFor = mixedPolicy(6, 3, 4);
    QuantizedBertModel qmodel(model, options);
    std::vector<std::int32_t> ids{1, 2, 3, 4};
    Tensor h = qmodel.encode(ids);
    for (float v : h.flat())
        EXPECT_TRUE(std::isfinite(v));
}

TEST(QuantizedBertModelTest, HoldsOnlyFp32ResidentParameters)
{
    // FC weights and biases live only in the packed layers; every
    // other parameter is the source's, and a quantized embedding is
    // its decode.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 433);
    model.resizeHead(2);
    model.headW(1, 3) = 0.375f;
    for (unsigned emb_bits : {0u, 4u}) {
        ModelQuantOptions options;
        options.base.bits = 3;
        options.embeddingBits = emb_bits;
        QuantizedBertModel qmodel(model, options);
        const BertModel &held = qmodel.fp32Parameters();
        auto src = model.parameters();
        auto got = held.parameters();
        ASSERT_EQ(got.size(), src.size());
        std::size_t fc_bias_params = 0;
        for (std::size_t p = 0; p < src.size(); ++p) {
            // parameters() lists each FC weight right before its bias.
            const bool fc_bias = p > 0 && src[p - 1].fcWeight;
            if (fc_bias)
                fc_bias_params += src[p].tensor->size();
            if (src[p].fcWeight || fc_bias) {
                EXPECT_EQ(got[p].tensor->size(), 0u) << src[p].name;
            } else if (p > 0 || emb_bits == 0) {
                EXPECT_EQ(got[p].tensor->data(), src[p].tensor->data())
                    << src[p].name;
            }
        }
        EXPECT_GT(fc_bias_params, 0u);
        EXPECT_EQ(held.parameterCount(), model.parameterCount()
                                             - cfg.fcWeightParams()
                                             - fc_bias_params);
        if (emb_bits > 0) {
            BertModel decoded = model;
            quantizeModelInPlace(decoded, options);
            EXPECT_EQ(held.wordEmbedding.data(),
                      decoded.wordEmbedding.data());
        }
    }
}

TEST(QuantizedBertModelTest, RejectsBadTokenSequences)
{
    // The packed engine keeps the FP32 engine's input contract.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    ModelQuantOptions options;
    options.base.bits = 3;
    QuantizedBertModel qmodel(generateModel(cfg, 429), options);

    EXPECT_THROW(qmodel.classify(std::vector<std::int32_t>{}), FatalError);
    std::vector<std::int32_t> too_long(cfg.maxPosition + 1, 1);
    EXPECT_THROW(qmodel.classify(too_long), FatalError);
    EXPECT_THROW(qmodel.classify(std::vector<std::int32_t>{1, -1}),
                 FatalError);
    auto vocab = static_cast<std::int32_t>(cfg.vocabSize);
    EXPECT_THROW(qmodel.classify(std::vector<std::int32_t>{vocab}),
                 FatalError);
    std::vector<std::int32_t> longest(cfg.maxPosition, 1);
    EXPECT_NO_THROW(qmodel.classify(longest));
}

TEST(QuantizedBertModelTest, CopyAndMoveOutliveTheSource)
{
    // Each forward builds its FC step from the model it runs on, so a
    // copy or a moved-to model never reads its source's layers.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    ModelQuantOptions options;
    options.base.bits = 3;
    options.embeddingBits = 4;
    std::optional<QuantizedBertModel> source;
    source.emplace(generateModel(cfg, 431), options);
    std::vector<std::int32_t> ids{5, 3, 8, 1, 9, 2, 7};
    const ExecContext ctx = ExecContext::parallel(4);
    Tensor want = source->classify(ctx, ids);

    QuantizedBertModel copy = *source;
    QuantizedBertModel moved = std::move(*source);
    source.reset();

    auto same_bits = [&](const Tensor &got) {
        return got.size() == want.size()
               && std::memcmp(got.data().data(), want.data().data(),
                              want.size() * sizeof(float))
                      == 0;
    };
    EXPECT_TRUE(same_bits(copy.classify(ctx, ids)));
    EXPECT_TRUE(same_bits(moved.classify(ctx, ids)));
    EXPECT_TRUE(same_bits(moved.classify(ids)));
}

TEST(QuantizedBertModelTest, CopiedAndMovedLayersHoldTheirBias)
{
    // Each FC bias moves from the FP32-resident parameters into its
    // QuantizedLinear and must travel with copies and moves: a zero
    // input row gives exactly the bias back.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 435);
    std::vector<const Tensor *> biases;
    auto params = model.parameters();
    for (std::size_t p = 0; p + 1 < params.size(); ++p)
        if (params[p].fcWeight)
            biases.push_back(params[p + 1].tensor);
    ModelQuantOptions options;
    options.base.bits = 3;
    std::optional<QuantizedBertModel> source;
    source.emplace(model, options);
    QuantizedBertModel copy = *source;
    QuantizedBertModel moved = std::move(*source);
    source.reset();

    for (const QuantizedBertModel *m : {&copy, &moved}) {
        std::size_t layer = 0;
        m->forEachLayer([&](const QuantizedLinear &fc) {
            ASSERT_LT(layer, biases.size());
            const Tensor &want = *biases[layer++];
            Tensor y = fc.forward(Tensor(1, fc.compressed().cols));
            ASSERT_EQ(y.size(), want.size()) << fc.spanLabel();
            EXPECT_EQ(std::memcmp(y.data().data(), want.data().data(),
                                  want.size() * sizeof(float)),
                      0)
                << fc.spanLabel();
        });
        EXPECT_EQ(layer, biases.size());
    }
}

} // namespace
} // namespace gobo
