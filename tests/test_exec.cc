/**
 * @file
 * Bit-identity of serial (one-thread) and parallel execution, and the
 * InferenceSession serving layer built on them.
 *
 * The determinism contract (DESIGN.md "Execution contexts"): the
 * thread count only chooses which thread computes an output slot,
 * never the reduction order inside it, so every op, the full encoder
 * stack, the compressed-domain engine, and batched sessions must
 * produce *bit-identical* floats at any thread count. These tests assert exact
 * equality, not tolerances.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/qexec.hh"
#include "exec/context.hh"
#include "exec/session.hh"
#include "model/generate.hh"
#include "nn/encoder.hh"
#include "task/task.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

Tensor
randomTensor(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(rows, cols);
    rng.fillGaussian(t.data(), 0.0, 0.5);
    return t;
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    auto af = a.flat();
    auto bf = b.flat();
    for (std::size_t i = 0; i < af.size(); ++i)
        ASSERT_EQ(af[i], bf[i]) << "element " << i;
}

TEST(BackendBitIdentity, Matmul)
{
    Tensor a = randomTensor(37, 64, 1);
    Tensor b = randomTensor(64, 53, 2);
    Tensor serial = matmul(ExecContext::serial(), a, b);
    Tensor parallel = matmul(ExecContext::parallel(8), a, b);
    expectBitIdentical(serial, parallel);
}

TEST(BackendBitIdentity, LinearBothSplitDirections)
{
    // seq > out exercises the sequence-blocked path, seq < out the
    // output-blocked path; both must match the serial loop exactly.
    Tensor w = randomTensor(48, 64, 3);
    Tensor bias = randomTensor(1, 48, 4);
    Tensor b1(48);
    std::copy(bias.flat().begin(), bias.flat().end(),
              b1.flat().begin());
    for (std::size_t seq : {1u, 7u, 96u}) {
        Tensor x = randomTensor(seq, 64, 5 + seq);
        Tensor serial = linear(ExecContext::serial(), x, w, b1);
        Tensor parallel = linear(ExecContext::parallel(8), x, w, b1);
        expectBitIdentical(serial, parallel);
    }
}

TEST(BackendBitIdentity, SoftmaxAndLayerNorm)
{
    Tensor s1 = randomTensor(41, 19, 6);
    Tensor s2 = s1;
    softmaxRows(ExecContext::serial(), s1);
    softmaxRows(ExecContext::parallel(8), s2);
    expectBitIdentical(s1, s2);

    Tensor n1 = randomTensor(41, 32, 7);
    Tensor n2 = n1;
    Tensor gamma = randomTensor(1, 32, 8);
    Tensor beta = randomTensor(1, 32, 9);
    layerNormInplace(ExecContext::serial(), n1, gamma.flat(),
                     beta.flat());
    layerNormInplace(ExecContext::parallel(8), n2, gamma.flat(),
                     beta.flat());
    expectBitIdentical(n1, n2);
}

TEST(BackendBitIdentity, MultiHeadAttention)
{
    Tensor q = randomTensor(23, 64, 10);
    Tensor k = randomTensor(23, 64, 11);
    Tensor v = randomTensor(23, 64, 12);
    Tensor serial = multiHeadAttention(ExecContext::serial(), q, k, v, 8);
    Tensor parallel =
        multiHeadAttention(ExecContext::parallel(8), q, k, v, 8);
    expectBitIdentical(serial, parallel);
}

class ModelBitIdentity : public ::testing::Test
{
  protected:
    ModelBitIdentity()
        : model(generateModel(miniConfig(ModelFamily::BertBase), 77))
    {
        Rng rng(123);
        // generateModel leaves the task head zeroed (the task setup
        // normally fills it); give it real weights so the logit-level
        // identity checks are non-trivial.
        model.resizeHead(3);
        rng.fillGaussian(model.headW.data(), 0.0, 0.5);
        rng.fillGaussian(model.headB.data(), 0.0, 0.5);
        for (std::size_t s = 0; s < 4; ++s) {
            std::vector<std::int32_t> seq;
            for (std::size_t t = 0; t < 12; ++t)
                seq.push_back(static_cast<std::int32_t>(rng.integer(
                    0,
                    static_cast<int>(model.config().vocabSize) - 1)));
            batch.push_back(std::move(seq));
        }
    }

    BertModel model;
    TokenBatch batch;
};

TEST_F(ModelBitIdentity, EncodeSequence)
{
    Tensor serial =
        encodeSequence(ExecContext::serial(), model, batch[0]);
    Tensor parallel =
        encodeSequence(ExecContext::parallel(8), model, batch[0]);
    expectBitIdentical(serial, parallel);
}

TEST_F(ModelBitIdentity, QuantizedLinearForward)
{
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    QuantizedBertModel qmodel(model, qopt);

    Tensor serial = qmodel.encode(ExecContext::serial(), batch[0]);
    Tensor parallel = qmodel.encode(ExecContext::parallel(8), batch[0]);
    expectBitIdentical(serial, parallel);

    // One layer on its own, too.
    Tensor x = randomTensor(5, model.config().hidden, 20);
    QuantizedLinear layer(
        quantizeTensor(model.encoders[0].queryW, qopt.base),
        model.encoders[0].queryB);
    expectBitIdentical(layer.forward(ExecContext::serial(), x),
                       layer.forward(ExecContext::parallel(8), x));
}

TEST_F(ModelBitIdentity, SessionSingleVsBatchedVsSerial)
{
    InferenceSession serial(model, ExecContext::serial());
    InferenceSession parallel(model, ExecContext::parallel(8));

    auto serial_logits = serial.headLogitsBatch(batch);
    auto parallel_logits = parallel.headLogitsBatch(batch);
    ASSERT_EQ(serial_logits.size(), parallel_logits.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        expectBitIdentical(serial_logits[i], parallel_logits[i]);
        // Batched and one-at-a-time calls agree too.
        expectBitIdentical(serial_logits[i],
                           parallel.headLogits(batch[i]));
    }

    auto serial_hidden = serial.encodeBatch(batch);
    auto parallel_hidden = parallel.encodeBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectBitIdentical(serial_hidden[i], parallel_hidden[i]);
}

TEST_F(ModelBitIdentity, CompressedSessionBackends)
{
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    InferenceSession serial(QuantizedBertModel(model, qopt),
                            ExecContext::serial());
    InferenceSession parallel(QuantizedBertModel(model, qopt),
                              ExecContext::parallel(8));
    ASSERT_TRUE(serial.compressed());
    auto a = serial.headLogitsBatch(batch);
    auto b = parallel.headLogitsBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectBitIdentical(a[i], b[i]);
}

TEST_F(ModelBitIdentity, ThreadCountDeterminism)
{
    // The partitioner's contract: thread count picks which thread
    // computes a slot, never what it computes. Quantized logits must
    // be bit-identical to the serial golden at every thread count, in
    // both weight formats. grainFlops = 1 forces even this mini model
    // through the real parallel partition instead of the grain gate.
    for (WeightFormat fmt :
         {WeightFormat::Unpacked, WeightFormat::Packed}) {
        ModelQuantOptions qopt;
        qopt.base.bits = 3;
        qopt.format = fmt;
        InferenceSession golden(QuantizedBertModel(model, qopt),
                                ExecContext::serial());
        auto want = golden.headLogitsBatch(batch);
        for (std::size_t threads : {1u, 2u, 3u, 7u}) {
            SCOPED_TRACE(std::string(weightFormatName(fmt))
                         + " threads=" + std::to_string(threads));
            ExecContext ctx = ExecContext::parallel(threads);
            ctx.grainFlops = 1;
            InferenceSession session(QuantizedBertModel(model, qopt),
                                     ctx);
            auto got = session.headLogitsBatch(batch);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i)
                expectBitIdentical(want[i], got[i]);
        }
    }
}

TEST_F(ModelBitIdentity, WorkStealingOnSkewedSequenceLengths)
{
    // Pathologically skewed batch: a few maxPosition-length sequences
    // among many trivial ones. Batch-level parallelism used to degrade
    // the inner forwards to serial (all-or-nothing), so the threads
    // that drew short sequences idled for the whole long tail; now the
    // inner loops are nested submissions that get stolen. The output
    // contract stays exact equality with the serial golden, batch
    // order preserved, across repeated rounds (stealing is racy in
    // schedule, never in results).
    Rng rng(321);
    TokenBatch skewed;
    for (std::size_t len :
         {64u, 2u, 3u, 2u, 48u, 2u, 2u, 5u, 2u, 64u, 3u, 2u}) {
        std::vector<std::int32_t> seq;
        for (std::size_t t = 0; t < len; ++t)
            seq.push_back(static_cast<std::int32_t>(rng.integer(
                0, static_cast<int>(model.config().vocabSize) - 1)));
        skewed.push_back(std::move(seq));
    }

    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    qopt.format = WeightFormat::Packed;
    InferenceSession golden(QuantizedBertModel(model, qopt),
                            ExecContext::serial());
    auto want = golden.headLogitsBatch(skewed);

    ExecContext ctx = ExecContext::parallel(4);
    ctx.grainFlops = 1;
    InferenceSession session(QuantizedBertModel(model, qopt), ctx);
    for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto got = session.headLogitsBatch(skewed);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            expectBitIdentical(want[i], got[i]);
    }
}

TEST(BackendBitIdentity, EvaluateAcrossExamples)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel model = generateModel(cfg, 901);
    TaskSpec spec = defaultSpec(TaskKind::MnliLike,
                                ModelFamily::DistilBert, 901);
    spec.numExamples = 80;
    Dataset data = buildTask(model, spec);
    double serial = evaluate(ExecContext::serial(), model, data);
    double parallel = evaluate(ExecContext::parallel(8), model, data);
    EXPECT_EQ(serial, parallel);

    InferenceSession session(model, ExecContext::parallel(8));
    EXPECT_EQ(evaluate(session, data), serial);
}

} // namespace
} // namespace gobo
