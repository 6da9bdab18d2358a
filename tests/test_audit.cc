/**
 * @file
 * Tests for the quantization audit layer: static fidelity edge cases
 * (all-outlier, single-centroid, empty tensors must stay finite), the
 * ActivationProbe capture/compare protocol, the bit-identity contract
 * for attached-but-disabled probes across backends,
 * measured-traffic attribution arithmetic, and the end-to-end
 * auditModel report.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/qexec.hh"
#include "exec/session.hh"
#include "memsim/memsim.hh"
#include "model/generate.hh"
#include "obs/audit.hh"
#include "obs/observer.hh"
#include "obs/probe.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

/** A 2x2 matrix where every element is an outlier. */
QuantizedTensor
allOutlierTensor()
{
    QuantizedTensor q;
    q.bits = 2;
    q.rows = 2;
    q.cols = 2;
    q.centroids = {0.0f};
    q.packedIndexes = {0}; // four 2-bit zero indexes
    q.outlierPositions = {0, 1, 2, 3};
    q.outlierValues = {5.0f, -5.0f, 7.0f, -7.0f};
    q.check();
    return q;
}

TEST(LayerFidelityTest, AllOutlierLayerIsFinite)
{
    QuantizedTensor q = allOutlierTensor();
    Tensor fp32(2, 2);
    fp32(0, 0) = 5.0f;
    fp32(0, 1) = -5.0f;
    fp32(1, 0) = 7.0f;
    fp32(1, 1) = -7.0f;

    LayerFidelity f = layerFidelity("all_out", "span", fp32, q);
    EXPECT_DOUBLE_EQ(f.outlierFraction, 1.0);
    // Outliers reconstruct exactly, so the error is zero — and finite.
    EXPECT_DOUBLE_EQ(f.l1, 0.0);
    EXPECT_DOUBLE_EQ(f.mse, 0.0);
    EXPECT_DOUBLE_EQ(f.maxAbs, 0.0);
    // Every index slot points at the single centroid.
    ASSERT_EQ(f.occupancy.size(), 1u);
    EXPECT_EQ(f.occupancy[0], 4u);
    EXPECT_EQ(f.deadCentroids, 0u);
    EXPECT_DOUBLE_EQ(f.topCentroidShare, 1.0);
    EXPECT_TRUE(f.saturated);
}

TEST(LayerFidelityTest, SingleCentroidTableIsFinite)
{
    QuantizedTensor q;
    q.bits = 1;
    q.rows = 1;
    q.cols = 8;
    q.centroids = {0.5f};
    q.packedIndexes = {0}; // eight 1-bit zero indexes
    q.check();

    Tensor fp32(1, 8);
    for (std::size_t c = 0; c < 8; ++c)
        fp32(0, c) = 0.25f;

    LayerFidelity f = layerFidelity("b1", "span", fp32, q);
    EXPECT_TRUE(std::isfinite(f.l1));
    EXPECT_NEAR(f.l1, 0.25, 1e-9);
    EXPECT_NEAR(f.mse, 0.0625, 1e-9);
    EXPECT_NEAR(f.maxAbs, 0.25, 1e-9);
    EXPECT_DOUBLE_EQ(f.topCentroidShare, 1.0);
    EXPECT_TRUE(f.saturated);
}

TEST(LayerFidelityTest, EmptyTensorIsFinite)
{
    QuantizedTensor q;
    q.bits = 3;
    q.rows = 0;
    q.cols = 0;
    q.centroids = {0.0f};
    q.check();

    Tensor fp32(std::size_t{0}, std::size_t{0});
    LayerFidelity f = layerFidelity("empty", "span", fp32, q);
    EXPECT_EQ(f.elements, 0u);
    EXPECT_DOUBLE_EQ(f.l1, 0.0);
    EXPECT_DOUBLE_EQ(f.mse, 0.0);
    EXPECT_DOUBLE_EQ(f.maxAbs, 0.0);
    EXPECT_DOUBLE_EQ(f.outlierFraction, 0.0);
    EXPECT_DOUBLE_EQ(f.topCentroidShare, 0.0);
    EXPECT_DOUBLE_EQ(f.compressionRatio, 1.0);
    EXPECT_FALSE(f.saturated);
    // The lone (unused) centroid counts as dead, not as a crash.
    EXPECT_EQ(f.deadCentroids, 1u);
}

TEST(LayerFidelityTest, DeadCentroidsAreCounted)
{
    QuantizedTensor q;
    q.bits = 2;
    q.rows = 1;
    q.cols = 4;
    q.centroids = {-1.0f, 0.0f, 1.0f, 2.0f};
    q.packedIndexes = {0b01010101}; // all four slots pick centroid 1
    q.check();

    Tensor fp32(1, 4);
    LayerFidelity f = layerFidelity("dead", "span", fp32, q);
    EXPECT_EQ(f.deadCentroids, 3u);
    EXPECT_DOUBLE_EQ(f.topCentroidShare, 1.0);
    EXPECT_TRUE(f.saturated);
}

TEST(ActivationProbeTest, CaptureThenCompareMeasuresDivergence)
{
    ActivationProbe probe(ProbeMode::Capture);
    Tensor ref(1, 4);
    ref(0, 0) = 1.0f;
    ref(0, 1) = 2.0f;
    ref(0, 2) = 3.0f;
    ref(0, 3) = 4.0f;
    probe.record("p", ref);
    EXPECT_EQ(probe.capturedCount("p"), 1u);

    probe.setMode(ProbeMode::Compare);
    Tensor obs = ref;
    obs(0, 2) = 3.5f; // max-abs divergence of 0.5
    probe.record("p", obs);

    auto div = probe.divergence();
    ASSERT_EQ(div.size(), 1u);
    EXPECT_EQ(div[0].point, "p");
    EXPECT_EQ(div[0].samples, 1u);
    EXPECT_EQ(div[0].mismatches, 0u);
    EXPECT_NEAR(div[0].maxAbs, 0.5, 1e-6);
    EXPECT_GT(div[0].meanCosine, 0.99);
    EXPECT_LE(div[0].meanCosine, 1.0 + 1e-12);
}

TEST(ActivationProbeTest, IdenticalTensorsHaveZeroDivergence)
{
    ActivationProbe probe;
    Tensor t(2, 3);
    Rng(5).fillGaussian(t.data(), 0.0, 1.0);
    probe.record("x", t);
    probe.setMode(ProbeMode::Compare);
    probe.record("x", t);
    auto div = probe.divergence();
    ASSERT_EQ(div.size(), 1u);
    EXPECT_DOUBLE_EQ(div[0].maxAbs, 0.0);
    EXPECT_NEAR(div[0].meanCosine, 1.0, 1e-12);
    EXPECT_NEAR(div[0].minCosine, 1.0, 1e-12);
}

TEST(ActivationProbeTest, MissingReferenceCountsAsMismatch)
{
    ActivationProbe probe(ProbeMode::Compare);
    Tensor t(1, 2);
    probe.record("never_captured", t);
    auto div = probe.divergence();
    ASSERT_EQ(div.size(), 1u);
    EXPECT_EQ(div[0].samples, 0u);
    EXPECT_EQ(div[0].mismatches, 1u);
}

TEST(ActivationProbeTest, SamplingDisabledRecordsNothing)
{
    ActivationProbe probe;
    probe.setSampling(false);
    Tensor t(1, 2);
    probe.record("p", t);
    EXPECT_EQ(probe.capturedCount("p"), 0u);
    EXPECT_TRUE(probe.divergence().empty());
}

TEST(AttributeMeasuredTest, EnergyAndLatencyArithmetic)
{
    MeasuredTraffic t;
    t.layer = "enc[0].query";
    t.forwards = 2;
    t.bytesStreamed = 1000;
    t.macs = 5000.0;

    MemParams p;
    p.dramPjPerBit = 20.0;
    p.pjPerMac = 0.6;
    p.dramGBps = 25.6;
    p.macsPerSecond = 8e12;

    auto out = attributeMeasured({t}, p);
    ASSERT_EQ(out.size(), 1u);
    const LayerAttribution &a = out[0];
    EXPECT_EQ(a.layer, "enc[0].query");
    // 1000 bytes * 8 bits * 20 pJ = 160000 pJ = 0.16 uJ.
    EXPECT_NEAR(a.offChipEnergyMicroJ, 0.16, 1e-9);
    // 5000 MACs * 0.6 pJ = 3000 pJ = 0.003 uJ.
    EXPECT_NEAR(a.computeEnergyMicroJ, 0.003, 1e-9);
    EXPECT_NEAR(a.totalEnergyMicroJ, 0.163, 1e-9);
    // 1000 B / 25.6 GB/s vs 5000 / 8e12 MACs/s: memory wins.
    EXPECT_TRUE(a.memoryBound);
    EXPECT_DOUBLE_EQ(a.latencyMs, a.memoryLatencyMs);
}

/** Mini model with a live head, shared by the end-to-end audit tests. */
class AuditFixture : public ::testing::Test
{
  protected:
    AuditFixture()
        : model(generateModel(miniConfig(ModelFamily::BertBase), 11))
    {
        model.resizeHead(3);
        Rng rng(23);
        rng.fillGaussian(model.headW.data(), 0.0, 0.5);
        rng.fillGaussian(model.headB.data(), 0.0, 0.5);
        for (int s = 0; s < 3; ++s) {
            std::vector<std::int32_t> seq;
            for (int t = 0; t < 10; ++t)
                seq.push_back(static_cast<std::int32_t>(rng.integer(
                    0,
                    static_cast<int>(model.config().vocabSize) - 1)));
            batch.push_back(std::move(seq));
        }
    }

    static void
    expectIdentical(const std::vector<Tensor> &a,
                    const std::vector<Tensor> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].size(), b[i].size());
            for (std::size_t j = 0; j < a[i].size(); ++j)
                EXPECT_EQ(a[i](j), b[i](j))
                    << "logit mismatch at [" << i << "][" << j << "]";
        }
    }

    BertModel model;
    TokenBatch batch;
};

TEST_F(AuditFixture, DisabledProbeIsBitIdenticalEverywhere)
{
    // The contract: an *attached* divergence probe with sampling
    // disabled must leave every engine/backend combination exactly
    // unchanged.
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    InferenceSession plain(QuantizedBertModel(model, qopt),
                           ExecContext::serial());
    auto expected = plain.headLogitsBatch(batch);

    ActivationProbe probe;
    probe.setSampling(false);
    Observer obs;
    obs.probe = &probe;

    for (bool parallel : {false, true}) {
        ExecContext ctx = parallel ? ExecContext::parallel(4)
                                   : ExecContext::serial();
        ctx.obs = &obs;
        InferenceSession session(QuantizedBertModel(model, qopt), ctx);
        expectIdentical(expected, session.headLogitsBatch(batch));
    }
    // And the probe really recorded nothing.
    EXPECT_EQ(probe.capturedCount("embed"), 0u);
    EXPECT_TRUE(probe.divergence().empty());

    // FP32 engine under the same disabled probe: also unchanged.
    InferenceSession fp32_plain(model, ExecContext::serial());
    auto fp32_expected = fp32_plain.headLogitsBatch(batch);
    ExecContext ctx = ExecContext::serial();
    ctx.obs = &obs;
    InferenceSession fp32_probed(model, ctx);
    expectIdentical(fp32_expected, fp32_probed.headLogitsBatch(batch));
    EXPECT_TRUE(probe.divergence().empty());
}

TEST_F(AuditFixture, EnabledProbeDoesNotPerturbResults)
{
    // Stronger than the disabled contract: even an actively sampling
    // probe only reads activations, so logits stay bit-identical.
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    InferenceSession plain(QuantizedBertModel(model, qopt),
                           ExecContext::serial());
    auto expected = plain.headLogitsBatch(batch);

    ActivationProbe probe(ProbeMode::Capture);
    Observer obs;
    obs.probe = &probe;
    ExecContext ctx = ExecContext::serial();
    ctx.obs = &obs;
    InferenceSession probed(QuantizedBertModel(model, qopt), ctx);
    expectIdentical(expected, probed.headLogitsBatch(batch));
    EXPECT_GT(probe.capturedCount("embed"), 0u);
}

TEST_F(AuditFixture, AuditModelProducesFullReport)
{
    AuditOptions opt;
    opt.quant.base.bits = 3;
    opt.sequences = 2;
    opt.seqLen = 8;
    opt.seed = 9;

    AuditReport r = auditModel(model, opt);

    // Pillar 1: one fidelity entry per FC layer, finite everywhere.
    std::size_t fc_count = model.fcLayers().size();
    ASSERT_EQ(r.fidelity.size(), fc_count);
    for (const auto &f : r.fidelity) {
        EXPECT_TRUE(std::isfinite(f.l1)) << f.name;
        EXPECT_TRUE(std::isfinite(f.mse)) << f.name;
        EXPECT_GT(f.elements, 0u) << f.name;
        EXPECT_EQ(f.bits, 3u) << f.name;
        EXPECT_FALSE(f.occupancy.empty()) << f.name;
    }
    EXPECT_EQ(r.fidelity.front().name, "encoder0.query");
    EXPECT_EQ(r.fidelity.front().spanLabel, "enc[0].query");
    EXPECT_EQ(r.fidelity.back().spanLabel, "pooler");

    // Pillar 2: emission-ordered divergence with no pairing failures.
    ASSERT_FALSE(r.divergence.empty());
    EXPECT_EQ(r.divergence.front().point, "embed");
    EXPECT_EQ(r.divergence.back().point, "logits");
    for (const auto &d : r.divergence) {
        EXPECT_EQ(d.samples, opt.sequences) << d.point;
        EXPECT_EQ(d.mismatches, 0u) << d.point;
        EXPECT_TRUE(std::isfinite(d.maxAbs)) << d.point;
        EXPECT_LE(d.meanCosine, 1.0 + 1e-9) << d.point;
    }
    // 3-bit quantization diverges somewhere past the embedding.
    EXPECT_GT(r.divergence.back().maxAbs, 0.0);

    // Pillar 3: measured counters attributed per layer.
    ASSERT_EQ(r.traffic.size(), fc_count);
    ASSERT_EQ(r.attribution.size(), fc_count);
    for (std::size_t i = 0; i < r.traffic.size(); ++i) {
        const auto &t = r.traffic[i];
        EXPECT_EQ(t.forwards, opt.sequences) << t.layer;
        EXPECT_GT(t.bytesStreamed, 0u) << t.layer;
        EXPECT_GT(t.rowsDecoded, 0u) << t.layer; // Packed decodes rows
        EXPECT_GT(t.macs, 0.0) << t.layer;
        EXPECT_EQ(r.attribution[i].layer, t.layer);
        EXPECT_GT(r.attribution[i].totalEnergyMicroJ, 0.0);
    }
    EXPECT_GT(r.totalBytesStreamed, 0u);
    EXPECT_GT(r.totalEnergyMicroJ, 0.0);
    EXPECT_GT(r.totalLatencyMs, 0.0);
}

TEST_F(AuditFixture, AuditJsonIsBalancedAndTagged)
{
    AuditOptions opt;
    opt.quant.base.bits = 3;
    opt.sequences = 1;
    opt.seqLen = 6;

    AuditReport r = auditModel(model, opt);
    std::ostringstream os;
    writeAuditJson(r, os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"gobo-audit-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"fidelity\""), std::string::npos);
    EXPECT_NE(json.find("\"divergence\""), std::string::npos);
    EXPECT_NE(json.find("\"attribution\""), std::string::npos);
    EXPECT_NE(json.find("enc[0].query"), std::string::npos);
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);

    std::ostringstream console;
    printAuditReport(r, console);
    EXPECT_NE(console.str().find("encoder0.query"), std::string::npos);
    EXPECT_NE(console.str().find("totals:"), std::string::npos);
}

} // namespace
} // namespace gobo
