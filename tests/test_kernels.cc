/**
 * @file
 * Tests for the SIMD kernel layer (kernels/kernels.hh).
 *
 * Pins down the tier contract of DESIGN.md §11:
 *   - the generic tier's fp32 engine is bit-identical to the
 *     pre-kernel-layer scalar code, and its quantized engine to the
 *     lutDot contract (golden logits);
 *   - lutDot reads the packed index stream and follows its numeric
 *     contract (kernels.hh) bit for bit on every tier, at every B, bit
 *     phase, micro-tile shape, table size and in % 16 tail, up to the
 *     stream's last byte, asserted against a test-side scalar
 *     implementation;
 *     whole QuantizedLinear forwards match the same contract on every
 *     tier and thread count, up to paper width, and stay
 *     within 1e-5 of the paper's accumulate-then-multiply order;
 *   - packed-row decode (KernelSet::decodePackedRow) is integer-exact
 *     on every tier, for every B, unaligned bit offsets and lengths;
 *   - the dense/row SIMD kernels match generic to tolerance, on every
 *     masked-tail length, and propagate NaN/Inf exactly.
 * AVX2 cases skip on hosts without AVX2+FMA; AVX-512 cases skip (with
 * a message) on hosts without F+BW+DQ+VL or when the build lacks the
 * tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "exec/session.hh"
#include "kernels/kernels.hh"
#include "model/generate.hh"
#include "nn/encoder.hh"
#include "tensor/ops.hh"
#include "util/bitstream.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

#define SKIP_WITHOUT_AVX2()                                              \
    const KernelSet *avx2 = avx2Kernels();                               \
    if (!avx2)                                                           \
    GTEST_SKIP() << "AVX2+FMA tier unavailable on this host"

#define SKIP_WITHOUT_AVX512()                                            \
    const KernelSet *avx512 = avx512Kernels();                           \
    if (!avx512)                                                         \
    GTEST_SKIP() << "AVX-512 F+BW+DQ+VL tier unavailable on this host "  \
                    "(CPU or build lacks it); cross-tier identity "      \
                    "still covered by generic/avx2"

/** Every tier the host can run; generic is always first. */
std::vector<const KernelSet *>
allTiers()
{
    std::vector<const KernelSet *> tiers = {&genericKernels()};
    if (const KernelSet *a = avx2Kernels())
        tiers.push_back(a);
    if (const KernelSet *a = avx512Kernels())
        tiers.push_back(a);
    return tiers;
}

/** The SIMD tiers only (everything after generic). */
std::vector<const KernelSet *>
simdTiers()
{
    auto tiers = allTiers();
    tiers.erase(tiers.begin());
    return tiers;
}

Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    std::mt19937_64 eng(seed);
    std::normal_distribution<float> n(0.0f, 1.0f);
    Tensor t(r, c);
    for (auto &v : t.flat())
        v = n(eng);
    return t;
}

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed, float stddev = 1.0f)
{
    std::mt19937_64 eng(seed);
    std::normal_distribution<float> d(0.0f, stddev);
    std::vector<float> v(n);
    for (auto &x : v)
        x = d(eng);
    return v;
}

/** The tail-heavy length set every dense/row fuzz sweeps. */
const std::vector<std::size_t> kFuzzLengths = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
    31, 32, 33, 1007};

/** Each row's (column, correction) outlier pairs, in row order. */
std::vector<std::vector<std::pair<std::uint32_t, float>>>
rowOutliers(const QuantizedTensor &qt)
{
    std::vector<std::vector<std::pair<std::uint32_t, float>>> rows(
        qt.rows);
    for (std::size_t o = 0; o < qt.outlierPositions.size(); ++o) {
        std::uint32_t pos = qt.outlierPositions[o];
        std::uint32_t row = pos / static_cast<std::uint32_t>(qt.cols);
        std::uint32_t col = pos % static_cast<std::uint32_t>(qt.cols);
        float corr =
            qt.outlierValues[o] - qt.centroids[qt.indexAt(pos)];
        rows[row].emplace_back(col, corr);
    }
    return rows;
}

/**
 * The paper's accumulate-then-multiply datapath, in double: per
 * (o, s), fill the buckets in ascending-i order, fold the centroid
 * table in ascending-c order from the bias, apply outlier corrections
 * in position order. The engine computes the same sum in another
 * order, so it must stay within tolerance of this.
 */
Tensor
scalarReference(const QuantizedTensor &qt, const Tensor &bias,
                const Tensor &x)
{
    std::size_t out = qt.rows, in = qt.cols;
    std::size_t seq = x.rows();
    std::size_t k = qt.centroids.size();
    auto idx = unpackIndexes(qt.packedIndexes, qt.bits,
                             qt.elementCount());
    auto row_out = rowOutliers(qt);

    Tensor y(seq, out);
    std::vector<double> bucket(k);
    for (std::size_t o = 0; o < out; ++o) {
        for (std::size_t s = 0; s < seq; ++s) {
            const float *xrow = x.row(s).data();
            std::fill(bucket.begin(), bucket.end(), 0.0);
            for (std::size_t i = 0; i < in; ++i)
                bucket[idx[o * in + i]] += xrow[i];
            double acc = bias(o);
            for (std::size_t c = 0; c < k; ++c)
                acc += static_cast<double>(qt.centroids[c]) * bucket[c];
            for (const auto &[col, corr] : row_out[o])
                acc += static_cast<double>(corr) * xrow[col];
            y(s, o) = static_cast<float>(acc);
        }
    }
    return y;
}

/**
 * The lutDot contract of kernels.hh for one token, spelled out: 16
 * fp32 partial sums over i mod 16 (product rounded, then added), then
 * the fixed halving tree.
 */
float
contractSum(const std::uint8_t *idx, std::size_t in, const float *table,
            const float *x)
{
    float p[16] = {};
    for (std::size_t i = 0; i < in; ++i) {
        float prod = table[idx[i]] * x[i];
        p[i % 16] = p[i % 16] + prod;
    }
    for (std::size_t half = 8; half > 0; half /= 2)
        for (std::size_t l = 0; l < half; ++l)
            p[l] = p[l] + p[l + half];
    return p[0];
}

/**
 * QuantizedLinear's numeric contract: contractSum per (o, s), then
 * float(double(bias) + double(sum) + sum of double(correction) *
 * double(x[col]) in row order). Every tier and thread count must
 * reproduce this bit for bit.
 */
Tensor
contractReference(const QuantizedTensor &qt, const Tensor &bias,
                  const Tensor &x)
{
    std::size_t out = qt.rows, in = qt.cols;
    auto idx32 = unpackIndexes(qt.packedIndexes, qt.bits,
                               qt.elementCount());
    std::vector<std::uint8_t> idx(idx32.begin(), idx32.end());
    auto row_out = rowOutliers(qt);

    Tensor y(x.rows(), out);
    for (std::size_t o = 0; o < out; ++o)
        for (std::size_t s = 0; s < x.rows(); ++s) {
            const float *xrow = x.row(s).data();
            float sum = contractSum(idx.data() + o * in, in,
                                    qt.centroids.data(), xrow);
            double acc = static_cast<double>(bias(o))
                         + static_cast<double>(sum);
            for (const auto &[col, corr] : row_out[o])
                acc += static_cast<double>(corr)
                       * static_cast<double>(xrow[col]);
            y(s, o) = static_cast<float>(acc);
        }
    return y;
}

/**
 * A random `out` x `in` layer at `bits`: a sorted table of 2^bits
 * centroids, uniform indexes, and ~1 outlier per 8 weights (at least
 * one) with values well off the table.
 */
QuantizedTensor
syntheticLayer(std::size_t out, std::size_t in, unsigned bits,
               std::uint64_t seed)
{
    std::mt19937_64 eng(seed);
    QuantizedTensor qt;
    qt.bits = bits;
    qt.rows = out;
    qt.cols = in;
    std::size_t k = std::size_t{1} << bits;
    qt.centroids = randomVec(k, eng(), 0.05f);
    std::sort(qt.centroids.begin(), qt.centroids.end());
    std::vector<std::uint32_t> idx(out * in);
    for (auto &v : idx)
        v = static_cast<std::uint32_t>(eng() % k);
    qt.packedIndexes = packIndexes(idx, bits);
    for (std::uint32_t pos = 0; pos < out * in; ++pos)
        if (eng() % 8 == 0 || pos + 1 == out * in) {
            qt.outlierPositions.push_back(pos);
            qt.outlierValues.push_back(
                static_cast<float>(static_cast<double>(eng() % 1000)
                                   / 2000.0 - 0.25));
        }
    qt.check();
    return qt;
}

/** First `n` rows of `x`. */
Tensor
leadingRows(const Tensor &x, std::size_t n)
{
    Tensor head(n, x.cols());
    std::copy(x.flat().begin(), x.flat().begin() + n * x.cols(),
              head.flat().begin());
    return head;
}

/** Serial context pinned to one tier. */
ExecContext
tierCtx(const KernelSet &kn)
{
    ExecContext ctx = ExecContext::serial();
    ctx.kernels = &kn;
    return ctx;
}

/** The golden-capture model: mini BERT-base, seed 42,
 * 3-class head, and its fixed 13-token input. */
struct GoldenSetup
{
    BertModel model;
    std::vector<std::int32_t> tokens;
};

GoldenSetup
goldenSetup()
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    GoldenSetup g{generateModel(cfg, 42), {}};
    Rng rng(42 * 31 + 5);
    g.model.resizeHead(3);
    rng.fillGaussian(g.model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(g.model.headB.data(), 0.0, 0.5);
    for (std::size_t t = 0; t < 13; ++t)
        g.tokens.push_back(static_cast<std::int32_t>(rng.integer(
            0, static_cast<int>(cfg.vocabSize) - 1)));
    return g;
}

TEST(Dispatch, GenericTierIsCompleteAndNamed)
{
    const KernelSet &g = genericKernels();
    EXPECT_STREQ(g.name, "generic");
    EXPECT_FALSE(g.reassociates);
    EXPECT_NE(g.dot, nullptr);
    EXPECT_NE(g.axpy, nullptr);
    EXPECT_NE(g.softmaxRow, nullptr);
    EXPECT_NE(g.layerNormRow, nullptr);
    EXPECT_NE(g.geluRow, nullptr);
    EXPECT_NE(g.tanhRow, nullptr);
    EXPECT_NE(g.lutDot, nullptr);
}

TEST(Dispatch, Avx2TierMatchesCpuid)
{
    const KernelSet *a = avx2Kernels();
    EXPECT_EQ(a != nullptr, cpuSupportsAvx2());
    if (a) {
        EXPECT_STREQ(a->name, "avx2");
        EXPECT_TRUE(a->reassociates);
        EXPECT_EQ(a->seqTile, kSeqTile);
    }
}

TEST(Dispatch, Avx512TierMatchesCpuidAndWidensTile)
{
    const KernelSet *a = avx512Kernels();
    if (a) {
        EXPECT_TRUE(cpuSupportsAvx512());
        EXPECT_STREQ(a->name, "avx512");
        EXPECT_TRUE(a->reassociates);
        EXPECT_EQ(a->seqTile, 16u);
        EXPECT_LE(a->seqTile, kMaxSeqTile);
        EXPECT_NE(a->decodePackedRow, nullptr);
    }
    // avx512Kernels() may be null on a supporting CPU when the *build*
    // lacks the tier, so only the one-way implication holds.
    if (!cpuSupportsAvx512()) {
        EXPECT_EQ(a, nullptr);
    }
}

TEST(Dispatch, EveryTierCarriesTileWidthAndDecode)
{
    for (const KernelSet *t : allTiers()) {
        SCOPED_TRACE(t->name);
        EXPECT_GE(t->seqTile, 1u);
        EXPECT_LE(t->seqTile, kMaxSeqTile);
        EXPECT_NE(t->decodePackedRow, nullptr);
    }
}

TEST(Dispatch, NamedLookupAndActiveOverride)
{
    EXPECT_EQ(&kernelsByName("generic"), &genericKernels());
    const KernelSet &native = kernelsByName("native");
    EXPECT_NE(native.name, nullptr);

    const KernelSet &before = activeKernels();
    setActiveKernels(genericKernels());
    EXPECT_STREQ(activeKernels().name, "generic");
    EXPECT_EQ(&resolveKernels(nullptr), &genericKernels());
    setActiveKernels(before);
    const KernelSet *avx2 = avx2Kernels();
    if (avx2) {
        EXPECT_EQ(&resolveKernels(avx2), avx2);
    }
}

// ---------------------------------------------------------------------
// Golden bit-identity: the generic tier reproduces exact committed
// logits. The fp32 ones were captured before the kernel layer existed;
// the quantized ones were re-captured when the FC engine moved to the
// lutDot contract (any tier gives the same FC bits; generic pins the
// fp32 glue around them). This is the GOBO_KERNEL=generic acceptance
// contract, asserted rather than benched.

TEST(GoldenGeneric, Fp32SerialLogitsMatchPreKernelBuild)
{
    GoldenSetup g = goldenSetup();
    InferenceSession session(std::move(g.model),
                             tierCtx(genericKernels()));
    Tensor logits = session.headLogits(g.tokens);
    ASSERT_EQ(logits.size(), 3u);
    EXPECT_EQ(logits(0), 0x1.f5eec6p-4f);
    EXPECT_EQ(logits(1), -0x1.cedf88p+0f);
    EXPECT_EQ(logits(2), 0x1.680f08p+0f);
}

TEST(GoldenGeneric, QuantizedPackedLogitsMatchPreKernelBuild)
{
    GoldenSetup g = goldenSetup();
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    qopt.base.method = CentroidMethod::Gobo;
    qopt.embeddingBits = 4;
    InferenceSession session(QuantizedBertModel(g.model, qopt),
                             tierCtx(genericKernels()));
    Tensor logits = session.headLogits(g.tokens);
    ASSERT_EQ(logits.size(), 3u);
    EXPECT_EQ(logits(0), 0x1.6a7ea6p-1f);
    EXPECT_EQ(logits(1), -0x1.a3e53ep+0f);
    EXPECT_EQ(logits(2), 0x1.343e1ap+1f);
}

// ---------------------------------------------------------------------
// Compressed-domain forward: exact against the lutDot contract for
// every tier, B, input width (1 and 13 = tail-only rows, 257 = a tail
// after full 16-groups) and sequence length (1 = the pooler; 7..9,
// 15..17, 31..33 bracket the 8- and 16-token blocks per call), and
// within tolerance of the paper's bucket order. Random GOBO-quantized
// layers (QuantizedLinearTest.PackedFuzzAcrossRandomLayers) add ragged
// shapes whose row bit offsets straddle byte and group boundaries.

/** Run `layer` on `x` on every tier: exact against the contract and
 * within 1e-5 of |bias| + sum |w x| of the paper's bucket order. */
void
expectForwardMatchesReferences(const QuantizedTensor &qt,
                               const Tensor &bias, const Tensor &x,
                               const std::string &where)
{
    QuantizedLinear layer(qt, bias);
    Tensor exact = contractReference(qt, bias, x);
    Tensor paper = scalarReference(qt, bias, x);
    Tensor w = qt.dequantize();
    for (const KernelSet *tier : allTiers()) {
        Tensor y = layer.forward(tierCtx(*tier), x);
        ASSERT_EQ(y.rows(), x.rows());
        ASSERT_EQ(y.cols(), qt.rows);
        for (std::size_t s = 0; s < x.rows(); ++s)
            for (std::size_t o = 0; o < qt.rows; ++o) {
                ASSERT_EQ(y(s, o), exact(s, o))
                    << where << " tier=" << tier->name << " s=" << s
                    << " o=" << o;
                double mag = std::abs(bias(o));
                for (std::size_t i = 0; i < qt.cols; ++i)
                    mag += std::abs(static_cast<double>(w(o, i))
                                    * x(s, i));
                ASSERT_LE(std::abs(static_cast<double>(y(s, o))
                                   - paper(s, o)),
                          1e-5 * mag)
                    << where << " s=" << s << " o=" << o;
            }
    }
}

TEST(QexecTile, ForwardMatchesScalarReferenceEverywhere)
{
    const std::size_t out = 10;
    const std::vector<std::size_t> seqs = {1, 7, 8, 9, 15, 16,
                                           17, 31, 32, 33};
    for (unsigned bits = 2; bits <= 8; ++bits)
        for (std::size_t in : {std::size_t{1}, std::size_t{13},
                               std::size_t{24}, std::size_t{64},
                               std::size_t{257}}) {
            QuantizedTensor qt =
                syntheticLayer(out, in, bits, 1000 * bits + in);
            Tensor bias(out);
            {
                auto bv = randomVec(out, 2000 + bits);
                std::copy(bv.begin(), bv.end(), bias.flat().begin());
            }
            Tensor x33 = randomTensor(33, in, 3000 + 17 * in + bits);
            for (std::size_t seq : seqs) {
                expectForwardMatchesReferences(
                    qt, bias, leadingRows(x33, seq),
                    "bits=" + std::to_string(bits) + " in="
                        + std::to_string(in) + " seq="
                        + std::to_string(seq));
                if (HasFatalFailure())
                    return;
            }
        }
}

TEST(QuantizedLinearTest, PackedFuzzAcrossRandomLayers)
{
    // Random ragged GOBO-quantized layers: B in [2, 8], 1..24 rows of
    // 1..56 weights, planted outliers, 1..5 tokens. Row bit offsets
    // straddle byte and group boundaries; every tier must stay exact
    // against the contract.
    Rng rng(471);
    for (int trial = 0; trial < 40; ++trial) {
        auto bits = static_cast<unsigned>(rng.integer(2, 8));
        auto rows = static_cast<std::size_t>(rng.integer(1, 24));
        auto in = static_cast<std::size_t>(rng.integer(1, 56));
        Tensor w(rows, in);
        rng.fillGaussian(w.data(), 0.0, 0.05);
        if (rows > 1 && in > 1) {
            w(0, in - 1) = 0.9f; // force the outlier-correction path
            w(rows - 1, 0) = -0.85f;
        }
        GoboConfig cfg;
        cfg.bits = bits;
        QuantizedTensor qt = quantizeTensor(w, cfg);
        Tensor bias(rows);
        rng.fillGaussian(bias.data(), 0.0, 0.1);
        auto seq = static_cast<std::size_t>(rng.integer(1, 5));
        Tensor x(seq, in);
        rng.fillGaussian(x.data(), 0.0, 1.0);
        expectForwardMatchesReferences(
            qt, bias, x,
            "trial " + std::to_string(trial) + " bits="
                + std::to_string(bits) + " out=" + std::to_string(rows)
                + " in=" + std::to_string(in));
        if (HasFatalFailure())
            return;
    }
}

TEST(QexecTile, WholeModelBitIdenticalAcrossTiers)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    GoldenSetup g = goldenSetup();
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    QuantizedBertModel qmodel(g.model, qopt);

    // encode() is FC layers + attention/norm glue; only compare the FC
    // outputs tier-to-tier, which means going through one layer
    // directly: encode/classify mix in dense row ops that legitimately
    // differ at tolerance. Drive the first FC via identical inputs.
    Tensor x = randomTensor(13, qmodel.config().hidden, 4242);
    std::vector<const QuantizedLinear *> layers;
    qmodel.forEachLayer([&](const QuantizedLinear &l) {
        layers.push_back(&l);
    });
    ASSERT_FALSE(layers.empty());
    const QuantizedLinear &first = *layers.front();
    Tensor a = first.forward(tierCtx(genericKernels()), x);
    for (const KernelSet *simd : simdTiers()) {
        Tensor b = first.forward(tierCtx(*simd), x);
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a.flat()[i], b.flat()[i])
                << simd->name << " i=" << i;
    }
}

TEST(QexecTile, PaperWidthBitIdenticalAcrossTiersAndThreads)
{
    // DistilBERT's two FFN shapes, GOBO-quantized with the default
    // settings (3 bits, default outlier threshold), so the rows carry
    // real outlier densities and the parallel grid splits into
    // multi-row blocks. Every tier x thread count x sequence length
    // must reproduce the scalar contract exactly.
    for (auto [in, out] : {std::pair<std::size_t, std::size_t>{768, 3072},
                           std::pair<std::size_t, std::size_t>{3072, 768}}) {
        SCOPED_TRACE(std::to_string(in) + "->" + std::to_string(out));
        Tensor w(out, in);
        Rng rng(in * 7 + out);
        rng.fillGaussian(w.data(), 0.0, 0.04);
        QuantizedTensor qt = quantizeTensor(w, GoboConfig{});
        ASSERT_GT(qt.outlierPositions.size(), 0u);
        Tensor bias(out);
        rng.fillGaussian(bias.data(), 0.0, 0.1);
        QuantizedLinear layer(qt, bias);

        Tensor x128 = randomTensor(128, in, in + out);
        Tensor ref = contractReference(qt, bias, x128);
        std::vector<std::size_t> seqs;
        for (std::size_t seq = 1; seq <= 17; ++seq)
            seqs.push_back(seq);
        seqs.push_back(128);
        for (std::size_t seq : seqs) {
            Tensor x = leadingRows(x128, seq);
            for (const KernelSet *tier : allTiers())
                for (std::size_t threads : {1u, 4u}) {
                    ExecContext ctx = threads == 1
                                          ? ExecContext::serial()
                                          : ExecContext::parallel(
                                                threads);
                    ctx.kernels = tier;
                    Tensor y = layer.forward(ctx, x);
                    std::size_t bad = 0;
                    for (std::size_t i = 0; i < y.size(); ++i)
                        bad += y.flat()[i] != ref.flat()[i] ? 1 : 0;
                    ASSERT_EQ(bad, 0u)
                        << tier->name << " threads=" << threads
                        << " seq=" << seq;
                }
        }
    }
}

// ---------------------------------------------------------------------
// lutDot on its own: every tier reads the packed stream and reproduces
// the contract for every B, row width, bit phase, row and token count,
// stride and table size.

/** `idx` packed at `bits` per index, sized exactly to its bytes so an
 * address sanitizer flags any read past the end. */
std::vector<std::uint8_t>
packStream(const std::vector<std::uint8_t> &idx, unsigned bits)
{
    std::vector<std::uint32_t> wide(idx.begin(), idx.end());
    auto bytes = packIndexes(wide, bits);
    EXPECT_EQ(bytes.size(), (idx.size() * bits + 7) / 8);
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

TEST(LutKernels, MatchesContractOnEveryTier)
{
    // Each call ends at the tensor's last row, so the last groups'
    // loads meet the end of the stream; odd `in` starts rows mid-byte
    // (the B = 4 fallback of the avx512 VBMI path).
    std::mt19937_64 eng(7);
    constexpr std::size_t kRows = 9, kMaxSeq = 17;
    const std::size_t seqs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17};
    for (unsigned bits = 1; bits <= 8; ++bits) {
        std::size_t k = std::size_t{1} << bits;
        auto table = randomVec(k, eng());
        for (std::size_t in : {std::size_t{1}, std::size_t{13},
                               std::size_t{24}, std::size_t{64},
                               std::size_t{257}, std::size_t{768},
                               std::size_t{3072}}) {
            std::vector<std::uint8_t> idx(kRows * in);
            for (auto &v : idx)
                v = static_cast<std::uint8_t>(eng() % k);
            const auto stream = packStream(idx, bits);
            // Rows `in + 3` apart: the kernel must honour ldx.
            const std::size_t ldx = in + 3;
            auto x = randomVec(kMaxSeq * ldx, eng());
            std::vector<float> want(kRows * kMaxSeq);
            for (std::size_t r = 0; r < kRows; ++r)
                for (std::size_t s = 0; s < kMaxSeq; ++s)
                    want[r * kMaxSeq + s] =
                        contractSum(idx.data() + r * in, in, table.data(),
                                    x.data() + s * ldx);
            for (const KernelSet *tier : allTiers())
                for (std::size_t rows = 1; rows <= kRows; ++rows)
                    for (std::size_t seq : seqs) {
                        const std::size_t r0 = kRows - rows;
                        std::vector<float> sums(rows * seq, kNan);
                        tier->lutDot(stream.data(), stream.size(),
                                     r0 * in * bits, bits, rows, in,
                                     table.data(), k, x.data(), ldx, seq,
                                     sums.data());
                        for (std::size_t r = 0; r < rows; ++r)
                            for (std::size_t s = 0; s < seq; ++s)
                                ASSERT_EQ(sums[r * seq + s],
                                          want[(r0 + r) * kMaxSeq + s])
                                    << tier->name << " bits=" << bits
                                    << " in=" << in << " rows=" << rows
                                    << " seq=" << seq << " r=" << r
                                    << " s=" << s;
                    }
        }
    }
}

TEST(LutKernels, BlockingAndTableSizeInvariant)
{
    // A (row, token) sum must not depend on how many rows and tokens
    // share the call (every micro-tile shape and remainder: 1..9 rows,
    // past two full 4-row tiles and qexec's 8-row chunk; 1..17 and
    // 31..33 tokens), and tables shorter than 2^B — which the SIMD
    // lookups pad, with zeros or by repeating the table — must look
    // up the same centroids as a full one, at the narrowest B that
    // holds k and at one bit wider.
    std::mt19937_64 eng(19);
    const std::size_t in = 40, max_rows = 9, max_seq = 33;
    for (const KernelSet *tier : allTiers()) {
        SCOPED_TRACE(tier->name);
        for (std::size_t k : {std::size_t{3}, std::size_t{8},
                              std::size_t{11}, std::size_t{17},
                              std::size_t{32}, std::size_t{33},
                              std::size_t{200}}) {
            auto table = randomVec(k, eng());
            std::vector<std::uint8_t> idx(max_rows * in);
            for (auto &v : idx)
                v = static_cast<std::uint8_t>(eng() % k);
            auto x = randomVec(max_seq * in, eng());
            const auto narrow = static_cast<unsigned>(std::bit_width(k - 1));
            for (unsigned bits : {narrow, std::min(narrow + 1, 8u)}) {
                const auto stream = packStream(idx, bits);
                auto call = [&](std::size_t r0, std::size_t rows,
                                const float *xs, std::size_t seq,
                                float *sums) {
                    tier->lutDot(stream.data(), stream.size(),
                                 r0 * in * bits, bits, rows, in,
                                 table.data(), k, xs, in, seq, sums);
                };
                std::vector<float> one(max_rows * max_seq);
                for (std::size_t r = 0; r < max_rows; ++r)
                    for (std::size_t s = 0; s < max_seq; ++s) {
                        float &v = one[r * max_seq + s];
                        call(r, 1, x.data() + s * in, 1, &v);
                        ASSERT_EQ(v, contractSum(idx.data() + r * in, in,
                                                 table.data(),
                                                 x.data() + s * in))
                            << "k=" << k << " bits=" << bits << " r=" << r
                            << " s=" << s;
                    }
                for (std::size_t rows = 1; rows <= max_rows; ++rows)
                    for (std::size_t seq = 1; seq <= max_seq; ++seq) {
                        if (seq > 17 && seq < 31)
                            continue;
                        std::vector<float> sums(rows * seq);
                        call(0, rows, x.data(), seq, sums.data());
                        for (std::size_t r = 0; r < rows; ++r)
                            for (std::size_t s = 0; s < seq; ++s)
                                ASSERT_EQ(sums[r * seq + s],
                                          one[r * max_seq + s])
                                    << "k=" << k << " bits=" << bits
                                    << " rows=" << rows << " seq=" << seq
                                    << " r=" << r << " s=" << s;
                    }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed-row decode: integer-exact on every tier, for every B,
// unaligned bit offsets, and lengths around the 16-index group. Short
// buffers (no slack past the last packed byte) exercise the expander's
// load guard.

TEST(DecodeRow, MatchesBitstreamReferenceEveryTier)
{
    std::mt19937_64 eng(99);
    auto tiers = allTiers();
    for (std::uint32_t b = 2; b <= 8; ++b) {
        for (std::size_t n :
             {std::size_t{1}, std::size_t{7}, std::size_t{63},
              std::size_t{64}, std::size_t{65}, std::size_t{127},
              std::size_t{129}, std::size_t{300}}) {
            for (std::size_t off : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{8},
                                    std::size_t{21}}) {
                // Exactly the bytes the stream needs — the bulk paths
                // must not read past byteLen.
                std::size_t total_bits = off + n * b;
                std::vector<std::uint8_t> bytes((total_bits + 7) / 8);
                for (auto &v : bytes)
                    v = static_cast<std::uint8_t>(eng());

                std::vector<std::uint8_t> ref(n);
                std::uint32_t mask = (1u << b) - 1u;
                for (std::size_t i = 0; i < n; ++i) {
                    std::size_t bit = off + i * b;
                    std::uint32_t window = bytes[bit / 8];
                    if (bit % 8 + b > 8)
                        window |= static_cast<std::uint32_t>(
                                      bytes[bit / 8 + 1])
                                  << 8;
                    ref[i] = static_cast<std::uint8_t>(
                        (window >> (bit % 8)) & mask);
                }

                for (const KernelSet *tier : tiers) {
                    std::vector<std::uint8_t> out(n, 0xAA);
                    tier->decodePackedRow(bytes.data(), bytes.size(),
                                          off, b, n, out.data());
                    for (std::size_t i = 0; i < n; ++i)
                        ASSERT_EQ(out[i], ref[i])
                            << tier->name << " b=" << b << " n=" << n
                            << " off=" << off << " i=" << i;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dense/row kernels: AVX2 matches generic to tolerance on every tail
// length (the vector kernels switch to scalar tails mid-row).

TEST(DenseKernels, DotToleranceFuzzWithTails)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    const KernelSet &gen = genericKernels();
    for (std::size_t n : kFuzzLengths) {
        auto a = randomVec(n, 10 + n);
        auto b = randomVec(n, 20 + n);
        double ref = 0.5;
        double sum_abs = 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            double p = static_cast<double>(a[i]) * b[i];
            ref += p;
            sum_abs += std::abs(p);
        }
        double tol = 1e-5 * sum_abs;
        EXPECT_NEAR(gen.dot(0.5f, a.data(), b.data(), n), ref, tol)
            << n;
        for (const KernelSet *simd : simdTiers())
            EXPECT_NEAR(simd->dot(0.5f, a.data(), b.data(), n), ref,
                        tol)
                << simd->name << " n=" << n;
    }
}

TEST(DenseKernels, AxpyToleranceFuzzWithTails)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    const KernelSet &gen = genericKernels();
    for (std::size_t n : kFuzzLengths) {
        auto x = randomVec(n, 30 + n);
        auto y0 = randomVec(n, 40 + n);
        auto yg = y0;
        gen.axpy(0.75f, x.data(), yg.data(), n);
        for (const KernelSet *simd : simdTiers()) {
            auto ya = y0;
            simd->axpy(0.75f, x.data(), ya.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(yg[i], ya[i],
                            1e-6 * (1.0 + std::abs(yg[i])))
                    << simd->name << " n=" << n << " i=" << i;
        }
    }
}

TEST(RowKernels, ToleranceFuzzWithTails)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    const KernelSet &gen = genericKernels();
    for (const KernelSet *simd : simdTiers()) {
        SCOPED_TRACE(simd->name);
        for (std::size_t n : kFuzzLengths) {
            auto gamma = randomVec(n, 50 + n);
            auto beta = randomVec(n, 60 + n);

            auto sg = randomVec(n, 70 + n, 2.0f);
            auto sa = sg;
            gen.softmaxRow(sg.data(), n);
            simd->softmaxRow(sa.data(), n);
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_NEAR(sg[i], sa[i], 1e-5) << "softmax n=" << n;
                sum += sa[i];
            }
            EXPECT_NEAR(sum, 1.0, 1e-4) << n;

            auto lg = randomVec(n, 80 + n, 2.0f);
            auto la = lg;
            gen.layerNormRow(lg.data(), n, gamma.data(), beta.data(),
                             1e-5f);
            simd->layerNormRow(la.data(), n, gamma.data(), beta.data(),
                               1e-5f);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(lg[i], la[i],
                            1e-4 * (1.0 + std::abs(lg[i])))
                    << "layernorm n=" << n << " i=" << i;

            auto gg = randomVec(n, 90 + n, 2.0f);
            auto ga = gg;
            gen.geluRow(gg.data(), n);
            simd->geluRow(ga.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(gg[i], ga[i],
                            1e-5 * (1.0 + std::abs(gg[i])))
                    << "gelu n=" << n << " i=" << i;

            auto tg = randomVec(n, 100 + n, 3.0f);
            auto ta = tg;
            gen.tanhRow(tg.data(), n);
            simd->tanhRow(ta.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(tg[i], ta[i], 1e-5) << "tanh n=" << n;
        }
    }
}

TEST(RowKernels, DenseForwardCloseAcrossTiers)
{
    // End-to-end tolerance: whole FP32 logits generic vs each SIMD
    // tier agree to a few decimal places (reassociation only, no
    // algorithm change).
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    GoldenSetup g = goldenSetup();
    InferenceSession sg(g.model, tierCtx(genericKernels()));
    Tensor lg = sg.headLogits(g.tokens);
    for (const KernelSet *simd : simdTiers()) {
        InferenceSession sa(g.model, tierCtx(*simd));
        Tensor la = sa.headLogits(g.tokens);
        ASSERT_EQ(lg.size(), la.size());
        for (std::size_t i = 0; i < lg.size(); ++i)
            EXPECT_NEAR(lg(i), la(i), 1e-3 * (1.0 + std::abs(lg(i))))
                << simd->name << " i=" << i;
    }
}

// ---------------------------------------------------------------------
// NaN/Inf propagation: vector min/max/blend tricks must not launder
// non-finite values on either tier.

TEST(NanInf, PropagatesThroughEveryKernel)
{
    for (const KernelSet *tier : allTiers()) {
        const KernelSet &kn = *tier;
        SCOPED_TRACE(kn.name);

        for (std::size_t n : {std::size_t{9}, std::size_t{33}}) {
            // dot: NaN anywhere poisons the sum; 0 * Inf is NaN (the
            // kernel must not skip zero products).
            auto a = randomVec(n, n);
            auto b = randomVec(n, n + 1);
            auto an = a;
            an[n / 2] = kNan;
            EXPECT_TRUE(std::isnan(kn.dot(0.0f, an.data(), b.data(), n)));
            auto bz = b;
            auto ai = a;
            ai[n - 1] = kInf;
            bz[n - 1] = 0.0f;
            EXPECT_TRUE(std::isnan(kn.dot(0.0f, ai.data(), bz.data(), n)));

            // axpy with a = 0 against Inf input: 0 * Inf = NaN lands.
            auto y = randomVec(n, n + 2);
            kn.axpy(0.0f, ai.data(), y.data(), n);
            EXPECT_TRUE(std::isnan(y[n - 1]));
            for (std::size_t i = 0; i + 1 < n; ++i)
                EXPECT_FALSE(std::isnan(y[i])) << i;

            // softmax: NaN poisons the whole row; so does +Inf — the
            // max-subtraction yields Inf - Inf = NaN at the Inf slot
            // and the NaN spreads through the normalising sum. That is
            // the historical scalar behaviour and both tiers keep it.
            auto sn = randomVec(n, n + 3);
            sn[1] = kNan;
            kn.softmaxRow(sn.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(std::isnan(sn[i])) << i;
            auto si = randomVec(n, n + 4);
            si[2] = kInf;
            kn.softmaxRow(si.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(std::isnan(si[i])) << i;

            // layernorm: NaN spreads through the row statistics.
            auto ln = randomVec(n, n + 5);
            ln[0] = kNan;
            auto gamma = randomVec(n, n + 6);
            auto beta = randomVec(n, n + 7);
            kn.layerNormRow(ln.data(), n, gamma.data(), beta.data(),
                            1e-5f);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(std::isnan(ln[i])) << i;

            // gelu: NaN stays NaN; +Inf -> +Inf; -Inf -> NaN
            // (0.5 * -Inf * (1 + tanh(-Inf)) = -Inf * 0).
            float gl[3] = {kNan, kInf, -kInf};
            kn.geluRow(gl, 3);
            EXPECT_TRUE(std::isnan(gl[0]));
            EXPECT_EQ(gl[1], kInf);
            EXPECT_TRUE(std::isnan(gl[2]));

            // tanh: saturates exactly at +-1 for +-Inf, NaN stays.
            float th[3] = {kNan, kInf, -kInf};
            kn.tanhRow(th, 3);
            EXPECT_TRUE(std::isnan(th[0]));
            EXPECT_EQ(th[1], 1.0f);
            EXPECT_EQ(th[2], -1.0f);

            // lutDot: a NaN or Inf activation reaches exactly its own
            // token's sum; an infinite centroid times a zero
            // activation is NaN (no zero-skip); and the lanes past the
            // last input stay untouched, so an infinite table[0] that
            // no index selects cannot leak in through a masked tail.
            std::size_t in = n, k = 4;
            std::vector<std::uint8_t> idx(in);
            for (std::size_t i = 0; i < in; ++i)
                idx[i] = static_cast<std::uint8_t>(1 + i % (k - 1));
            std::vector<float> table = {kInf, 0.5f, -1.0f, 2.0f};
            std::vector<float> x(3 * in, 1.0f);
            x[0 * in + 2] = kNan; // token 0
            x[1 * in + 3] = kInf; // token 1, centroid 0.5 at i = 3
            float sums[3];
            auto stream = packStream(idx, 2);
            kn.lutDot(stream.data(), stream.size(), 0, 2, 1, in,
                      table.data(), k, x.data(), in, 3, sums);
            EXPECT_TRUE(std::isnan(sums[0]));
            EXPECT_EQ(sums[1], kInf);
            EXPECT_TRUE(std::isfinite(sums[2]));
            idx[in - 1] = 0; // the Inf centroid, against x = 0
            x[2 * in + in - 1] = 0.0f;
            stream = packStream(idx, 2);
            kn.lutDot(stream.data(), stream.size(), 0, 2, 1, in,
                      table.data(), k, x.data(), in, 3, sums);
            EXPECT_TRUE(std::isnan(sums[2]));
        }
    }
}

} // namespace
} // namespace gobo
