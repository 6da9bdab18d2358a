/**
 * @file
 * Tests for the SIMD kernel layer (kernels/kernels.hh).
 *
 * Pins down the tier contract of DESIGN.md §11:
 *   - the generic tier is bit-identical to the pre-kernel-layer
 *     scalar code (golden logits captured before the refactor);
 *   - the sequence-tiled bucket kernels are bit-identical across
 *     tiers (compressed-domain FC outputs never depend on the tier),
 *     asserted per-lane against a scalar reference at each tier's own
 *     seqTile width (8 for generic/avx2, 16 for avx512);
 *   - packed-row decode (KernelSet::decodePackedRow) is integer-exact
 *     on every tier, for every B, unaligned bit offsets, and lengths
 *     around the 64-index bulk-group boundary;
 *   - the dense/row SIMD kernels match generic to tolerance, on every
 *     masked-tail length, and propagate NaN/Inf exactly.
 * AVX2 cases skip on hosts without AVX2+FMA; AVX-512 cases skip (with
 * a message) on hosts without F+BW+DQ+VL or when the build lacks the
 * tier.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
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

/**
 * The historical scalar compressed-domain forward, reconstructed from
 * the public QuantizedTensor fields: per (o, s), fill the buckets in
 * ascending-i order, fold the centroid table in ascending-c order from
 * the bias, apply outlier corrections in position order — all in
 * double. QuantizedLinear::forward on any tier/backend/format must
 * reproduce this bit-for-bit.
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

    std::vector<std::vector<std::pair<std::uint32_t, float>>> row_out(
        out);
    for (std::size_t o = 0; o < qt.outlierPositions.size(); ++o) {
        std::uint32_t pos = qt.outlierPositions[o];
        std::uint32_t row = pos / static_cast<std::uint32_t>(in);
        std::uint32_t col = pos % static_cast<std::uint32_t>(in);
        float corr =
            qt.outlierValues[o] - qt.centroids[qt.indexAt(pos)];
        row_out[row].emplace_back(col, corr);
    }

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
    EXPECT_NE(g.bucketAccTile, nullptr);
    EXPECT_NE(g.centroidDotTile, nullptr);
    EXPECT_NE(g.outlierTile, nullptr);
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
// Golden bit-identity: the generic tier reproduces the exact logits the
// repo produced before the kernel layer existed (hex floats captured
// from the pre-refactor build). This is the GOBO_KERNEL=generic
// acceptance contract, asserted rather than benched.

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
    qopt.format = WeightFormat::Packed;
    InferenceSession session(QuantizedBertModel(g.model, qopt),
                             tierCtx(genericKernels()));
    Tensor logits = session.headLogits(g.tokens);
    ASSERT_EQ(logits.size(), 3u);
    EXPECT_EQ(logits(0), 0x1.6a7ebp-1f);
    EXPECT_EQ(logits(1), -0x1.a3e54p+0f);
    EXPECT_EQ(logits(2), 0x1.343e1ep+1f);
}

// ---------------------------------------------------------------------
// Sequence-tiled compressed-domain forward: exact against the
// historical scalar loop, for every tier, format, and awkward sequence
// length (1 = the pooler path; 7/9/13 = partial tail tiles; 8 = one
// exact tile).

TEST(QexecTile, ForwardMatchesScalarReferenceEverywhere)
{
    std::vector<const KernelSet *> tiers = allTiers();

    std::size_t in = 24, out = 10;
    for (unsigned bits : {2u, 3u, 4u}) {
        GoboConfig cfg;
        cfg.bits = bits;
        Tensor w = randomTensor(out, in, 1000 + bits);
        Tensor bias(out);
        {
            auto bv = randomVec(out, 2000 + bits);
            std::copy(bv.begin(), bv.end(), bias.flat().begin());
        }
        QuantizedTensor qt = quantizeTensor(w, cfg);
        ASSERT_GT(qt.outlierPositions.size(), 0u)
            << "fuzz layer should have outliers to cover phase 3";

        // 1 = the pooler path; 7/8/9/13 = partial and exact 8-lane
        // tiles; 15/16/17 and 31/32/33 bracket the avx512 16-lane
        // tile and its masked tails.
        for (std::size_t seq :
             {std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, std::size_t{13}, std::size_t{15},
              std::size_t{16}, std::size_t{17}, std::size_t{31},
              std::size_t{32}, std::size_t{33}}) {
            Tensor x = randomTensor(seq, in, 3000 + seq * 17 + bits);
            Tensor ref = scalarReference(qt, bias, x);
            for (auto fmt :
                 {WeightFormat::Unpacked, WeightFormat::Packed}) {
                QuantizedLinear layer(qt, bias, fmt);
                for (const KernelSet *tier : tiers) {
                    Tensor y = layer.forward(tierCtx(*tier), x);
                    ASSERT_EQ(y.rows(), seq);
                    ASSERT_EQ(y.cols(), out);
                    for (std::size_t s = 0; s < seq; ++s)
                        for (std::size_t o = 0; o < out; ++o)
                            EXPECT_EQ(y(s, o), ref(s, o))
                                << "tier=" << tier->name
                                << " fmt=" << weightFormatName(fmt)
                                << " bits=" << bits << " seq=" << seq
                                << " s=" << s << " o=" << o;
                }
            }
        }
    }
}

TEST(QexecTile, OpCountsUnchangedBySequenceTiling)
{
    // The tiled loop must count per real lane, not per padded tile:
    // counts are closed-form in (seq, in, k, outliers).
    std::size_t in = 24, out = 10;
    Tensor w = randomTensor(out, in, 77);
    Tensor bias(out);
    QuantizedTensor qt = quantizeTensor(w, GoboConfig{});
    QuantizedLinear layer(qt, bias, WeightFormat::Unpacked);
    for (std::size_t seq : {std::size_t{1}, std::size_t{9}}) {
        Tensor x = randomTensor(seq, in, 88 + seq);
        OpCounts measured;
        layer.forward(ExecContext::serial(), x, &measured);
        OpCounts expected = layer.opCounts(seq);
        EXPECT_EQ(measured.additions, expected.additions) << seq;
        EXPECT_EQ(measured.multiplications, expected.multiplications)
            << seq;
    }
}

TEST(QexecTile, WholeModelBitIdenticalAcrossTiers)
{
    if (simdTiers().empty())
        GTEST_SKIP() << "no SIMD tier available on this host";
    GoldenSetup g = goldenSetup();
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    qopt.format = WeightFormat::Packed;
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

// ---------------------------------------------------------------------
// Direct bucket-kernel fuzz: AVX2 tile kernels are bit-identical to
// generic for arbitrary bucket counts and outlier densities.

TEST(BucketKernels, TilePhasesExactAcrossTiers)
{
    SKIP_WITHOUT_AVX2();
    const KernelSet &gen = genericKernels();
    std::mt19937_64 eng(7);
    for (unsigned bits = 2; bits <= 8; ++bits) {
        std::size_t k = std::size_t{1} << bits;
        for (std::size_t in : {std::size_t{1}, std::size_t{13},
                               std::size_t{64}, std::size_t{257}}) {
            std::vector<std::uint8_t> irow(in);
            for (auto &v : irow)
                v = static_cast<std::uint8_t>(eng() % k);
            auto xt = randomVec(in * kSeqTile, eng());

            std::vector<double> bucket_g(k * kSeqTile, -1.0);
            std::vector<double> bucket_a(k * kSeqTile, -1.0);
            gen.bucketAccTile(irow.data(), in, xt.data(),
                              bucket_g.data(), k);
            avx2->bucketAccTile(irow.data(), in, xt.data(),
                                bucket_a.data(), k);
            for (std::size_t i = 0; i < bucket_g.size(); ++i)
                ASSERT_EQ(bucket_g[i], bucket_a[i])
                    << "bits=" << bits << " in=" << in << " i=" << i;

            auto centroids = randomVec(k, eng());
            double acc_g[kSeqTile], acc_a[kSeqTile];
            gen.centroidDotTile(centroids.data(), k, bucket_g.data(),
                                0.25, acc_g);
            avx2->centroidDotTile(centroids.data(), k, bucket_a.data(),
                                  0.25, acc_a);
            for (std::size_t l = 0; l < kSeqTile; ++l)
                ASSERT_EQ(acc_g[l], acc_a[l]) << l;

            // Outlier densities from none to ~half the row.
            for (std::size_t n_out :
                 {std::size_t{0}, std::size_t{1}, in / 2}) {
                std::vector<OutlierTerm> terms;
                for (std::size_t t = 0; t < n_out; ++t)
                    terms.push_back(
                        {static_cast<std::uint32_t>(eng() % in),
                         static_cast<float>(
                             static_cast<double>(eng() % 1000) / 250.0
                             - 2.0)});
                double og[kSeqTile], oa[kSeqTile];
                std::copy(acc_g, acc_g + kSeqTile, og);
                std::copy(acc_a, acc_a + kSeqTile, oa);
                gen.outlierTile(terms.data(), terms.size(), xt.data(),
                                og);
                avx2->outlierTile(terms.data(), terms.size(), xt.data(),
                                  oa);
                for (std::size_t l = 0; l < kSeqTile; ++l)
                    ASSERT_EQ(og[l], oa[l])
                        << "n_out=" << n_out << " l=" << l;
            }
        }
    }
}

TEST(BucketKernels, TilePhasesMatchPerLaneReferenceAtNativeWidth)
{
    // Each tier's tile kernels at the tier's own seqTile width against
    // a per-lane scalar reference (ascending i / c / outlier order,
    // double mul-then-add) — the same contract scalarReference() pins
    // end-to-end, here per kernel so a 16-lane avx512 tile is checked
    // lane by lane rather than through an 8-lane peer.
    std::mt19937_64 eng(19);
    for (const KernelSet *tier : allTiers()) {
        const KernelSet &kn = *tier;
        const std::size_t tile = kn.seqTile;
        SCOPED_TRACE(kn.name);
        for (unsigned bits = 2; bits <= 8; bits += 3) {
            std::size_t k = std::size_t{1} << bits;
            for (std::size_t in : {std::size_t{1}, std::size_t{13},
                                   std::size_t{64}, std::size_t{257}}) {
                std::vector<std::uint8_t> irow(in);
                for (auto &v : irow)
                    v = static_cast<std::uint8_t>(eng() % k);
                auto xt = randomVec(in * tile, eng());

                std::vector<double> bucket(k * tile, -1.0);
                kn.bucketAccTile(irow.data(), in, xt.data(),
                                 bucket.data(), k);
                std::vector<double> ref(k * tile, 0.0);
                for (std::size_t i = 0; i < in; ++i)
                    for (std::size_t l = 0; l < tile; ++l)
                        ref[irow[i] * tile + l] +=
                            static_cast<double>(xt[i * tile + l]);
                for (std::size_t i = 0; i < bucket.size(); ++i)
                    ASSERT_EQ(bucket[i], ref[i])
                        << "bits=" << bits << " in=" << in
                        << " i=" << i;

                auto centroids = randomVec(k, eng());
                std::vector<double> acc(tile);
                kn.centroidDotTile(centroids.data(), k, bucket.data(),
                                   0.25, acc.data());
                std::vector<double> acc_ref(tile, 0.25);
                for (std::size_t c = 0; c < k; ++c)
                    for (std::size_t l = 0; l < tile; ++l)
                        acc_ref[l] += static_cast<double>(centroids[c])
                                      * bucket[c * tile + l];
                for (std::size_t l = 0; l < tile; ++l)
                    ASSERT_EQ(acc[l], acc_ref[l]) << l;

                std::vector<OutlierTerm> terms;
                for (std::size_t t = 0; t < in / 2 + 1; ++t)
                    terms.push_back(
                        {static_cast<std::uint32_t>(eng() % in),
                         static_cast<float>(
                             static_cast<double>(eng() % 1000) / 250.0
                             - 2.0)});
                auto out_ref = acc_ref;
                kn.outlierTile(terms.data(), terms.size(), xt.data(),
                               acc.data());
                for (const auto &term : terms)
                    for (std::size_t l = 0; l < tile; ++l)
                        out_ref[l] +=
                            static_cast<double>(term.correction)
                            * xt[term.column * tile + l];
                for (std::size_t l = 0; l < tile; ++l)
                    ASSERT_EQ(acc[l], out_ref[l]) << l;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed-row decode: integer-exact on every tier, for every B,
// unaligned bit offsets, and lengths bracketing the 64-index bulk
// group of the avx512 VBMI path. Short buffers (no slack past the
// last packed byte) exercise the bulk loop's load guard.

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
        const std::size_t tile = kn.seqTile;
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

            // bucket tile: a NaN/Inf lane contaminates exactly the
            // buckets its indexes touch, per lane — at the tier's own
            // tile width.
            std::size_t in = n, k = 4;
            std::vector<std::uint8_t> irow(in);
            for (std::size_t i = 0; i < in; ++i)
                irow[i] = static_cast<std::uint8_t>(i % k);
            std::vector<float> xt(in * tile, 1.0f);
            xt[0 * tile + 3] = kNan; // i = 0 (bucket 0), lane 3
            xt[1 * tile + 5] = kInf; // i = 1 (bucket 1), lane 5
            std::vector<double> bucket(k * tile);
            kn.bucketAccTile(irow.data(), in, xt.data(), bucket.data(),
                             k);
            EXPECT_TRUE(std::isnan(bucket[0 * tile + 3]));
            EXPECT_EQ(bucket[1 * tile + 5],
                      std::numeric_limits<double>::infinity());
            EXPECT_FALSE(std::isnan(bucket[0 * tile + 2]));

            // ...and flows through phases 2 and 3.
            std::vector<float> centroids(k, 1.0f);
            std::vector<double> acc(tile);
            kn.centroidDotTile(centroids.data(), k, bucket.data(), 0.0,
                               acc.data());
            EXPECT_TRUE(std::isnan(acc[3]));
            EXPECT_EQ(acc[5], std::numeric_limits<double>::infinity());
            OutlierTerm term{0, 2.0f};
            kn.outlierTile(&term, 1, xt.data(), acc.data());
            EXPECT_TRUE(std::isnan(acc[3]));
        }
    }
}

} // namespace
} // namespace gobo
