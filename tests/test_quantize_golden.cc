/**
 * @file
 * Bit-identity golden for the quantization drivers.
 *
 * One generated mini model is quantized at 2, 3 and 4 bits with each
 * centroid policy (GOBO, K-Means, Linear), each time with a 4-bit word
 * embedding. Every layer's quantized bytes — width, centroid bit
 * patterns, packed index stream, outlier positions and outlier value
 * bits — are folded into one FNV-1a digest whose value was pinned
 * before the clusterer's sort, assignment and packing loops were
 * rewritten. The same bytes must come out of every driver (the
 * QuantizedBertModel constructor, quantizeModelInPlace, and the GOBC
 * container read back record by record) at one and at four threads.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "core/container.hh"
#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "util/binio.hh"

namespace gobo {
namespace {

/** The pinned digest over every case's embedding and FC records. */
constexpr std::uint64_t kQuantizedDigest = 0x2ec583d4e9c13e26ull;

/**
 * Clustering iterations summed over the embedding and FC layers, per
 * case in goldenCases() order.
 */
constexpr std::array<std::size_t, 9> kIterations = {
    52, 790, 0,   // 2 bits: GOBO, K-Means, Linear
    239, 1723, 0, // 3 bits
    893, 3559, 0, // 4 bits
};

constexpr std::uint64_t kModelSeed = 2305;

/** 64-bit FNV-1a over raw bytes. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        bytes(&n, sizeof n);
        bytes(v.data(), v.size() * sizeof(T));
    }

    void
    tensor(const QuantizedTensor &q)
    {
        std::uint32_t bits = q.bits;
        bytes(&bits, sizeof bits);
        vec(q.centroids);
        vec(q.packedIndexes);
        vec(q.outlierPositions);
        vec(q.outlierValues);
    }
};

std::uint64_t
digestOf(const QuantizedTensor &q)
{
    Fnv1a f;
    f.tensor(q);
    return f.h;
}

std::vector<ModelQuantOptions>
goldenCases(std::size_t threads)
{
    std::vector<ModelQuantOptions> cases;
    for (unsigned bits : {2u, 3u, 4u}) {
        for (CentroidMethod method :
             {CentroidMethod::Gobo, CentroidMethod::KMeans,
              CentroidMethod::Linear}) {
            ModelQuantOptions o;
            o.base.bits = bits;
            o.base.method = method;
            o.embeddingBits = 4;
            o.threads = threads;
            cases.push_back(o);
        }
    }
    return cases;
}

const BertModel &
goldenModel()
{
    static const BertModel m =
        generateModel(miniConfig(ModelFamily::DistilBert), kModelSeed);
    return m;
}

/** One case quantized by direct, serial quantizeTensor calls. */
struct Reference
{
    QuantizedTensor embedding;
    std::vector<QuantizedTensor> fc; ///< BertModel::fcLayers() order.
    std::size_t embeddingIterations = 0;
    std::size_t fcIterations = 0;
};

Reference
reference(const ModelQuantOptions &o)
{
    BertModel m = goldenModel();
    Reference r;
    GoboConfig ecfg = o.base;
    ecfg.bits = o.embeddingBits;
    LayerQuantStats stats;
    r.embedding = quantizeTensor(m.wordEmbedding, ecfg, &stats);
    r.embeddingIterations = stats.iterations;
    for (const auto &layer : m.fcLayers()) {
        GoboConfig cfg = o.base;
        cfg.bits = o.effectiveBits(layer.kind, layer.encoder);
        r.fc.push_back(quantizeTensor(*layer.weight, cfg, &stats));
        r.fcIterations += stats.iterations;
    }
    return r;
}

const std::vector<Reference> &
references()
{
    static const std::vector<Reference> refs = [] {
        std::vector<Reference> out;
        for (const auto &o : goldenCases(1))
            out.push_back(reference(o));
        return out;
    }();
    return refs;
}

/**
 * Read a GOBC stream back record by record: the quantized embedding
 * and FC tensors exactly as stored, skipping the FP32 parts.
 */
Reference
readContainerRecords(std::istream &is, const BertModel &shape)
{
    readPod<std::uint32_t>(is); // magic
    readPod<std::uint32_t>(is); // version
    readPod<std::uint32_t>(is); // family
    for (int i = 0; i < 6; ++i)
        readPod<std::uint64_t>(is); // config dimensions
    readString(is);                 // config name
    readPod<std::uint64_t>(is);     // head rows
    EXPECT_EQ(readPod<std::uint32_t>(is), 4u); // embedding bits
    Reference r;
    r.embedding = QuantizedTensor::load(is);
    for (int i = 0; i < 3; ++i)
        readTensor(is); // position embedding, embedding layer norm
    for (std::size_t i = 0; i < shape.fcLayers().size(); ++i)
        r.fc.push_back(QuantizedTensor::load(is));
    return r;
}

TEST(QuantizeGolden, DirectCallsMatchPinnedDigest)
{
    Fnv1a all;
    for (std::size_t c = 0; c < references().size(); ++c) {
        const Reference &r = references()[c];
        all.tensor(r.embedding);
        for (const auto &q : r.fc)
            all.tensor(q);
        EXPECT_EQ(r.embeddingIterations + r.fcIterations, kIterations[c])
            << "case " << c;
    }
    EXPECT_EQ(all.h, kQuantizedDigest);
}

TEST(QuantizeGolden, ConstructorMatchesAtOneAndFourThreads)
{
    for (std::size_t threads : {1u, 4u}) {
        auto cases = goldenCases(threads);
        for (std::size_t c = 0; c < cases.size(); ++c) {
            QuantizedBertModel qm(goldenModel(), cases[c]);
            std::size_t i = 0;
            qm.forEachLayer([&](const QuantizedLinear &l) {
                ASSERT_LT(i, references()[c].fc.size());
                EXPECT_EQ(digestOf(l.compressed()),
                          digestOf(references()[c].fc[i]))
                    << "threads " << threads << " case " << c
                    << " layer " << i;
                ++i;
            });
            EXPECT_EQ(i, references()[c].fc.size());
        }
    }
}

TEST(QuantizeGolden, InPlaceMatchesAtOneAndFourThreads)
{
    for (std::size_t threads : {1u, 4u}) {
        auto cases = goldenCases(threads);
        for (std::size_t c = 0; c < cases.size(); ++c) {
            const Reference &r = references()[c];
            BertModel m = goldenModel();
            auto report = quantizeModelInPlace(m, cases[c]);
            EXPECT_EQ(m.wordEmbedding.data(),
                      r.embedding.dequantize().data());
            auto layers = m.fcLayers();
            ASSERT_EQ(layers.size(), r.fc.size());
            ASSERT_EQ(report.layers.size(), r.fc.size());
            std::size_t iterations = 0;
            for (std::size_t i = 0; i < layers.size(); ++i) {
                EXPECT_EQ(layers[i].weight->data(),
                          r.fc[i].dequantize().data())
                    << "threads " << threads << " case " << c << " "
                    << layers[i].name;
                EXPECT_EQ(report.layers[i].payloadBytes,
                          r.fc[i].payloadBytes());
                iterations += report.layers[i].stats.iterations;
            }
            // The report carries no embedding stats: its FC share
            // must match the reference's.
            EXPECT_EQ(iterations, r.fcIterations)
                << "threads " << threads << " case " << c;
        }
    }
}

TEST(QuantizeGolden, ContainerRecordsMatchAtOneAndFourThreads)
{
    std::string bytesAtOne;
    for (std::size_t threads : {1u, 4u}) {
        Fnv1a all;
        std::string bytes;
        auto cases = goldenCases(threads);
        for (std::size_t c = 0; c < cases.size(); ++c) {
            std::stringstream ss;
            auto report = saveCompressedModel(ss, goldenModel(), cases[c]);
            bytes += ss.str();
            std::size_t iterations = 0;
            for (const auto &l : report.layers)
                iterations += l.stats.iterations;
            Reference back = readContainerRecords(ss, goldenModel());
            all.tensor(back.embedding);
            for (const auto &q : back.fc)
                all.tensor(q);

            // The decoded container equals the direct reconstruction.
            std::stringstream again(ss.str());
            BertModel loaded = loadCompressedModel(again);
            auto layers = loaded.fcLayers();
            for (std::size_t i = 0; i < layers.size(); ++i)
                EXPECT_EQ(layers[i].weight->data(),
                          references()[c].fc[i].dequantize().data());
            EXPECT_EQ(loaded.wordEmbedding.data(),
                      references()[c].embedding.dequantize().data());
            EXPECT_EQ(iterations, references()[c].fcIterations)
                << "threads " << threads << " case " << c;
        }
        EXPECT_EQ(all.h, kQuantizedDigest) << "threads " << threads;
        if (threads == 1)
            bytesAtOne = bytes;
        else
            EXPECT_TRUE(bytes == bytesAtOne)
                << "GOBC bytes differ between 1 and 4 threads";
    }
}

} // namespace
} // namespace gobo
