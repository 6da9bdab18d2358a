/**
 * @file
 * Corruption-injection tests: every loader must either load (when a
 * flipped byte lands in a value payload, producing different but
 * well-formed data) or fail with FatalError — never crash, hang, or
 * allocate absurdly. Complements the targeted truncation tests.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/container.hh"
#include "core/qtensor.hh"
#include "core/quantizer.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

/** Flip one byte and ensure the loader reacts gracefully. */
template <typename LoadFn>
void
fuzzOneByte(const std::string &bytes, LoadFn load, std::size_t trials,
            std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t t = 0; t < trials; ++t) {
        std::string corrupt = bytes;
        auto pos = static_cast<std::size_t>(rng.integer(
            0, static_cast<std::int64_t>(corrupt.size()) - 1));
        auto flip = static_cast<char>(rng.integer(1, 255));
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ flip);
        std::stringstream ss(corrupt);
        try {
            load(ss); // either works (payload flip) ...
        } catch (const FatalError &) {
            // ... or fails loudly. Both are acceptable.
        }
    }
}

TEST(FuzzLoaders, QuantizedTensorSurvivesByteFlips)
{
    Rng rng(701);
    Tensor w(48, 48);
    rng.fillGaussian(w.data(), 0.0, 0.05);
    GoboConfig cfg;
    cfg.bits = 3;
    auto q = quantizeTensor(w, cfg);
    std::stringstream ss;
    q.save(ss);
    fuzzOneByte(ss.str(),
                [](std::istream &is) { (void)QuantizedTensor::load(is); },
                300, 703);
}

TEST(FuzzLoaders, ModelSurvivesByteFlips)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 705);
    std::stringstream ss;
    saveModel(ss, m);
    fuzzOneByte(ss.str(),
                [](std::istream &is) { (void)loadModel(is); }, 150, 707);
}

TEST(FuzzLoaders, ContainerSurvivesByteFlips)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 709);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;
    std::stringstream ss;
    saveCompressedModel(ss, m, opt);
    fuzzOneByte(ss.str(),
                [](std::istream &is) { (void)loadCompressedModel(is); },
                150, 711);
}

TEST(FuzzLoaders, PackedContainerSurvivesByteFlips)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 719);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;
    std::stringstream ss;
    saveCompressedModel(ss, m, opt);
    fuzzOneByte(ss.str(),
                [](std::istream &is) { (void)loadPackedModel(is); }, 150,
                721);
}

TEST(FuzzLoaders, WideIndexIntoDedupedCentroidTableRejected)
{
    // A degenerate layer (fewer distinct weights than 2^B) dedupes its
    // centroid table below 2^B entries; a container edited or
    // corrupted on disk can then carry a packed index past the table.
    // check() — and therefore load() — must reject it cleanly instead
    // of leaving an out-of-bounds read for the execution engines.
    Tensor w(8, 8);
    auto flat = w.flat();
    for (std::size_t i = 0; i < flat.size(); ++i)
        flat[i] = i % 2 ? 0.5f : -0.5f;
    GoboConfig cfg;
    cfg.bits = 3;
    cfg.detectOutliers = false;
    auto q = quantizeTensor(w, cfg);
    ASSERT_LT(q.centroids.size(), std::size_t{1} << 3);
    std::stringstream good;
    q.save(good);
    (void)QuantizedTensor::load(good); // sanity: valid container loads

    // Force an index beyond the deduped table into the packed stream.
    q.packedIndexes.back() = 0xff;
    EXPECT_THROW(q.check(), FatalError);
    std::stringstream bad;
    EXPECT_THROW(q.save(bad), FatalError); // save re-checks too
}

TEST(FuzzLoaders, HugeTensorDimsRejectedBeforeAllocation)
{
    // A corrupt u64 dim header must be a clean "model stream corrupt"
    // fatal, not a multi-TB allocation dying on bad_alloc.
    Rng rng(715);
    Tensor t(4, 4);
    rng.fillGaussian(t.data(), 0.0, 1.0);
    std::stringstream ss;
    writeTensor(ss, t);
    std::string bytes = ss.str();
    // Header layout: u32 rank, then u64 rows, u64 cols. Blow up rows.
    std::uint64_t huge = std::uint64_t{1} << 40;
    std::memcpy(bytes.data() + 4, &huge, sizeof(huge));
    std::stringstream in(bytes);
    EXPECT_THROW((void)readTensor(in), FatalError);

    // Two individually-plausible dims whose product overflows the
    // ceiling must be caught as well.
    std::uint64_t big = std::uint64_t{1} << 30;
    std::memcpy(bytes.data() + 4, &big, sizeof(big));
    std::memcpy(bytes.data() + 12, &big, sizeof(big));
    std::stringstream in2(bytes);
    EXPECT_THROW((void)readTensor(in2), FatalError);
}

TEST(FuzzLoaders, HugeModelConfigRejectedBeforeAllocation)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 717);
    std::stringstream ss;
    saveModel(ss, m);
    std::string bytes = ss.str();
    // Header: u32 magic, u32 version, u32 family, then u64 numLayers,
    // u64 hidden, ... Corrupt vocabSize (5th u64, offset 12 + 4*8).
    std::uint64_t huge = std::uint64_t{1} << 45;
    std::memcpy(bytes.data() + 12 + 4 * 8, &huge, sizeof(huge));
    std::stringstream in(bytes);
    EXPECT_THROW((void)loadModel(in), FatalError);
}

TEST(FuzzLoaders, HeaderFlipsAlwaysRejected)
{
    // Corruption inside the first 8 bytes (magic + version) must be
    // rejected, not survived.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 713);
    std::stringstream ss;
    saveModel(ss, m);
    std::string bytes = ss.str();
    for (std::size_t pos = 0; pos < 8; ++pos) {
        std::string corrupt = bytes;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
        std::stringstream in(corrupt);
        EXPECT_THROW((void)loadModel(in), FatalError) << "pos " << pos;
    }
}

} // namespace
} // namespace gobo
