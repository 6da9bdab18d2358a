/**
 * @file
 * Tests for the GOBC compressed-model container.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>

#include "core/container.hh"
#include "exec/session.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "nn/encoder.hh"
#include "task/task.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"

namespace gobo {
namespace {

ModelQuantOptions
gobo3b4bEmbedding()
{
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;
    return opt;
}

TEST(Container, RoundtripConfigAndFp32Parts)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 301);
    m.resizeHead(3);
    m.headW(2, 5) = 0.625f;

    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    BertModel back = loadCompressedModel(ss);

    EXPECT_EQ(back.config().name, cfg.name);
    EXPECT_EQ(back.config().numLayers, cfg.numLayers);
    EXPECT_EQ(back.headW.rows(), 3u);
    // FP32-resident parts are bit-exact.
    EXPECT_EQ(back.headW(2, 5), 0.625f);
    EXPECT_EQ(back.positionEmbedding.data(), m.positionEmbedding.data());
    EXPECT_EQ(back.encoders[1].attnLnGamma.data(),
              m.encoders[1].attnLnGamma.data());
    EXPECT_EQ(back.encoders[4].interB.data(), m.encoders[4].interB.data());
    EXPECT_EQ(back.poolerB.data(), m.poolerB.data());
}

TEST(Container, DecodedWeightsMatchInPlaceQuantization)
{
    // Saving + loading the container must produce exactly the model
    // quantizeModelInPlace produces: same codec, same decode.
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 303);
    auto opt = gobo3b4bEmbedding();

    std::stringstream ss;
    saveCompressedModel(ss, m, opt);
    BertModel from_container = loadCompressedModel(ss);

    BertModel in_place = m;
    quantizeModelInPlace(in_place, opt);

    auto a = from_container.fcLayers();
    auto b = in_place.fcLayers();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].weight->data(), b[i].weight->data())
            << a[i].name;
    EXPECT_EQ(from_container.wordEmbedding.data(),
              in_place.wordEmbedding.data());
}

TEST(Container, SourceModelUntouched)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 305);
    BertModel before = m;
    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    EXPECT_EQ(m.encoders[0].queryW.data(),
              before.encoders[0].queryW.data());
    EXPECT_EQ(m.wordEmbedding.data(), before.wordEmbedding.data());
}

TEST(Container, FileSizeMatchesReportedCompression)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 307);

    auto dir = std::filesystem::temp_directory_path();
    auto fp32_path = (dir / "gobo_fp32.bin").string();
    auto comp_path = (dir / "gobo_comp.bin").string();
    saveModel(fp32_path, m);
    auto report = saveCompressedModel(comp_path, m, gobo3b4bEmbedding());

    auto fp32_size = std::filesystem::file_size(fp32_path);
    auto comp_size = std::filesystem::file_size(comp_path);
    double measured = static_cast<double>(fp32_size)
                      / static_cast<double>(comp_size);
    // The container also carries FP32 biases/norms both sides, so the
    // on-disk ratio sits below the weights+embeddings ratio but must
    // be in its neighbourhood.
    EXPECT_GT(measured, report.totalCompressionRatio() * 0.5);
    EXPECT_GT(measured, 4.0);
    EXPECT_LE(measured, report.totalCompressionRatio() * 1.05);

    std::filesystem::remove(fp32_path);
    std::filesystem::remove(comp_path);
}

TEST(Container, MixedPrecisionPersists)
{
    auto cfg = miniConfig(ModelFamily::RoBerta);
    BertModel m = generateModel(cfg, 309);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.bitsFor = mixedPolicy(6, 3, 4);

    std::stringstream ss;
    auto report = saveCompressedModel(ss, m, opt);
    bool saw4 = false, saw3 = false;
    for (const auto &entry : report.layers) {
        saw4 |= entry.bits == 4;
        saw3 |= entry.bits == 3;
    }
    EXPECT_TRUE(saw4);
    EXPECT_TRUE(saw3);
    BertModel back = loadCompressedModel(ss);
    EXPECT_EQ(back.config().numLayers, cfg.numLayers);
}

TEST(Container, LoadedModelRunsInference)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 311);
    std::vector<std::int32_t> ids{1, 2, 3, 4};
    Tensor before = encodeSequence(m, ids);

    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    BertModel back = loadCompressedModel(ss);
    Tensor after = encodeSequence(back, ids);
    EXPECT_LT(relativeError(before, after), 0.6);
}

TEST(Container, RejectsCorruptInput)
{
    std::stringstream bad;
    bad.write("XXXXYYYY", 8);
    EXPECT_THROW(loadCompressedModel(bad), FatalError);

    auto cfg = miniConfig(ModelFamily::DistilBert);
    BertModel m = generateModel(cfg, 313);
    std::stringstream ss;
    saveCompressedModel(ss, m, gobo3b4bEmbedding());
    std::string full = ss.str();
    std::stringstream trunc(full.substr(0, full.size() / 3));
    EXPECT_THROW(loadCompressedModel(trunc), FatalError);
}

/**
 * Logits of a model loaded packed from the container must equal those
 * of the in-process QuantizedBertModel bit for bit, at 1 and 4
 * threads: the file holds the exact records quantizing produces.
 */
void
expectPackedLoadMatchesInProcess(const ModelQuantOptions &opt)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel m = generateModel(cfg, 42);
    QuantizedBertModel in_process(m, opt);
    std::stringstream ss;
    saveCompressedModel(ss, m, opt);
    QuantizedBertModel loaded = loadPackedModel(ss);
    EXPECT_EQ(loaded.residentWeightBytes(),
              in_process.residentWeightBytes());

    TokenBatch batch{{1, 2, 3}, {7}, {9, 4, 4, 8, 15, 16, 23, 42, 11},
                     std::vector<std::int32_t>(cfg.maxPosition, 5)};
    for (std::size_t threads : {1, 4}) {
        const ExecContext ctx = ExecContext::parallel(threads);
        auto want = InferenceSession(in_process, ctx).headLogitsBatch(batch);
        auto got = InferenceSession(loaded, ctx).headLogitsBatch(batch);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].size(), want[i].size());
            EXPECT_EQ(std::memcmp(got[i].data().data(),
                                  want[i].data().data(),
                                  want[i].size() * sizeof(float)),
                      0)
                << "seq " << i << " at " << threads << " threads";
        }
    }
}

TEST(Container, PackedLoadMatchesInProcessGobo3b4bEmbedding)
{
    expectPackedLoadMatchesInProcess(gobo3b4bEmbedding());
}

TEST(Container, PackedLoadMatchesInProcessKMeans2b)
{
    ModelQuantOptions opt;
    opt.base.bits = 2;
    opt.base.method = CentroidMethod::KMeans;
    expectPackedLoadMatchesInProcess(opt);
}

/**
 * `bytes` with the stored dims of `m`'s position embedding rewritten
 * to [rows, cols]; the byte count must stay the same.
 */
std::string
reshapePositionEmbedding(std::string bytes, const BertModel &m,
                         std::uint64_t rows, std::uint64_t cols)
{
    const auto &pe = m.positionEmbedding.data();
    std::string payload(reinterpret_cast<const char *>(pe.data()),
                        pe.size() * sizeof(float));
    std::size_t at = bytes.find(payload);
    EXPECT_NE(at, std::string::npos);
    // The tensor header (u32 rank, u64 rows, u64 cols) ends right
    // before the payload.
    std::memcpy(bytes.data() + at - 16, &rows, sizeof(rows));
    std::memcpy(bytes.data() + at - 8, &cols, sizeof(cols));
    return bytes;
}

TEST(Loaders, ReshapedGobcTensorRejected)
{
    // [64, 64] stored as [256, 16]: same byte count, wrong rows, so the
    // embedding would read past each position row.
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel m = generateModel(cfg, 42);
    ModelQuantOptions opt;
    opt.embeddingBits = 0;
    std::stringstream ss;
    saveCompressedModel(ss, m, opt);
    std::string bad = reshapePositionEmbedding(
        ss.str(), m, cfg.maxPosition * 4, cfg.hidden / 4);

    std::stringstream a(bad), b(bad), good(ss.str());
    EXPECT_THROW(loadCompressedModel(a), FatalError);
    EXPECT_THROW(loadPackedModel(b), FatalError);
    EXPECT_NO_THROW(loadCompressedModel(good));
}

TEST(Loaders, ReshapedGobmTensorRejected)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel m = generateModel(cfg, 42);
    std::stringstream ss;
    saveModel(ss, m);
    std::string bad = reshapePositionEmbedding(
        ss.str(), m, cfg.maxPosition * 4, cfg.hidden / 4);

    std::stringstream in(bad), good(ss.str());
    EXPECT_THROW(loadModel(in), FatalError);
    EXPECT_NO_THROW(loadModel(good));
}

TEST(Container, MissingFileIsFatal)
{
    EXPECT_THROW(loadCompressedModel("/nonexistent/gobo.gobc"),
                 FatalError);
    EXPECT_THROW(loadPackedModel("/nonexistent/gobo.gobc"), FatalError);
}

} // namespace
} // namespace gobo
