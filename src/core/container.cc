#include "core/container.hh"

#include <fstream>
#include <istream>
#include <ostream>

#include "model/serialize.hh"
#include "util/binio.hh"
#include "util/logging.hh"

namespace gobo {

namespace {

constexpr std::uint32_t containerMagic = 0x474f4243; // "GOBC"
constexpr std::uint32_t containerVersion = 1;

void
writeConfig(std::ostream &os, const ModelConfig &c)
{
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(c.family));
    writePod<std::uint64_t>(os, c.numLayers);
    writePod<std::uint64_t>(os, c.hidden);
    writePod<std::uint64_t>(os, c.intermediate);
    writePod<std::uint64_t>(os, c.numHeads);
    writePod<std::uint64_t>(os, c.vocabSize);
    writePod<std::uint64_t>(os, c.maxPosition);
    writeString(os, c.name);
}

ModelConfig
readConfig(std::istream &is)
{
    ModelConfig c;
    c.family = static_cast<ModelFamily>(readPod<std::uint32_t>(is));
    c.numLayers = static_cast<std::size_t>(readPod<std::uint64_t>(is));
    c.hidden = static_cast<std::size_t>(readPod<std::uint64_t>(is));
    c.intermediate = static_cast<std::size_t>(
        readPod<std::uint64_t>(is));
    c.numHeads = static_cast<std::size_t>(readPod<std::uint64_t>(is));
    c.vocabSize = static_cast<std::size_t>(readPod<std::uint64_t>(is));
    c.maxPosition = static_cast<std::size_t>(readPod<std::uint64_t>(is));
    c.name = readString(is);
    c.check();
    return c;
}

} // namespace

ModelQuantReport
saveCompressedModel(std::ostream &os, const BertModel &model,
                    const ModelQuantOptions &options)
{
    // Quantize everything first, layer-parallel; the records are then
    // written serially in the fixed file order.
    const std::size_t n_fc = model.config().numFcLayers();
    std::vector<QuantizedTensor> q(n_fc + (options.embeddingBits > 0));
    ModelQuantReport report = quantizeModel(
        model, options,
        [&](std::size_t i, QuantizedTensor t, const LayerQuantStats &) {
            q[i] = std::move(t);
        });

    const auto &cfg = model.config();
    writePod(os, containerMagic);
    writePod(os, containerVersion);
    writeConfig(os, cfg);
    writePod<std::uint64_t>(os, model.headW.rows());
    writePod<std::uint32_t>(os, options.embeddingBits);

    // Word embedding: quantized when requested, raw otherwise.
    if (options.embeddingBits > 0)
        q[n_fc].save(os);
    else
        writeTensor(os, model.wordEmbedding);
    writeTensor(os, model.positionEmbedding);
    writeTensor(os, model.embLnGamma);
    writeTensor(os, model.embLnBeta);

    // FC weights in enumeration order, each as a quantized tensor.
    for (std::size_t i = 0; i < n_fc; ++i)
        q[i].save(os);

    // FP32 remainder: biases and layer norms per encoder, pooler bias,
    // head.
    for (const auto &enc : model.encoders) {
        writeTensor(os, enc.queryB);
        writeTensor(os, enc.keyB);
        writeTensor(os, enc.valueB);
        writeTensor(os, enc.attnOutB);
        writeTensor(os, enc.attnLnGamma);
        writeTensor(os, enc.attnLnBeta);
        writeTensor(os, enc.interB);
        writeTensor(os, enc.outB);
        writeTensor(os, enc.outLnGamma);
        writeTensor(os, enc.outLnBeta);
    }
    writeTensor(os, model.poolerB);
    writeTensor(os, model.headW);
    writeTensor(os, model.headB);
    return report;
}

ModelQuantReport
saveCompressedModel(const std::string &path, const BertModel &model,
                    const ModelQuantOptions &options)
{
    std::ofstream os(path, std::ios::binary);
    fatalIf(!os, "cannot open ", path, " for writing");
    auto report = saveCompressedModel(os, model, options);
    fatalIf(!os, "write to ", path, " failed");
    return report;
}

BertModel
loadCompressedModel(std::istream &is)
{
    fatalIf(readPod<std::uint32_t>(is) != containerMagic,
            "bad compressed-model magic");
    auto version = readPod<std::uint32_t>(is);
    fatalIf(version != containerVersion,
            "unsupported compressed-model version ", version);

    ModelConfig cfg = readConfig(is);
    auto head_rows = static_cast<std::size_t>(readPod<std::uint64_t>(is));
    auto emb_bits = readPod<std::uint32_t>(is);

    BertModel model(cfg);
    model.resizeHead(head_rows);

    auto expect_shape = [](const Tensor &t, std::size_t rows,
                           std::size_t cols, const char *what) {
        fatalIf(t.rows() != rows || t.cols() != cols,
                "compressed model shape mismatch for ", what);
    };

    if (emb_bits > 0) {
        QuantizedTensor q = QuantizedTensor::load(is);
        Tensor t = q.dequantize();
        expect_shape(t, cfg.vocabSize, cfg.hidden, "word embedding");
        model.wordEmbedding = std::move(t);
    } else {
        model.wordEmbedding = readTensor(is);
        expect_shape(model.wordEmbedding, cfg.vocabSize, cfg.hidden,
                     "word embedding");
    }
    model.positionEmbedding = readTensor(is);
    model.embLnGamma = readTensor(is);
    model.embLnBeta = readTensor(is);

    for (auto &layer : model.fcLayers()) {
        QuantizedTensor q = QuantizedTensor::load(is);
        Tensor t = q.dequantize();
        expect_shape(t, layer.weight->rows(), layer.weight->cols(),
                     layer.name.c_str());
        *layer.weight = std::move(t);
    }

    for (auto &enc : model.encoders) {
        enc.queryB = readTensor(is);
        enc.keyB = readTensor(is);
        enc.valueB = readTensor(is);
        enc.attnOutB = readTensor(is);
        enc.attnLnGamma = readTensor(is);
        enc.attnLnBeta = readTensor(is);
        enc.interB = readTensor(is);
        enc.outB = readTensor(is);
        enc.outLnGamma = readTensor(is);
        enc.outLnBeta = readTensor(is);
    }
    model.poolerB = readTensor(is);
    model.headW = readTensor(is);
    model.headB = readTensor(is);
    return model;
}

BertModel
loadCompressedModel(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open ", path, " for reading");
    return loadCompressedModel(is);
}

} // namespace gobo
