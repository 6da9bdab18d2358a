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

/** parameters()' leading embedding tensors, stored before the FCs. */
constexpr std::size_t kEmbeddingParams = 4;

/**
 * The one container reader: the FP32-resident parameters (a quantized
 * word embedding decoded) and the FC records in fcLayers() order,
 * every stored tensor and record checked against the dims its config
 * defines.
 */
PackedModel
readPackedModel(std::istream &is)
{
    PackedModel parts{
        readModelHeader(is, containerMagic, containerVersion), {}};
    auto emb_bits = readPod<std::uint32_t>(is);

    // Every stored tensor and record must have the dims BertModel(cfg)
    // gives its parameter (file order as in saveCompressedModel).
    auto params = parts.fp32.parameters();
    auto read_record = [&](const ParamRef &p) {
        QuantizedTensor q = QuantizedTensor::load(is);
        checkParamShape(p.name, p.shape, {q.rows, q.cols});
        return q;
    };
    for (std::size_t p = 0; p < kEmbeddingParams; ++p) {
        if (p == 0 && emb_bits > 0)
            *params[p].tensor = read_record(params[p]).dequantize();
        else
            readParam(is, params[p]);
    }
    parts.fc.reserve(parts.fp32.config().numFcLayers());
    for (const auto &p : params)
        if (p.fcWeight)
            parts.fc.push_back(read_record(p));
    for (std::size_t p = kEmbeddingParams; p < params.size(); ++p)
        if (!params[p].fcWeight)
            readParam(is, params[p]);
    return parts;
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

    writeModelHeader(os, containerMagic, containerVersion, model);
    writePod<std::uint32_t>(os, options.embeddingBits);

    // The embedding parameters (the word embedding quantized when
    // requested), the FC records in fcLayers() order, then every other
    // FP32 parameter in parameters() order: biases and layer norms per
    // encoder, pooler bias, head.
    auto params = model.parameters();
    for (std::size_t p = 0; p < kEmbeddingParams; ++p) {
        if (p == 0 && options.embeddingBits > 0)
            q[n_fc].save(os);
        else
            writeTensor(os, *params[p].tensor);
    }
    for (std::size_t i = 0; i < n_fc; ++i)
        q[i].save(os);
    for (std::size_t p = kEmbeddingParams; p < params.size(); ++p)
        if (!params[p].fcWeight)
            writeTensor(os, *params[p].tensor);
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
    PackedModel parts = readPackedModel(is);
    auto refs = parts.fp32.fcLayers();
    for (std::size_t i = 0; i < refs.size(); ++i)
        *refs[i].weight = parts.fc[i].dequantize();
    return std::move(parts.fp32);
}

BertModel
loadCompressedModel(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open ", path, " for reading");
    return loadCompressedModel(is);
}

QuantizedBertModel
loadPackedModel(std::istream &is)
{
    return QuantizedBertModel(readPackedModel(is));
}

QuantizedBertModel
loadPackedModel(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open ", path, " for reading");
    return loadPackedModel(is);
}

} // namespace gobo
