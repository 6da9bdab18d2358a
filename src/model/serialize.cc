#include "model/serialize.hh"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/binio.hh"
#include "util/logging.hh"

namespace gobo {

namespace {

constexpr std::uint32_t modelMagic = 0x474f424d; // "GOBM"
constexpr std::uint32_t modelVersion = 1;

/**
 * Largest plausible tensor dimension / element count in a model file.
 * The biggest real tensor in scope (BERT-Large word embedding) is
 * ~31M elements; 2^31 leaves two orders of magnitude headroom while a
 * corrupt u64 header would otherwise request a multi-TB allocation
 * and die on bad_alloc instead of a clean fatal.
 */
constexpr std::uint64_t dimCeiling = std::uint64_t{1} << 31;

std::uint64_t
readDim(std::istream &is, const char *what)
{
    auto v = readPod<std::uint64_t>(is);
    fatalIf(v > dimCeiling, "model stream corrupt: ", what, " ", v,
            " exceeds plausible ceiling ", dimCeiling);
    return v;
}

} // namespace

void
writeTensor(std::ostream &os, const Tensor &t)
{
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(t.rank()));
    for (std::size_t d = 0; d < t.rank(); ++d)
        writePod<std::uint64_t>(os, t.dim(d));
    auto flat = t.flat();
    os.write(reinterpret_cast<const char *>(flat.data()),
             static_cast<std::streamsize>(flat.size() * sizeof(float)));
}

Tensor
readTensor(std::istream &is)
{
    auto rank = readPod<std::uint32_t>(is);
    fatalIf(rank > 2, "tensor rank ", rank, " unsupported");
    Tensor t;
    if (rank == 1) {
        t = Tensor(static_cast<std::size_t>(readDim(is, "tensor length")));
    } else if (rank == 2) {
        std::size_t r = static_cast<std::size_t>(readDim(is, "tensor rows"));
        std::size_t c = static_cast<std::size_t>(readDim(is, "tensor cols"));
        fatalIf(r != 0 && c > dimCeiling / r,
                "model stream corrupt: tensor ", r, "x", c,
                " exceeds plausible ceiling ", dimCeiling);
        t = Tensor(r, c);
    }
    auto flat = t.flat();
    is.read(reinterpret_cast<char *>(flat.data()),
            static_cast<std::streamsize>(flat.size() * sizeof(float)));
    fatalIf(!is && flat.size() > 0, "model stream truncated reading tensor");
    return t;
}

void
readParam(std::istream &is, const ParamRef &p)
{
    Tensor t = readTensor(is);
    checkParamShape(p.name, p.shape, ParamShape::of(t));
    *p.tensor = std::move(t);
}

void
writeModelHeader(std::ostream &os, std::uint32_t magic,
                 std::uint32_t version, const BertModel &model)
{
    const auto &c = model.config();
    writePod(os, magic);
    writePod(os, version);
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(c.family));
    for (std::size_t dim : {c.numLayers, c.hidden, c.intermediate,
                            c.numHeads, c.vocabSize, c.maxPosition})
        writePod<std::uint64_t>(os, dim);
    writeString(os, c.name);
    writePod<std::uint64_t>(os, model.headW.rows());
}

BertModel
readModelHeader(std::istream &is, std::uint32_t magic,
                std::uint32_t version)
{
    std::string format{static_cast<char>(magic >> 24),
                       static_cast<char>(magic >> 16),
                       static_cast<char>(magic >> 8),
                       static_cast<char>(magic)};
    fatalIf(readPod<std::uint32_t>(is) != magic, "bad magic: not a ",
            format, " file");
    auto got = readPod<std::uint32_t>(is);
    fatalIf(got != version, "unsupported ", format, " version ", got);

    // The config dims size the tensors the loader reads, so they go
    // through the same ceiling as raw tensor headers.
    ModelConfig c;
    c.family = static_cast<ModelFamily>(readPod<std::uint32_t>(is));
    for (std::size_t *dim : {&c.numLayers, &c.hidden, &c.intermediate,
                             &c.numHeads, &c.vocabSize, &c.maxPosition})
        *dim = static_cast<std::size_t>(readDim(is, "config dim"));
    c.name = readString(is);
    auto head_outputs =
        static_cast<std::size_t>(readDim(is, "head outputs"));
    return BertModel::forLoading(std::move(c), head_outputs);
}

void
saveModel(std::ostream &os, const BertModel &model)
{
    writeModelHeader(os, modelMagic, modelVersion, model);
    for (const auto &p : model.parameters())
        writeTensor(os, *p.tensor);
}

void
saveModel(const std::string &path, const BertModel &model)
{
    std::ofstream os(path, std::ios::binary);
    fatalIf(!os, "cannot open ", path, " for writing");
    saveModel(os, model);
    fatalIf(!os, "write to ", path, " failed");
}

BertModel
loadModel(std::istream &is)
{
    BertModel m = readModelHeader(is, modelMagic, modelVersion);
    for (const auto &p : m.parameters())
        readParam(is, p);
    return m;
}

BertModel
loadModel(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open ", path, " for reading");
    return loadModel(is);
}

} // namespace gobo
