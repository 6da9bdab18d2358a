#include "model/footprint.hh"

#include <cstdint>

namespace gobo {

Footprint
footprint(const ModelConfig &config, std::size_t sequence_length)
{
    Footprint f;
    f.embeddingBytes = config.wordEmbeddingParams() * sizeof(float);
    f.weightBytes = config.fcWeightParams() * sizeof(float);
    f.inputPerWordBytes = config.hidden * sizeof(float);
    f.largestActPerWordBytes = config.intermediate * sizeof(float);
    f.sequenceLength = sequence_length;
    f.activationBytes = sequence_length * config.intermediate
                        * sizeof(float);
    return f;
}

namespace {

/** Bytes of the centroid table plus the kernel's outlier pairs. */
std::size_t
tableAndOutlierBytes(std::size_t centroid_count, std::size_t outlier_count)
{
    return centroid_count * sizeof(float)
           + outlier_count * (sizeof(std::uint32_t) + sizeof(float));
}

} // namespace

std::size_t
packedResidentBytes(std::size_t elements, unsigned bits,
                    std::size_t centroid_count, std::size_t outlier_count)
{
    return (elements * bits + 7) / 8
           + tableAndOutlierBytes(centroid_count, outlier_count);
}

double
toMiB(std::size_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double
toKiB(std::size_t bytes)
{
    return static_cast<double>(bytes) / 1024.0;
}

} // namespace gobo
