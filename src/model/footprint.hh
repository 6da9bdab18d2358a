/**
 * @file
 * Memory-footprint accounting matching the paper's Table II.
 *
 * The paper counts FC weight matrices only (no biases, no layer-norm)
 * for the "Weights" row, the word-embedding table only for "Embedding
 * Tables", and reports MiB (it writes "MB"). Activation rows assume a
 * sequence length of 128 and the FFN inner width as the largest
 * activation.
 */

#ifndef GOBO_MODEL_FOOTPRINT_HH
#define GOBO_MODEL_FOOTPRINT_HH

#include <cstddef>

#include "model/config.hh"

namespace gobo {

/** Table II rows for one model, in bytes. */
struct Footprint
{
    std::size_t embeddingBytes = 0;   ///< Word-embedding table, FP32.
    std::size_t weightBytes = 0;      ///< All FC weight matrices, FP32.
    std::size_t inputPerWordBytes = 0;  ///< One hidden vector.
    std::size_t largestActPerWordBytes = 0; ///< One FFN inner vector.
    std::size_t sequenceLength = 0;
    std::size_t activationBytes = 0;  ///< Largest activation, whole seq.
};

/** Compute the Table II accounting for a configuration. */
Footprint footprint(const ModelConfig &config,
                    std::size_t sequence_length = 128);

/**
 * Resident bytes of one compressed FC matrix as the engine executes
 * it: the B-bit index stream stays packed (`ceil(elements * bits / 8)`
 * bytes), plus the FP32 centroid table and the per-outlier (u32
 * column, f32 correction) pairs the kernel holds. The resident set is
 * ~bits/32 of FP32 — the ratio the paper's Table II implies.
 */
std::size_t packedResidentBytes(std::size_t elements, unsigned bits,
                                std::size_t centroid_count,
                                std::size_t outlier_count);

/** Bytes expressed in the paper's units (MiB, printed as "MB"). */
double toMiB(std::size_t bytes);

/** Bytes expressed in KiB. */
double toKiB(std::size_t bytes);

} // namespace gobo

#endif // GOBO_MODEL_FOOTPRINT_HH
