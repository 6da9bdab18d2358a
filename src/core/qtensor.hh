/**
 * @file
 * The compressed representation of one quantized weight matrix.
 *
 * Per layer, GOBO stores exactly the three things the paper lists at
 * the end of Sec. IV's introduction: (1) the outliers in their original
 * FP32 representation (plus their flat positions so the matrix can be
 * reconstructed), (2) a bit-packed B-bit bin index per weight, and
 * (3) the reconstruction table of 2^B FP32 centroids. Decoding yields a
 * plain FP32 tensor with the original shape — the "plug-in compatible"
 * property: any FP32 execution engine can consume the decoded model.
 */

#ifndef GOBO_CORE_QTENSOR_HH
#define GOBO_CORE_QTENSOR_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "tensor/tensor.hh"

namespace gobo {

/** A GOBO-compressed weight matrix. */
class QuantizedTensor
{
  public:
    unsigned bits = 0;            ///< Index width B.
    std::size_t rows = 0, cols = 0;
    std::vector<float> centroids; ///< Reconstruction table, ascending.
    std::vector<std::uint8_t> packedIndexes; ///< rows*cols B-bit entries.
    std::vector<std::uint32_t> outlierPositions; ///< Flat, ascending.
    std::vector<float> outlierValues;

    /** Elements in the matrix. */
    std::size_t elementCount() const { return rows * cols; }

    /** Reconstruct the FP32 tensor (centroid per index, outliers as-is). */
    Tensor dequantize() const;

    /**
     * The B-bit index stored at flat position `pos`, read from the
     * packed stream without unpacking (an index spans at most two
     * bytes since B <= 8).
     */
    std::uint32_t indexAt(std::size_t pos) const;

    /**
     * Exact storage cost in bits: packed indexes + centroid table +
     * outliers at 32b value + 32b position each. This is the quantity
     * the paper's compression ratios are built from.
     */
    std::size_t payloadBits() const;

    /** payloadBits rounded up to bytes. */
    std::size_t payloadBytes() const;

    /** FP32 footprint of the original matrix in bytes. */
    std::size_t originalBytes() const;

    /** originalBytes / payloadBytes. */
    double compressionRatio() const;

    /** Outliers as a fraction of all elements. */
    double outlierFraction() const;

    /**
     * Index-slot population per centroid: counts[k] is how many of the
     * rows*cols packed indexes select centroid k. Every slot counts,
     * including the slots under outliers (whose nearest-centroid index
     * is what the execution engines actually look up). The audit
     * layer reads this to flag dead (zero-count) and saturated
     * (one-centroid-dominated) tables.
     */
    std::vector<std::uint64_t> centroidOccupancy() const;

    /** Serialize to a stream (versioned "GOBQ" container). */
    void save(std::ostream &os) const;

    /** Deserialize a container written by save. Fatal on corruption. */
    static QuantizedTensor load(std::istream &is);

    /** Internal-consistency check; fatal on violation. */
    void check() const;
};

} // namespace gobo

#endif // GOBO_CORE_QTENSOR_HH
