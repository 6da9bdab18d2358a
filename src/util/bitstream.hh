/**
 * @file
 * Bit-granular packing for quantized weight indexes.
 *
 * GOBO stores each "G"-group weight as a B-bit bin index (B = 2..7
 * typically). The compressed container packs those indexes back to back
 * with no padding, so a 3-bit model really occupies 3 bits per weight on
 * disk and in the traffic model. BitWriter/BitReader implement that
 * packing for widths 1..32, LSB-first within each byte.
 */

#ifndef GOBO_UTIL_BITSTREAM_HH
#define GOBO_UTIL_BITSTREAM_HH

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace gobo {

/** Append-only bit-granular writer backed by a byte vector. */
class BitWriter
{
  public:
    /**
     * Append the low `bits` bits of `value`.
     * @param value payload; bits above `bits` must be zero.
     * @param bits width in [1, 32].
     */
    void put(std::uint32_t value, unsigned bits);

    /** Number of bits written so far. */
    std::size_t bitCount() const { return nBits; }

    /** Number of bytes the stream occupies (last byte may be partial). */
    std::size_t byteCount() const { return (nBits + 7) / 8; }

    /** Finish and take the backing bytes. The writer is left empty. */
    std::vector<std::uint8_t> take();

    /** Read-only view of the bytes written so far. */
    const std::vector<std::uint8_t> &bytes() const { return buf; }

  private:
    std::vector<std::uint8_t> buf;
    std::size_t nBits = 0;
};

/** Sequential bit-granular reader over a byte buffer. */
class BitReader
{
  public:
    /**
     * @param data backing bytes; must outlive the reader.
     * @param bit_count total valid bits in `data`.
     */
    BitReader(const std::uint8_t *data, std::size_t bit_count)
        : buf(data), nBits(bit_count)
    {
    }

    /** Construct over a whole byte vector (every bit valid). */
    explicit BitReader(const std::vector<std::uint8_t> &data)
        : BitReader(data.data(), data.size() * 8)
    {
    }

    /**
     * Read the next `bits` bits (width in [1, 32]).
     * Fatal if the stream is exhausted.
     */
    std::uint32_t get(unsigned bits);

    /** Bits remaining in the stream. */
    std::size_t remaining() const { return nBits - pos; }

  private:
    const std::uint8_t *buf;
    std::size_t nBits;
    std::size_t pos = 0;
};

/**
 * Pack a vector of indexes at the given width.
 * Convenience wrapper used by the quantized-tensor codec.
 */
std::vector<std::uint8_t> packIndexes(std::span<const std::uint32_t> idx,
                                      unsigned bits);

/** Unpack `count` indexes of the given width from packed bytes. */
std::vector<std::uint32_t> unpackIndexes(
    const std::vector<std::uint8_t> &bytes, unsigned bits,
    std::size_t count);

} // namespace gobo

#endif // GOBO_UTIL_BITSTREAM_HH
