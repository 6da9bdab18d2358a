#include "util/bitstream.hh"

#include "util/logging.hh"

namespace gobo {

void
BitWriter::put(std::uint32_t value, unsigned bits)
{
    fatalIf(bits == 0 || bits > 32, "BitWriter width out of range: ", bits);
    if (bits < 32)
        panicIf(value >> bits, "BitWriter value ", value,
                " wider than ", bits, " bits");

    unsigned written = 0;
    while (written < bits) {
        std::size_t byte = nBits / 8;
        unsigned bit_in_byte = nBits % 8;
        if (byte >= buf.size())
            buf.push_back(0);
        unsigned room = 8 - bit_in_byte;
        unsigned chunk = std::min(room, bits - written);
        auto piece = static_cast<std::uint8_t>(
            (value >> written) & ((1u << chunk) - 1u));
        buf[byte] |= static_cast<std::uint8_t>(piece << bit_in_byte);
        nBits += chunk;
        written += chunk;
    }
}

std::vector<std::uint8_t>
BitWriter::take()
{
    std::vector<std::uint8_t> out = std::move(buf);
    // A moved-from vector has valid but unspecified contents; clear it
    // so the writer is genuinely empty and safe to reuse.
    buf.clear();
    nBits = 0;
    return out;
}

std::uint32_t
BitReader::get(unsigned bits)
{
    fatalIf(bits == 0 || bits > 32, "BitReader width out of range: ", bits);
    fatalIf(pos + bits > nBits, "BitReader exhausted: need ", bits,
            " bits, have ", nBits - pos);

    std::uint32_t value = 0;
    unsigned read = 0;
    while (read < bits) {
        std::size_t byte = pos / 8;
        unsigned bit_in_byte = pos % 8;
        unsigned room = 8 - bit_in_byte;
        unsigned chunk = std::min(room, bits - read);
        std::uint32_t piece = (buf[byte] >> bit_in_byte)
                              & ((1u << chunk) - 1u);
        value |= piece << read;
        pos += chunk;
        read += chunk;
    }
    return value;
}

std::vector<std::uint8_t>
packIndexes(std::span<const std::uint32_t> idx, unsigned bits)
{
    fatalIf(bits == 0 || bits > 32, "packIndexes width out of range: ",
            bits);
    // The BitWriter layout (LSB-first within each byte), a word at a
    // time: indexes collect in a 64-bit accumulator and leave it four
    // bytes at once, so the loop never revisits a byte.
    std::vector<std::uint8_t> out((idx.size() * bits + 7) / 8);
    std::uint64_t acc = 0, wide = 0;
    unsigned fill = 0;
    std::size_t pos = 0;
    for (std::uint32_t v : idx) {
        wide |= std::uint64_t{v} >> bits;
        acc |= std::uint64_t{v} << fill;
        fill += bits;
        if (fill >= 32) {
            for (int b = 0; b < 4; ++b)
                out[pos++] = static_cast<std::uint8_t>(acc >> (8 * b));
            acc >>= 32;
            fill -= 32;
        }
    }
    for (; fill > 0; fill = fill > 8 ? fill - 8 : 0) {
        out[pos++] = static_cast<std::uint8_t>(acc);
        acc >>= 8;
    }
    panicIf(wide != 0, "packIndexes value wider than ", bits, " bits");
    return out;
}

std::vector<std::uint32_t>
unpackIndexes(const std::vector<std::uint8_t> &bytes, unsigned bits,
              std::size_t count)
{
    BitReader r(bytes.data(), bytes.size() * 8);
    std::vector<std::uint32_t> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(r.get(bits));
    return out;
}

} // namespace gobo
