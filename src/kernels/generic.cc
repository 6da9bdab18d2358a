/**
 * @file
 * Generic kernel tier: portable scalar loops.
 *
 * The dense and row bodies are the pre-SIMD inner loops of
 * tensor/ops.cc, lifted verbatim; lutDot spells out the numeric
 * contract of kernels.hh one lane at a time. They are the reference
 * every other tier is validated against — do not "optimize" a
 * reduction order here.
 */

#include "kernels/kernels.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace gobo {

namespace {

/**
 * Byte-decode tables for B dividing 8: row v of table B holds the
 * 8/B indexes packed in byte v. Built once per process (the tables
 * are a pure function of B), shared by every layer and tier.
 */
const std::uint8_t *
byteDecodeLut(std::uint32_t bits)
{
    static const auto tables = [] {
        std::array<std::vector<std::uint8_t>, 9> t;
        for (std::uint32_t b : {1u, 2u, 4u, 8u}) {
            std::uint32_t per = 8 / b;
            std::uint32_t mask = (1u << b) - 1u;
            t[b].resize(std::size_t{256} * per);
            for (std::uint32_t v = 0; v < 256; ++v)
                for (std::uint32_t j = 0; j < per; ++j)
                    t[b][v * per + j] =
                        static_cast<std::uint8_t>((v >> (j * b)) & mask);
        }
        return t;
    }();
    return tables[bits].data();
}

float
dotGeneric(float init, const float *a, const float *b, std::size_t n)
{
    float acc = init;
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
axpyGeneric(float a, const float *x, float *y, std::size_t n)
{
    // No skip on a == 0: 0 * Inf and 0 * NaN must reach the
    // accumulator (IEEE), or the result silently diverges from any
    // reference dense matmul.
    for (std::size_t j = 0; j < n; ++j)
        y[j] += a * x[j];
}

void
softmaxRowGeneric(float *row, std::size_t n)
{
    float mx = *std::max_element(row, row + n);
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
    }
    for (std::size_t i = 0; i < n; ++i)
        row[i] /= sum;
}

void
layerNormRowGeneric(float *row, std::size_t n, const float *gamma,
                    const float *beta, float eps)
{
    double mu = 0.0;
    for (std::size_t c = 0; c < n; ++c)
        mu += row[c];
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        double d = row[c] - mu;
        var += d * d;
    }
    var /= static_cast<double>(n);
    auto inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    for (std::size_t c = 0; c < n; ++c)
        row[c] = (row[c] - static_cast<float>(mu)) * inv * gamma[c]
                 + beta[c];
}

void
geluRowGeneric(float *row, std::size_t n)
{
    constexpr float k = 0.7978845608028654f; // sqrt(2/pi)
    for (std::size_t i = 0; i < n; ++i) {
        float v = row[i];
        float inner = k * (v + 0.044715f * v * v * v);
        row[i] = 0.5f * v * (1.0f + std::tanh(inner));
    }
}

void
tanhRowGeneric(float *row, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        row[i] = std::tanh(row[i]);
}

void
lutDotGeneric(const std::uint8_t *idx, std::size_t rows, std::size_t in,
              const float *table, std::size_t /*k*/, const float *x,
              std::size_t ldx, std::size_t seq, float *sums)
{
    // The contract one lane at a time; the SIMD tiers hold the same 16
    // partial sums in registers.
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t s = 0; s < seq; ++s) {
            const std::uint8_t *ir = idx + r * in;
            const float *xs = x + s * ldx;
            float p[kLutLanes] = {};
            std::size_t i = 0;
            for (; i + kLutLanes <= in; i += kLutLanes)
                for (std::size_t l = 0; l < kLutLanes; ++l)
                    p[l] = p[l] + table[ir[i + l]] * xs[i + l];
            for (std::size_t l = 0; i + l < in; ++l)
                p[l] = p[l] + table[ir[i + l]] * xs[i + l];
            for (std::size_t half = kLutLanes / 2; half > 0; half /= 2)
                for (std::size_t l = 0; l < half; ++l)
                    p[l] = p[l] + p[l + half];
            sums[r * seq + s] = p[0];
        }
}

} // namespace

void
decodePackedRowGeneric(const std::uint8_t *bytes, std::size_t byteLen,
                       std::size_t bitOffset, std::uint32_t bits,
                       std::size_t n, std::uint8_t *out)
{
    (void)byteLen; // the scalar paths read only the bytes they decode.
    const std::uint32_t b = bits;
    const std::uint32_t mask = (1u << b) - 1u;
    std::size_t bit = bitOffset;
    std::size_t i = 0;

    // Scalar fallback: one index through a two-byte window. Also
    // decodes the unaligned head and the tail around the bulk paths.
    auto scalar = [&](std::size_t upto) {
        for (; i < upto; ++i, bit += b) {
            std::size_t byte = bit / 8;
            auto shift = static_cast<unsigned>(bit % 8);
            std::uint32_t window = bytes[byte];
            if (shift + b > 8)
                window |= static_cast<std::uint32_t>(bytes[byte + 1])
                          << 8;
            out[i] = static_cast<std::uint8_t>((window >> shift) & mask);
        }
    };

    if (8 % b == 0) {
        // B divides 8: align to a byte, then one LUT row per byte.
        const std::uint8_t *lut = byteDecodeLut(b);
        std::uint32_t per_byte = 8 / b;
        while (i < n && bit % 8 != 0)
            scalar(i + 1);
        std::size_t byte = bit / 8;
        while (n - i >= per_byte) {
            const std::uint8_t *e =
                lut + std::size_t{bytes[byte]} * per_byte;
            std::copy(e, e + per_byte, out + i);
            i += per_byte;
            bit += 8;
            ++byte;
        }
        scalar(n);
    } else if (b == 3) {
        // Align to a 24-bit group: 3 bytes hold 8 whole 3-bit indexes.
        while (i < n && bit % 24 != 0)
            scalar(i + 1);
        std::size_t byte = bit / 8;
        while (n - i >= 8) {
            std::uint32_t g =
                bytes[byte]
                | static_cast<std::uint32_t>(bytes[byte + 1]) << 8
                | static_cast<std::uint32_t>(bytes[byte + 2]) << 16;
            for (unsigned j = 0; j < 8; ++j)
                out[i + j] =
                    static_cast<std::uint8_t>((g >> (3 * j)) & 7u);
            i += 8;
            bit += 24;
            byte += 3;
        }
        scalar(n);
    } else {
        scalar(n);
    }
}

const KernelSet &
genericKernels()
{
    static const KernelSet set = {
        "generic",
        /*reassociates=*/false,
        /*seqTile=*/kSeqTile,
        dotGeneric,
        axpyGeneric,
        softmaxRowGeneric,
        layerNormRowGeneric,
        geluRowGeneric,
        tanhRowGeneric,
        lutDotGeneric,
        decodePackedRowGeneric,
    };
    return set;
}

} // namespace gobo
