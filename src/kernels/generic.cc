/**
 * @file
 * Generic kernel tier: portable scalar loops.
 *
 * The dense and row bodies are the pre-SIMD inner loops of
 * tensor/ops.cc, lifted verbatim; lutDot spells out the numeric
 * contract of kernels.hh one lane at a time, expanding the packed
 * indexes one 16-index group at a time (kernels/packed.hh). They are
 * the reference every other tier is validated against — do not
 * "optimize" a reduction order here.
 */

#include "kernels/kernels.hh"
#include "kernels/packed.hh"

#include <algorithm>
#include <cmath>

namespace gobo {

namespace {

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
lutDotGeneric(const std::uint8_t *bytes, std::size_t byteLen,
              std::size_t bitOffset, std::uint32_t bits, std::size_t rows,
              std::size_t in, const float *table, std::size_t /*k*/,
              const float *x, std::size_t ldx, std::size_t seq,
              float *sums)
{
    // The contract one lane at a time (kernels/packed.hh); the SIMD
    // tiers hold the same 16 partial sums in registers. Each
    // 16-index group is expanded once per row and block of up to
    // kMaxSeqTile tokens.
    for (std::size_t s0 = 0; s0 < seq; s0 += kMaxSeqTile) {
        const std::size_t nt = std::min(seq - s0, kMaxSeqTile);
        for (std::size_t r = 0; r < rows; ++r) {
            float p[kMaxSeqTile * kLutLanes] = {};
            lutFinish(p, 1, nt, table, bytes, byteLen,
                      bitOffset + r * in * bits, bits, in, 0, x + s0 * ldx,
                      ldx, sums + r * seq + s0, 0);
        }
    }
}

} // namespace

void
decodePackedRowGeneric(const std::uint8_t *bytes, std::size_t byteLen,
                       std::size_t bitOffset, std::uint32_t bits,
                       std::size_t n, std::uint8_t *out)
{
    for (std::size_t i = 0; i < n; i += kLutLanes)
        expandPackedGroup(bytes, byteLen, bitOffset + i * bits, bits,
                          std::min(n - i, kLutLanes), out + i);
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
