/**
 * @file
 * Packed-stream helpers every lutDot tier shares: the scalar index
 * expander (one 16-index group into bytes on the stack, reading
 * nothing past the end of the stream), the scalar form of the lutDot
 * contract built on it — all of the generic tier, and the SIMD tiers'
 * last groups and in % 16 tails — and the bound on the groups a SIMD
 * tier may read with wide loads.
 *
 * Internal to src/kernels. The functions are `static` so each tier's
 * TU compiles its own copy under its own target flags (an inline
 * function shared across TUs could resolve to the AVX-512 copy on a
 * CPU without it). Every kernel TU is built with -ffp-contract=off, so
 * lutFinish multiplies then adds, as the contract requires.
 */

#ifndef GOBO_KERNELS_PACKED_HH
#define GOBO_KERNELS_PACKED_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "kernels/kernels.hh"

namespace gobo {

/**
 * Bytes byte..byte+7 of a `byteLen`-byte stream as one little-endian
 * word; bytes past the end read as 0 and are never touched.
 */
static inline std::uint64_t
packedWindow(const std::uint8_t *bytes, std::size_t byteLen,
             std::size_t byte)
{
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
        if (byte + 8 <= byteLen) {
            std::memcpy(&w, bytes + byte, 8);
            return w;
        }
    }
    for (std::size_t b = 0; b < 8 && byte + b < byteLen; ++b)
        w |= std::uint64_t{bytes[byte + b]} << (8 * b);
    return w;
}

/**
 * Eight B-bit fields, packed from bit 0 of v, moved one per byte in
 * three halving steps (4 + 4 fields 32 bits apart, then 2 + 2, then
 * 1 + 1); bits past the eighth field are ignored.
 */
template <std::uint32_t B>
static inline std::uint64_t
spreadFields8(std::uint64_t v)
{
    constexpr auto ones = [](std::uint32_t w) {
        return w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
    };
    constexpr std::uint64_t m4 = ones(4 * B);
    constexpr std::uint64_t m2 = ones(2 * B) * (1 | std::uint64_t{1} << 32);
    constexpr std::uint64_t m1 = ones(B) * 0x0001000100010001ull;
    v = (v & m4) | (v >> (4 * B) & m4) << 32;
    v = (v & m2) | (v >> (2 * B) & m2) << 16;
    return (v & m1) | (v >> B & m1) << 8;
}

/**
 * Expand the n <= 16 `bits`-wide indexes that start `bit` bits into
 * the stream into out[0..n), one byte each. A full group of B <= 7
 * takes two windows of eight fields; anything else goes one index at
 * a time.
 */
static inline void
expandPackedGroup(const std::uint8_t *bytes, std::size_t byteLen,
                  std::size_t bit, std::uint32_t bits, std::size_t n,
                  std::uint8_t *out)
{
    auto full = [&]<std::uint32_t B>() {
        std::uint64_t half[2];
        for (std::size_t h = 0; h < 2; ++h, bit += 8 * B)
            half[h] = spreadFields8<B>(
                packedWindow(bytes, byteLen, bit / 8) >> (bit % 8));
        std::memcpy(out, half, 16);
    };
    if (n == 16) {
        switch (bits) {
        case 1: return full.template operator()<1>();
        case 2: return full.template operator()<2>();
        case 3: return full.template operator()<3>();
        case 4: return full.template operator()<4>();
        case 5: return full.template operator()<5>();
        case 6: return full.template operator()<6>();
        case 7: return full.template operator()<7>();
        }
    }
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    for (std::size_t t = 0; t < n; ++t, bit += bits)
        out[t] = static_cast<std::uint8_t>(
            (packedWindow(bytes, byteLen, bit / 8) >> (bit % 8)) & mask);
}

/**
 * Full 16-index groups, from the first, that `rows` rows starting at
 * bit0 can read with `span`-byte loads at each group's first byte
 * without passing byteLen. Rows ascend, so the last row decides.
 */
static inline std::size_t
wideGroups(std::size_t byteLen, std::size_t bit0, std::size_t rows,
           std::uint32_t bits, std::size_t in, std::size_t span)
{
    const std::size_t last = (bit0 + (rows - 1) * in * bits) / 8;
    if (last + span > byteLen)
        return 0;
    return std::min(in / 16, (byteLen - last - span) / (2 * bits) + 1);
}

/**
 * The lutDot contract in scalar code from index `i` (a multiple of 16)
 * on: `rows` rows from bit0 against `nt` tokens at x + t * ldx,
 * continuing the 16 partial sums p[(r * nt + t) * kLutLanes + lane]
 * (p[i mod 16] += table * x, lanes past `in` untouched), then the
 * halving tree into sums[r * sstride + t]. Indexes are expanded 64 at
 * a time and serve every token. The generic tier runs all of it from
 * i = 0.
 */
static inline void
lutFinish(float *__restrict p, std::size_t rows, std::size_t nt,
          const float *table, const std::uint8_t *bytes,
          std::size_t byteLen, std::size_t bit0, std::uint32_t bits,
          std::size_t in, std::size_t i, const float *x, std::size_t ldx,
          float *sums, std::size_t sstride)
{
    constexpr std::size_t kChunk = 4 * kLutLanes;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t j = i; j < in; j += kChunk) {
            const std::size_t n = std::min(in - j, kChunk);
            std::uint8_t idx[kChunk];
            for (std::size_t q = 0; q < n; q += kLutLanes)
                expandPackedGroup(bytes, byteLen,
                                  bit0 + (r * in + j + q) * bits, bits,
                                  std::min(n - q, kLutLanes), idx + q);
            for (std::size_t t = 0; t < nt; ++t) {
                float acc[kLutLanes];
                std::memcpy(acc, p + (r * nt + t) * kLutLanes, sizeof acc);
                const float *xs = x + t * ldx + j;
                std::size_t q = 0;
                for (; q + kLutLanes <= n; q += kLutLanes)
                    for (std::size_t l = 0; l < kLutLanes; ++l)
                        acc[l] = acc[l] + table[idx[q + l]] * xs[q + l];
                for (std::size_t l = 0; q + l < n; ++l)
                    acc[l] = acc[l] + table[idx[q + l]] * xs[q + l];
                std::memcpy(p + (r * nt + t) * kLutLanes, acc, sizeof acc);
            }
        }
        for (std::size_t t = 0; t < nt; ++t) {
            float *pt = p + (r * nt + t) * kLutLanes;
            for (std::size_t half = kLutLanes / 2; half > 0; half /= 2)
                for (std::size_t l = 0; l < half; ++l)
                    pt[l] = pt[l] + pt[l + half];
            sums[r * sstride + t] = pt[0];
        }
    }
}

} // namespace gobo

#endif // GOBO_KERNELS_PACKED_HH
