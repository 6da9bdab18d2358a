/**
 * @file
 * AVX2+FMA kernel tier.
 *
 * Dense kernels (dot/axpy) use 8-lane FMA with multiple accumulators,
 * so float reductions reassociate relative to the generic tier —
 * callers get tolerance-level equality, with NaN/Inf still propagating
 * (no zero-skips, no flush-to-zero). The row ops vectorize exp/tanh
 * with a Cephes-style polynomial whose special cases are blended back
 * explicitly so NaN stays NaN and ±Inf behaves like the scalar libm
 * path.
 *
 * lutDot is different: it keeps the kernels.hh numeric contract
 * exactly — the 16 partial sums live in two ymm (lanes i mod 16 in
 * 0..7 and 8..15), each product is fused into its lane with one
 * vfmadd (correctly rounded, like the scalar std::fma of the other
 * tiers), and centroid lookup is an exact vpermps or gather — so the
 * quantized FC output is bit-identical to the generic tier. It
 * expands the packed indexes in registers (lutBlockAvx2), with the
 * scalar helpers of kernels/packed.hh at the end of the stream and in
 * the in % 16 tail.
 *
 * This file is compiled with -mavx2 -mfma on x86-64 builds only; on
 * other targets (or compilers without AVX2) it degrades to a stub that
 * reports the tier as unavailable.
 */

#include "kernels/kernels.hh"
#include "kernels/packed.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace gobo {

namespace {

/** Horizontal sum of 8 float lanes. */
inline float
hsum(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    return _mm_cvtss_f32(lo);
}

/** Horizontal max of 8 float lanes. */
inline float
hmax(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_max_ps(lo, hi);
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    return _mm_cvtss_f32(lo);
}

/** Horizontal sum of 4 double lanes. */
inline double
hsumd(__m256d v)
{
    __m128d lo = _mm256_castpd256_pd128(v);
    __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    lo = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
    return _mm_cvtsd_f64(lo);
}

/**
 * Vector expf (Cephes polynomial, ~1 ulp over the clamped range) with
 * explicit special handling: NaN in -> the same NaN out, x > hi -> +Inf,
 * x < lo -> 0. The clamp bounds are the float exp overflow/underflow
 * edges, so finite inputs land in the polynomial's valid range.
 */
inline __m256
exp256(__m256 x0)
{
    const __m256 hi = _mm256_set1_ps(88.3762626647950f);
    const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
    // NaN note: max/min return the second operand on unordered
    // compares, so a NaN lane comes out clamped-finite here and is
    // blended back to NaN below.
    __m256 x = _mm256_min_ps(_mm256_max_ps(x0, lo), hi);

    const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
    __m256 fx = _mm256_floor_ps(_mm256_fmadd_ps(x, log2e,
                                                _mm256_set1_ps(0.5f)));
    // Cody-Waite: subtract fx * ln2 in two pieces to keep precision.
    x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
    x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);

    __m256 z = _mm256_mul_ps(x, x);
    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
    y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, _mm256_set1_ps(1.0f)));

    // Scale by 2^fx through the exponent bits. fx is integral and in
    // [-127, 128] after the clamp, so the shift cannot wrap.
    __m256i n = _mm256_cvtps_epi32(fx);
    n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)),
                          23);
    y = _mm256_mul_ps(y, _mm256_castsi256_ps(n));

    y = _mm256_blendv_ps(y, x0,
                         _mm256_cmp_ps(x0, x0, _CMP_UNORD_Q));
    y = _mm256_blendv_ps(
        y,
        _mm256_set1_ps(std::numeric_limits<float>::infinity()),
        _mm256_cmp_ps(x0, hi, _CMP_GT_OQ));
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(),
                         _mm256_cmp_ps(x0, lo, _CMP_LT_OQ));
    return y;
}

/**
 * Vector tanh via exp(2x): (e-1)/(e+1), saturated to ±1 for |x| >= 10
 * (tanh(10) rounds to 1.0f) — which also catches ±Inf before the
 * Inf/Inf NaN. NaN falls through the formula and stays NaN.
 */
inline __m256
tanh256(__m256 x)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    __m256 e = exp256(_mm256_add_ps(x, x));
    __m256 t = _mm256_div_ps(_mm256_sub_ps(e, one),
                             _mm256_add_ps(e, one));
    __m256 sat = _mm256_cmp_ps(
        _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x),
        _mm256_set1_ps(10.0f), _CMP_GE_OQ);
    // Saturated sign: copy x's sign bit onto 1.0.
    __m256 signed_one = _mm256_or_ps(
        one, _mm256_and_ps(x, _mm256_set1_ps(-0.0f)));
    return _mm256_blendv_ps(t, signed_one, sat);
}

float
dotAvx2(float init, const float *a, const float *b, std::size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                               _mm256_loadu_ps(b + i + 16), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                               _mm256_loadu_ps(b + i + 24), acc3);
    }
    for (; i + 8 <= n; i += 8)
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
    acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                         _mm256_add_ps(acc2, acc3));
    float acc = init + hsum(acc0);
    for (; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
axpyAvx2(float a, const float *x, float *y, std::size_t n)
{
    const __m256 va = _mm256_set1_ps(a);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(y + j,
                         _mm256_fmadd_ps(va, _mm256_loadu_ps(x + j),
                                         _mm256_loadu_ps(y + j)));
    for (; j < n; ++j)
        y[j] += a * x[j];
}

void
softmaxRowAvx2(float *row, std::size_t n)
{
    constexpr float ninf = -std::numeric_limits<float>::infinity();
    __m256 mv = _mm256_set1_ps(ninf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        mv = _mm256_max_ps(mv, _mm256_loadu_ps(row + i));
    float mx = n >= 8 ? hmax(mv) : ninf;
    for (; i < n; ++i)
        mx = row[i] > mx ? row[i] : mx;
    // A NaN lane slips past max (unordered compares are false both
    // ways), but exp(NaN - mx) poisons the sum below, so the whole row
    // still comes out NaN exactly like the scalar path.

    const __m256 mxv = _mm256_set1_ps(mx);
    __m256 sv = _mm256_setzero_ps();
    for (i = 0; i + 8 <= n; i += 8) {
        __m256 e = exp256(_mm256_sub_ps(_mm256_loadu_ps(row + i), mxv));
        _mm256_storeu_ps(row + i, e);
        sv = _mm256_add_ps(sv, e);
    }
    float sum = hsum(sv);
    for (; i < n; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
    }

    const __m256 sumv = _mm256_set1_ps(sum);
    for (i = 0; i + 8 <= n; i += 8)
        _mm256_storeu_ps(row + i,
                         _mm256_div_ps(_mm256_loadu_ps(row + i), sumv));
    for (; i < n; ++i)
        row[i] /= sum;
}

void
layerNormRowAvx2(float *row, std::size_t n, const float *gamma,
                 const float *beta, float eps)
{
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(row + i);
        s0 = _mm256_add_pd(s0,
                           _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
        s1 = _mm256_add_pd(s1,
                           _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
    }
    double mu = hsumd(_mm256_add_pd(s0, s1));
    for (; i < n; ++i)
        mu += row[i];
    mu /= static_cast<double>(n);

    const __m256d muv = _mm256_set1_pd(mu);
    s0 = _mm256_setzero_pd();
    s1 = _mm256_setzero_pd();
    for (i = 0; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(row + i);
        __m256d d0 = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm256_castps256_ps128(v)), muv);
        __m256d d1 = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), muv);
        s0 = _mm256_fmadd_pd(d0, d0, s0);
        s1 = _mm256_fmadd_pd(d1, d1, s1);
    }
    double var = hsumd(_mm256_add_pd(s0, s1));
    for (; i < n; ++i) {
        double d = row[i] - mu;
        var += d * d;
    }
    var /= static_cast<double>(n);
    auto inv = static_cast<float>(1.0 / std::sqrt(var + eps));

    const __m256 muf = _mm256_set1_ps(static_cast<float>(mu));
    const __m256 invv = _mm256_set1_ps(inv);
    for (i = 0; i + 8 <= n; i += 8) {
        __m256 v = _mm256_sub_ps(_mm256_loadu_ps(row + i), muf);
        v = _mm256_mul_ps(_mm256_mul_ps(v, invv),
                          _mm256_loadu_ps(gamma + i));
        _mm256_storeu_ps(row + i,
                         _mm256_add_ps(v, _mm256_loadu_ps(beta + i)));
    }
    for (; i < n; ++i)
        row[i] = (row[i] - static_cast<float>(mu)) * inv * gamma[i]
                 + beta[i];
}

void
geluRowAvx2(float *row, std::size_t n)
{
    const __m256 k = _mm256_set1_ps(0.7978845608028654f); // sqrt(2/pi)
    const __m256 c = _mm256_set1_ps(0.044715f);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 one = _mm256_set1_ps(1.0f);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(row + i);
        __m256 v3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
        __m256 inner = _mm256_mul_ps(
            k, _mm256_add_ps(v, _mm256_mul_ps(c, v3)));
        __m256 t = _mm256_add_ps(one, tanh256(inner));
        _mm256_storeu_ps(row + i,
                         _mm256_mul_ps(_mm256_mul_ps(half, v), t));
    }
    for (; i < n; ++i) {
        float v = row[i];
        float inner = 0.7978845608028654f
                      * (v + 0.044715f * v * v * v);
        row[i] = 0.5f * v * (1.0f + std::tanh(inner));
    }
}

void
tanhRowAvx2(float *row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(row + i, tanh256(_mm256_loadu_ps(row + i)));
    for (; i < n; ++i)
        row[i] = std::tanh(row[i]);
}

static_assert(kLutLanes == 16,
              "the AVX2 lutDot holds the 16 partial sums in two ymm");

/**
 * Exact centroid lookup for 8 epi32 indexes. Kind 0: k <= 8, one
 * vpermps; kind 1: k <= 16, a vpermps per table half blended on index
 * bit 3; kind 2: anything larger, a gather straight from the table.
 */
template <int Kind>
struct LutAvx2
{
    __m256 lo, hi;
    const float *table;

    LutAvx2(const float *t, std::size_t k) : table(t)
    {
        // The k centroids repeat with period bit_ceil(k), which
        // divides 2^B: entry i is centroid i mod 2^B, so an index may
        // carry bits above B (lutBlockAvx2's in-register expansion).
        const std::size_t period =
            std::bit_ceil(std::min<std::size_t>(k, 16));
        alignas(32) float pad[16] = {};
        for (std::size_t i = 0; i < 16; ++i)
            if (i % period < k)
                pad[i] = t[i % period];
        lo = _mm256_load_ps(pad);
        hi = _mm256_load_ps(pad + 8);
    }

    __m256
    operator()(__m256i iv) const
    {
        if constexpr (Kind == 0) {
            return _mm256_permutevar8x32_ps(lo, iv);
        } else if constexpr (Kind == 1) {
            return _mm256_blendv_ps(
                _mm256_permutevar8x32_ps(lo, iv),
                _mm256_permutevar8x32_ps(hi, iv),
                _mm256_castsi256_ps(_mm256_slli_epi32(iv, 28)));
        } else {
            return _mm256_i32gather_ps(table, iv, 4);
        }
    }
};

/** f(integral_constant<0>), .., f(integral_constant<N-1>), unrolled so
 * per-token accumulator arrays index by constants and stay in
 * registers. */
template <std::size_t N, typename F>
inline void
unrolled(F &&f)
{
    [&]<std::size_t... T>(std::index_sequence<T...>) {
        (f(std::integral_constant<std::size_t, T>{}), ...);
    }(std::make_index_sequence<N>{});
}

/**
 * lutDot for one row against NT tokens at once: each 16-index group is
 * expanded and looked up once and fused into every token's two
 * accumulators.
 *
 * Expansion in registers, for B <= 7 or a byte-aligned B = 8: the 8
 * indexes of a half group sit in the 8 bytes at its first byte, at
 * the row's bit phase (8B bits is whole bytes). That word broadcast
 * to four qwords, two vpsrlvq bring index 2l to the low dword of
 * qword l and 2l + 1 to the low dword of a second vector, shifted up
 * and blended in. Bits above B are the next fields': vpermps reads
 * the low 3 bits (the table repeats with period 2^B), the Kind 1 blend
 * bit 3, and the gather's indexes are masked. The groups whose loads
 * would pass byteLen and the in % 16 tail run through the scalar
 * lutFinish (kernels/packed.hh) on the spilled partial sums.
 */
template <int Kind, std::size_t NT>
void
lutBlockAvx2(const std::uint8_t *bytes, std::size_t byteLen,
             std::size_t bit0, std::uint32_t bits, std::size_t in,
             const LutAvx2<Kind> &lut, const float *x, std::size_t ldx,
             float *sums)
{
    const std::uint8_t *row = bytes + bit0 / 8;
    const auto phase = static_cast<long long>(bit0 % 8);
    const auto b = static_cast<long long>(bits);
    const __m256i even =
        _mm256_setr_epi64x(phase, phase + 2 * b, phase + 4 * b, phase + 6 * b);
    const __m256i odd = _mm256_add_epi64(even, _mm256_set1_epi64x(b));
    const __m256i bmask = _mm256_set1_epi32((1 << bits) - 1);
    auto expand = [&](const std::uint8_t *p) {
        long long word;
        std::memcpy(&word, p, sizeof word);
        __m256i v = _mm256_set1_epi64x(word);
        __m256i iv = _mm256_blend_epi32(
            _mm256_srlv_epi64(v, even),
            _mm256_slli_epi64(_mm256_srlv_epi64(v, odd), 32), 0xAA);
        if constexpr (Kind == 2)
            iv = _mm256_and_si256(iv, bmask);
        return lut(iv);
    };

    __m256 acc0[NT], acc1[NT];
    unrolled<NT>([&](auto t) {
        acc0[t] = _mm256_setzero_ps();
        acc1[t] = _mm256_setzero_ps();
    });
    const std::size_t wide =
        bit0 % 8 + 8 * bits <= 64
            ? wideGroups(byteLen, bit0, 1, bits, in, bits + 8)
            : 0;
    for (std::size_t g = 0; g < wide; ++g) {
        __m256 w0 = expand(row + 2 * bits * g);
        __m256 w1 = expand(row + 2 * bits * g + bits);
        unrolled<NT>([&](auto t) {
            const float *xs = x + t * ldx + 16 * g;
            acc0[t] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(xs), acc0[t]);
            acc1[t] = _mm256_fmadd_ps(w1, _mm256_loadu_ps(xs + 8), acc1[t]);
        });
    }
    alignas(32) float p[NT * 16];
    unrolled<NT>([&](auto t) {
        _mm256_store_ps(p + 16 * t, acc0[t]);
        _mm256_store_ps(p + 16 * t + 8, acc1[t]);
    });
    lutFinish(p, 1, NT, lut.table, bytes, byteLen, bit0, bits, in, 16 * wide,
              x, ldx, sums, 0);
}

/** lutBlockAvx2<Kind, n> for n = 1..4, indexed by n - 1. */
template <int Kind, std::size_t... N>
constexpr auto
lutBlocksAvx2(std::index_sequence<N...>)
{
    return std::array{&lutBlockAvx2<Kind, N + 1>...};
}

template <int Kind>
void
lutDotKindAvx2(const std::uint8_t *bytes, std::size_t byteLen,
               std::size_t bitOffset, std::uint32_t bits, std::size_t rows,
               std::size_t in, const float *table, std::size_t k,
               const float *x, std::size_t ldx, std::size_t seq,
               float *sums)
{
    static constexpr auto blocks =
        lutBlocksAvx2<Kind>(std::make_index_sequence<4>{});
    const LutAvx2<Kind> lut(table, k);
    // Up to four tokens per lookup: 8 accumulators + 2 table halves +
    // 2 weight vectors fit the 16 ymm registers.
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t s = 0; s < seq;) {
            std::size_t n = std::min<std::size_t>(seq - s, 4);
            blocks[n - 1](bytes, byteLen, bitOffset + r * in * bits, bits,
                          in, lut, x + s * ldx, ldx, sums + r * seq + s);
            s += n;
        }
}

void
lutDotAvx2(const std::uint8_t *bytes, std::size_t byteLen,
           std::size_t bitOffset, std::uint32_t bits, std::size_t rows,
           std::size_t in, const float *table, std::size_t k,
           const float *x, std::size_t ldx, std::size_t seq, float *sums)
{
    if (k <= 8)
        lutDotKindAvx2<0>(bytes, byteLen, bitOffset, bits, rows, in, table,
                          k, x, ldx, seq, sums);
    else if (k <= 16)
        lutDotKindAvx2<1>(bytes, byteLen, bitOffset, bits, rows, in, table,
                          k, x, ldx, seq, sums);
    else
        lutDotKindAvx2<2>(bytes, byteLen, bitOffset, bits, rows, in, table,
                          k, x, ldx, seq, sums);
}

} // namespace

const KernelSet *
avx2KernelsBuild()
{
    static const KernelSet set = {
        "avx2",
        /*reassociates=*/true,
        /*seqTile=*/kSeqTile,
        dotAvx2,
        axpyAvx2,
        softmaxRowAvx2,
        layerNormRowAvx2,
        geluRowAvx2,
        tanhRowAvx2,
        lutDotAvx2,
        decodePackedRowGeneric,
    };
    return &set;
}

} // namespace gobo

#else // !(__AVX2__ && __FMA__)

namespace gobo {

/** Build-time stub: this target was compiled without AVX2+FMA. */
const KernelSet *
avx2KernelsBuild()
{
    return nullptr;
}

} // namespace gobo

#endif
