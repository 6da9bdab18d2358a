/**
 * @file
 * AVX-512 kernel tier (F+BW+DQ+VL, optional VBMI fast paths).
 *
 * Dense kernels run 16-wide with masked tails (`__mmask16` loads keep
 * partial vectors exact: inactive lanes are never read, and masked
 * FMA lanes contribute an exact 0). Like the AVX2 tier they
 * reassociate float reductions, so callers get tolerance-level
 * equality with NaN/Inf still propagating. The row ops reuse the
 * Cephes-style exp/tanh polynomials of the AVX2 tier, widened to 512
 * bits with mask-register blends for the special cases.
 *
 * lutDot keeps the kernels.hh numeric contract exactly: the 16
 * partial sums are one zmm, products are rounded before the add
 * (deliberately NOT fmadd), and centroid lookup is an exact vpermps
 * (B <= 4), vpermi2ps (B = 5) or gather (B >= 6) — so the quantized
 * FC output is bit-identical to the generic tier. A call takes up to
 * 16 tokens (KernelSet::seqTile) and runs them through one register
 * micro-tile of up to four rows x four tokens: each looked-up weight
 * vector feeds four tokens and each loaded activation vector four
 * rows.
 *
 * lutDot reads the packed index stream itself and expands each row's
 * 16-index group in registers (lutBlockAvx512): with AVX-512 VBMI and
 * B <= 4, one vpmultishiftqb on a broadcast 8-byte load; otherwise two
 * broadcast loads, two vpsrlvq and a masked vpshufd. The groups whose
 * loads would pass the end of the stream, the in % 16 tail, and B = 8
 * rows that start mid-byte go through the scalar helpers every tier
 * shares (kernels/packed.hh). vpmultishiftqb is emitted as inline
 * assembly and cpuid-gated, so this file stays runnable on
 * F+BW+DQ+VL-only parts. Packed-row decode (KernelSet::decodePackedRow,
 * off the FC path) is the generic tier's.
 *
 * This file is compiled with -mavx512f -mavx512bw -mavx512dq
 * -mavx512vl on x86-64 builds only; elsewhere it degrades to a stub
 * that reports the tier as unavailable.
 */

#include "kernels/kernels.hh"
#include "kernels/packed.hh"

#if defined(__AVX512F__) && defined(__AVX512BW__) \
    && defined(__AVX512DQ__) && defined(__AVX512VL__)

// GCC 12 flags the intrinsics' deliberate `__Y = __Y` undefined
// operands as uninitialized wherever they inline; silence only those.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace gobo {

// The runtime probe lives in dispatch.cc (plain -O2 TU).
bool cpuSupportsAvx512Vbmi();

namespace {

constexpr std::size_t kTile = 16;
static_assert(kTile <= kMaxSeqTile,
              "avx512 tile width exceeds kMaxSeqTile");
/** Rows and tokens of lutDot's register micro-tile. */
constexpr std::size_t kMicro = 4;

/**
 * Vector expf, the AVX2 tier's Cephes polynomial widened to 16 lanes.
 * Special cases via mask blends: NaN in -> the same NaN out,
 * x > hi -> +Inf, x < lo -> 0.
 */
inline __m512
exp512(__m512 x0)
{
    const __m512 hi = _mm512_set1_ps(88.3762626647950f);
    const __m512 lo = _mm512_set1_ps(-88.3762626647949f);
    // NaN note: max/min return the second operand on unordered
    // compares, so a NaN lane comes out clamped-finite here and is
    // blended back to NaN below.
    __m512 x = _mm512_min_ps(_mm512_max_ps(x0, lo), hi);

    const __m512 log2e = _mm512_set1_ps(1.44269504088896341f);
    __m512 fx = _mm512_roundscale_ps(
        _mm512_fmadd_ps(x, log2e, _mm512_set1_ps(0.5f)),
        _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    // Cody-Waite: subtract fx * ln2 in two pieces to keep precision.
    x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
    x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), x);

    __m512 z = _mm512_mul_ps(x, x);
    __m512 y = _mm512_set1_ps(1.9875691500e-4f);
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
    y = _mm512_fmadd_ps(y, z, _mm512_add_ps(x, _mm512_set1_ps(1.0f)));

    // Scale by 2^fx through the exponent bits. fx is integral and in
    // [-127, 128] after the clamp, so the shift cannot wrap.
    __m512i n = _mm512_cvtps_epi32(fx);
    n = _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)),
                          23);
    y = _mm512_mul_ps(y, _mm512_castsi512_ps(n));

    y = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(x0, x0, _CMP_UNORD_Q), y, x0);
    y = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(x0, hi, _CMP_GT_OQ), y,
        _mm512_set1_ps(std::numeric_limits<float>::infinity()));
    y = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(x0, lo, _CMP_LT_OQ), y,
        _mm512_setzero_ps());
    return y;
}

/**
 * Vector tanh via exp(2x): (e-1)/(e+1), saturated to ±1 for |x| >= 10
 * (tanh(10) rounds to 1.0f) — which also catches ±Inf before the
 * Inf/Inf NaN. NaN falls through the formula and stays NaN.
 */
inline __m512
tanh512(__m512 x)
{
    const __m512 one = _mm512_set1_ps(1.0f);
    __m512 e = exp512(_mm512_add_ps(x, x));
    __m512 t = _mm512_div_ps(_mm512_sub_ps(e, one),
                             _mm512_add_ps(e, one));
    __mmask16 sat = _mm512_cmp_ps_mask(
        _mm512_abs_ps(x), _mm512_set1_ps(10.0f), _CMP_GE_OQ);
    // Saturated sign: copy x's sign bit onto 1.0.
    __m512 signed_one = _mm512_or_ps(
        one, _mm512_and_ps(x, _mm512_set1_ps(-0.0f)));
    return _mm512_mask_blend_ps(sat, t, signed_one);
}

float
dotAvx512(float init, const float *a, const float *b, std::size_t n)
{
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i),
                               _mm512_loadu_ps(b + i), acc0);
        acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                               _mm512_loadu_ps(b + i + 16), acc1);
        acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32),
                               _mm512_loadu_ps(b + i + 32), acc2);
        acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48),
                               _mm512_loadu_ps(b + i + 48), acc3);
    }
    for (; i + 16 <= n; i += 16)
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i),
                               _mm512_loadu_ps(b + i), acc0);
    if (i < n) {
        // Masked tail: inactive lanes load as exact 0 and the FMA
        // contributes 0, so the tail never reads past n.
        __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                               _mm512_maskz_loadu_ps(m, b + i), acc0);
    }
    acc0 = _mm512_add_ps(_mm512_add_ps(acc0, acc1),
                         _mm512_add_ps(acc2, acc3));
    return init + _mm512_reduce_add_ps(acc0);
}

void
axpyAvx512(float a, const float *x, float *y, std::size_t n)
{
    const __m512 va = _mm512_set1_ps(a);
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(y + j,
                         _mm512_fmadd_ps(va, _mm512_loadu_ps(x + j),
                                         _mm512_loadu_ps(y + j)));
    if (j < n) {
        __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        __m512 r = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, x + j),
                                   _mm512_maskz_loadu_ps(m, y + j));
        _mm512_mask_storeu_ps(y + j, m, r);
    }
}

void
softmaxRowAvx512(float *row, std::size_t n)
{
    constexpr float ninf = -std::numeric_limits<float>::infinity();
    const __m512 ninfv = _mm512_set1_ps(ninf);
    __m512 mv = ninfv;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        mv = _mm512_max_ps(mv, _mm512_loadu_ps(row + i));
    if (i < n) {
        // Masked max: inactive lanes stay -Inf, the identity.
        __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        mv = _mm512_max_ps(mv,
                           _mm512_mask_loadu_ps(ninfv, m, row + i));
    }
    float mx = _mm512_reduce_max_ps(mv);
    // A NaN lane slips past max (unordered compares are false both
    // ways), but exp(NaN - mx) poisons the sum below, so the whole row
    // still comes out NaN exactly like the scalar path.

    const __m512 mxv = _mm512_set1_ps(mx);
    __m512 sv = _mm512_setzero_ps();
    for (i = 0; i + 16 <= n; i += 16) {
        __m512 e =
            exp512(_mm512_sub_ps(_mm512_loadu_ps(row + i), mxv));
        _mm512_storeu_ps(row + i, e);
        sv = _mm512_add_ps(sv, e);
    }
    float sum = _mm512_reduce_add_ps(sv);
    for (; i < n; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
    }

    const __m512 sumv = _mm512_set1_ps(sum);
    for (i = 0; i + 16 <= n; i += 16)
        _mm512_storeu_ps(
            row + i, _mm512_div_ps(_mm512_loadu_ps(row + i), sumv));
    for (; i < n; ++i)
        row[i] /= sum;
}

void
layerNormRowAvx512(float *row, std::size_t n, const float *gamma,
                   const float *beta, float eps)
{
    __m512d s0 = _mm512_setzero_pd();
    __m512d s1 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 v = _mm512_loadu_ps(row + i);
        s0 = _mm512_add_pd(
            s0, _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
        s1 = _mm512_add_pd(
            s1, _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1)));
    }
    double mu = _mm512_reduce_add_pd(_mm512_add_pd(s0, s1));
    for (; i < n; ++i)
        mu += row[i];
    mu /= static_cast<double>(n);

    const __m512d muv = _mm512_set1_pd(mu);
    s0 = _mm512_setzero_pd();
    s1 = _mm512_setzero_pd();
    for (i = 0; i + 16 <= n; i += 16) {
        __m512 v = _mm512_loadu_ps(row + i);
        __m512d d0 = _mm512_sub_pd(
            _mm512_cvtps_pd(_mm512_castps512_ps256(v)), muv);
        __m512d d1 = _mm512_sub_pd(
            _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1)), muv);
        s0 = _mm512_fmadd_pd(d0, d0, s0);
        s1 = _mm512_fmadd_pd(d1, d1, s1);
    }
    double var = _mm512_reduce_add_pd(_mm512_add_pd(s0, s1));
    for (; i < n; ++i) {
        double d = row[i] - mu;
        var += d * d;
    }
    var /= static_cast<double>(n);
    auto inv = static_cast<float>(1.0 / std::sqrt(var + eps));

    const __m512 muf = _mm512_set1_ps(static_cast<float>(mu));
    const __m512 invv = _mm512_set1_ps(inv);
    i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 v = _mm512_sub_ps(_mm512_loadu_ps(row + i), muf);
        v = _mm512_mul_ps(_mm512_mul_ps(v, invv),
                          _mm512_loadu_ps(gamma + i));
        _mm512_storeu_ps(row + i,
                         _mm512_add_ps(v, _mm512_loadu_ps(beta + i)));
    }
    if (i < n) {
        __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        __m512 v = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, row + i),
                                 muf);
        v = _mm512_mul_ps(_mm512_mul_ps(v, invv),
                          _mm512_maskz_loadu_ps(m, gamma + i));
        v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(m, beta + i));
        _mm512_mask_storeu_ps(row + i, m, v);
    }
}

void
geluRowAvx512(float *row, std::size_t n)
{
    const __m512 k = _mm512_set1_ps(0.7978845608028654f); // sqrt(2/pi)
    const __m512 c = _mm512_set1_ps(0.044715f);
    const __m512 half = _mm512_set1_ps(0.5f);
    const __m512 one = _mm512_set1_ps(1.0f);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 v = _mm512_loadu_ps(row + i);
        __m512 v3 = _mm512_mul_ps(_mm512_mul_ps(v, v), v);
        __m512 inner =
            _mm512_mul_ps(k, _mm512_add_ps(v, _mm512_mul_ps(c, v3)));
        __m512 t = _mm512_add_ps(one, tanh512(inner));
        _mm512_storeu_ps(row + i,
                         _mm512_mul_ps(_mm512_mul_ps(half, v), t));
    }
    if (i < n) {
        // Lanes are independent, so the masked tail computes the same
        // value per live lane as the full-width body.
        __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        __m512 v = _mm512_maskz_loadu_ps(m, row + i);
        __m512 v3 = _mm512_mul_ps(_mm512_mul_ps(v, v), v);
        __m512 inner =
            _mm512_mul_ps(k, _mm512_add_ps(v, _mm512_mul_ps(c, v3)));
        __m512 t = _mm512_add_ps(one, tanh512(inner));
        _mm512_mask_storeu_ps(
            row + i, m, _mm512_mul_ps(_mm512_mul_ps(half, v), t));
    }
}

void
tanhRowAvx512(float *row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(row + i,
                         tanh512(_mm512_loadu_ps(row + i)));
    if (i < n) {
        __mmask16 m =
            static_cast<__mmask16>((1u << (n - i)) - 1u);
        _mm512_mask_storeu_ps(
            row + i, m, tanh512(_mm512_maskz_loadu_ps(m, row + i)));
    }
}

static_assert(kLutLanes == 16,
              "the AVX-512 lutDot holds the 16 partial sums in one zmm");

/**
 * Exact centroid lookup for 16 epi32 indexes. Kind 0: k <= 16, one
 * vpermps; kind 1: k <= 32, vpermi2ps over two table registers;
 * kind 2: anything larger, a gather straight from the table.
 */
template <int Kind>
struct LutAvx512
{
    __m512 lo, hi;
    const float *table;

    LutAvx512(const float *t, std::size_t k) : table(t)
    {
        if constexpr (Kind == 0) {
            // The k centroids repeat with period bit_ceil(k), which
            // divides 2^B: entry i is centroid i mod 2^B, so an index
            // expanded in registers may carry bits above B.
            const std::size_t period = std::bit_ceil(k);
            alignas(64) float rep[16] = {};
            for (std::size_t i = 0; i < 16; ++i)
                if (i % period < k)
                    rep[i] = t[i % period];
            lo = _mm512_load_ps(rep);
            hi = lo;
        } else {
            // Entries past k are zero; indexes never reach them.
            std::size_t n_hi = k < 32 ? k - 16 : 16;
            lo = _mm512_loadu_ps(t);
            hi = _mm512_maskz_loadu_ps(
                static_cast<__mmask16>((1u << n_hi) - 1u), t + 16);
        }
    }

    __m512
    operator()(__m512i iv) const
    {
        if constexpr (Kind == 0)
            return _mm512_permutexvar_ps(iv, lo);
        else if constexpr (Kind == 1)
            return _mm512_permutex2var_ps(lo, iv, hi);
        else
            return _mm512_i32gather_ps(iv, table, 4);
    }
};

/** The contract's halving tree: l += l+8, +4, +2, +1. */
inline float
lutTree(__m512 p)
{
    __m256 a = _mm256_add_ps(_mm512_castps512_ps256(p),
                             _mm512_extractf32x8_ps(p, 1));
    __m128 b = _mm_add_ps(_mm256_castps256_ps128(a),
                          _mm256_extractf128_ps(a, 1));
    b = _mm_add_ps(b, _mm_movehl_ps(b, b));
    b = _mm_add_ss(b, _mm_shuffle_ps(b, b, 1));
    return _mm_cvtss_f32(b);
}

/** f(integral_constant<0>), .., f(integral_constant<N-1>), unrolled so
 * accumulator arrays index by constants and stay in registers. */
template <std::size_t N, typename F>
inline void
unrolled(F &&f)
{
    [&]<std::size_t... T>(std::index_sequence<T...>) {
        (f(std::integral_constant<std::size_t, T>{}), ...);
    }(std::make_index_sequence<N>{});
}

/**
 * vpmultishiftqb with a broadcast 8-byte memory operand: byte b of
 * every qword is the 8 bits at offset ctrl byte b (mod 64) of the 8
 * bytes at p. Inline assembly, so the TU needs no VBMI code
 * generation; only the VBMI tile, which cpuid gates, runs it.
 */
inline __m512i
multishiftBroadcast(__m512i ctrl, const std::uint8_t *p)
{
    __m512i out;
    asm("vpmultishiftqb %2%{1to8%}, %1, %0"
        : "=v"(out)
        : "v"(ctrl), "m"(*reinterpret_cast<const char(*)[8]>(p)));
    return out;
}

/**
 * lutDot for R rows x NT tokens at once, rows starting at bit0, bit0 +
 * in * bits, ..: each row's 16-index group is expanded in registers
 * and looked up once, then multiplied into every token's accumulator,
 * and each token's activation vector is loaded once for all R rows.
 * Row r's sums go to sums[r * sstride + t].
 *
 * Vbmi (B <= 4, each row's phase + 16B <= 64, checked by the caller):
 * one vpmultishiftqb on the group's 8 bytes, whose control byte 4j
 * takes the bits at phase + j * B into dword j's low byte.
 *
 * Otherwise (B <= 7, or B = 8 at a whole byte): indexes 0..7 sit in
 * the 8 bytes at the group's first byte, 8..15 in the 8 bytes B bytes
 * on, both at the row's bit phase (8B bits is whole bytes). One vector
 * holds the first word in qwords 0-3 and the second in 4-7; two
 * vpsrlvq bring index 2l to the low dword of qword l and 2l + 1 to the
 * low dword of a second vector, and a masked vpshufd moves it up.
 *
 * Either way the bits above B in a dword are other fields': vpermps
 * and vpermi2ps read only the low 4 or 5 bits (Kind 0's table repeats
 * with period 2^B), and the gather's indexes are masked.
 */
template <int Kind, bool Vbmi, std::size_t R, std::size_t NT>
void
lutBlockAvx512(const std::uint8_t *bytes, std::size_t byteLen,
               std::size_t bit0, std::uint32_t bits, std::size_t in,
               const LutAvx512<Kind> &lut, const float *x,
               std::size_t ldx, float *sums, std::size_t sstride)
{
    const std::size_t row_bits = in * bits;
    const __m512i field =
        Vbmi ? _mm512_mullo_epi32(_mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7,
                                                    8, 9, 10, 11, 12, 13,
                                                    14, 15),
                                  _mm512_set1_epi32(static_cast<int>(bits)))
             : _mm512_mullo_epi64(_mm512_setr_epi64(0, 2, 4, 6, 0, 2, 4, 6),
                                  _mm512_set1_epi64(bits));
    bool in_registers = true;
    const std::uint8_t *row[R];
    __m512i ctrl[R];
    unrolled<R>([&](auto r) {
        std::size_t bit = bit0 + r * row_bits;
        row[r] = bytes + bit / 8;
        ctrl[r] = _mm512_add_epi32(
            field, Vbmi ? _mm512_set1_epi32(static_cast<int>(bit % 8))
                        : _mm512_set1_epi64(bit % 8));
        in_registers = in_registers && (Vbmi || bit % 8 + 8 * bits <= 64);
    });
    __m512 acc[R][NT];
    unrolled<R>([&](auto r) {
        unrolled<NT>([&](auto t) { acc[r][t] = _mm512_setzero_ps(); });
    });
    const std::size_t wide =
        in_registers
            ? wideGroups(byteLen, bit0, R, bits, in, Vbmi ? 8 : bits + 8)
            : 0;
    const __m512i step = _mm512_set1_epi64(bits);
    const __m512i bmask = _mm512_set1_epi32((1 << bits) - 1);
    for (std::size_t g = 0; g < wide; ++g) {
        __m512 w[R];
        unrolled<R>([&](auto r) {
            const std::uint8_t *p = row[r] + 2 * bits * g;
            __m512i iv;
            if constexpr (Vbmi) {
                iv = multishiftBroadcast(ctrl[r], p);
            } else {
                long long lo, hi;
                std::memcpy(&lo, p, sizeof lo);
                std::memcpy(&hi, p + bits, sizeof hi);
                __m512i v = _mm512_mask_set1_epi64(_mm512_set1_epi64(lo),
                                                   0xF0, hi);
                iv = _mm512_mask_shuffle_epi32(
                    _mm512_srlv_epi64(v, ctrl[r]), 0xAAAA,
                    _mm512_srlv_epi64(v, _mm512_add_epi64(ctrl[r], step)),
                    _MM_PERM_CCAA);
            }
            if constexpr (Kind == 2)
                iv = _mm512_and_si512(iv, bmask);
            w[r] = lut(iv);
        });
        unrolled<NT>([&](auto t) {
            __m512 xv = _mm512_loadu_ps(x + t * ldx + 16 * g);
            unrolled<R>([&](auto r) {
                acc[r][t] =
                    _mm512_add_ps(acc[r][t], _mm512_mul_ps(w[r], xv));
            });
        });
    }
    if (16 * wide == in) {
        unrolled<R>([&](auto r) {
            unrolled<NT>([&](auto t) {
                sums[r * sstride + t] = lutTree(acc[r][t]);
            });
        });
        return;
    }
    // The groups past `wide` and the in % 16 tail: scalar, on the
    // spilled partial sums.
    alignas(64) float p[R * NT * 16];
    unrolled<R>([&](auto r) {
        unrolled<NT>([&](auto t) {
            _mm512_store_ps(p + (r * NT + t) * 16, acc[r][t]);
        });
    });
    lutFinish(p, R, NT, lut.table, bytes, byteLen, bit0, bits, in, 16 * wide,
              x, ldx, sums, sstride);
}

/** lutBlockAvx512<Kind, Vbmi, R, NT> for R, NT in 1..4, indexed by
 * [R - 1][NT - 1]. */
template <int Kind, bool Vbmi, std::size_t... R>
constexpr auto
lutTilesAvx512(std::index_sequence<R...>)
{
    return std::array{std::array{&lutBlockAvx512<Kind, Vbmi, R + 1, 1>,
                                 &lutBlockAvx512<Kind, Vbmi, R + 1, 2>,
                                 &lutBlockAvx512<Kind, Vbmi, R + 1, 3>,
                                 &lutBlockAvx512<Kind, Vbmi, R + 1, 4>}...};
}

template <int Kind>
void
lutDotKindAvx512(const std::uint8_t *bytes, std::size_t byteLen,
                 std::size_t bitOffset, std::uint32_t bits,
                 std::size_t rows, std::size_t in, const float *table,
                 std::size_t k, const float *x, std::size_t ldx,
                 std::size_t seq, float *sums, bool vbmi)
{
    static constexpr auto tiles =
        lutTilesAvx512<Kind, false>(std::make_index_sequence<4>{});
    const LutAvx512<Kind> lut(table, k);
    const std::size_t row_bits = in * bits;
    // One micro-tile family: up to four rows x four tokens, so each
    // looked-up weight vector feeds four tokens and each activation
    // load four rows (16 accumulators + 4 weights + 2 table registers
    // of the 32 zmm). Four token rows at a time keep their activation
    // lines in L1 even when rows sit a multiple of 4 KiB apart
    // (in = 3072): a 16-token tile put 16 lines per step into one L1
    // set, more than its 12 ways. Tokens are the outer loop, so each
    // token group's lines serve every row of the call.
    for (std::size_t s = 0; s < seq; s += kMicro) {
        std::size_t nt = std::min(seq - s, kMicro);
        for (std::size_t r = 0; r < rows; r += kMicro) {
            std::size_t nr = std::min(rows - r, kMicro);
            std::size_t bit = bitOffset + r * row_bits;
            auto tile = tiles[nr - 1][nt - 1];
            if constexpr (Kind == 0) {
                // The VBMI tile needs each row's group in one word.
                static constexpr auto vbmi_tiles =
                    lutTilesAvx512<0, true>(std::make_index_sequence<4>{});
                bool fits = vbmi;
                for (std::size_t q = 0; q < nr; ++q)
                    fits = fits && (bit + q * row_bits) % 8 + 16 * bits <= 64;
                if (fits)
                    tile = vbmi_tiles[nr - 1][nt - 1];
            }
            tile(bytes, byteLen, bit, bits, in, lut, x + s * ldx, ldx,
                 sums + r * seq + s, seq);
        }
    }
}

/** lutDot; `Vbmi` when the CPU has VBMI, used by Kind 0 rows with B <= 4. */
template <bool Vbmi>
void
lutDotAvx512(const std::uint8_t *bytes, std::size_t byteLen,
             std::size_t bitOffset, std::uint32_t bits, std::size_t rows,
             std::size_t in, const float *table, std::size_t k,
             const float *x, std::size_t ldx, std::size_t seq, float *sums)
{
    if (k <= 16)
        lutDotKindAvx512<0>(bytes, byteLen, bitOffset, bits, rows, in,
                            table, k, x, ldx, seq, sums, Vbmi);
    else if (k <= 32)
        lutDotKindAvx512<1>(bytes, byteLen, bitOffset, bits, rows, in,
                            table, k, x, ldx, seq, sums, false);
    else
        lutDotKindAvx512<2>(bytes, byteLen, bitOffset, bits, rows, in,
                            table, k, x, ldx, seq, sums, false);
}

} // namespace

const KernelSet *
avx512KernelsBuild()
{
    static const KernelSet set = [] {
        KernelSet s{};
        s.name = "avx512";
        s.reassociates = true;
        s.seqTile = kTile;
        s.dot = dotAvx512;
        s.axpy = axpyAvx512;
        s.softmaxRow = softmaxRowAvx512;
        s.layerNormRow = layerNormRowAvx512;
        s.geluRow = geluRowAvx512;
        s.tanhRow = tanhRowAvx512;
        s.lutDot = lutDotAvx512<false>;
        s.decodePackedRow = decodePackedRowGeneric;
        if (cpuSupportsAvx512Vbmi())
            s.lutDot = lutDotAvx512<true>;
        return s;
    }();
    return &set;
}

} // namespace gobo

#else // !(__AVX512F__ && __AVX512BW__ && __AVX512DQ__ && __AVX512VL__)

namespace gobo {

/** Build-time stub: this target was compiled without AVX-512. */
const KernelSet *
avx512KernelsBuild()
{
    return nullptr;
}

} // namespace gobo

#endif
