/**
 * @file
 * AVX-512 kernel tier (F+BW+DQ+VL, optional VBMI decode fast path).
 *
 * Dense kernels run 16-wide with masked tails (`__mmask16` loads keep
 * partial vectors exact: inactive lanes are never read, and masked
 * FMA lanes contribute an exact 0). Like the AVX2 tier they
 * reassociate float reductions, so callers get tolerance-level
 * equality with NaN/Inf still propagating. The row ops reuse the
 * Cephes-style exp/tanh polynomials of the AVX2 tier, widened to 512
 * bits with mask-register blends for the special cases.
 *
 * The bucket-tile kernels run 16 sequence lanes per tile
 * (KernelSet::seqTile == 16) and keep the scalar loop's per-lane
 * double arithmetic and order exactly (convert-then-add in phase 1,
 * multiply-then-add — deliberately NOT fmadd — in phases 2/3), so the
 * quantized FC output is bit-identical to the generic tier. Widening
 * the tile adds lanes, never reassociates within one.
 *
 * Packed-row decode: when the CPU also has AVX-512 VBMI, groups of 64
 * B-bit indexes (B <= 6) decode with three instructions — vpermb
 * gathers the 8B payload bytes so qword lane l holds the bytes of its
 * 8 indexes, vpmultishiftqb extracts all 64 fields at per-lane bit
 * offsets {0, B, .., 7B}, and one AND masks to B bits. That replaces
 * the scalar LUT walk (one table row per byte) with an in-register
 * expansion at 64 indexes per iteration. Decode output is exact
 * bytes, so the fast path is freely interchangeable with the generic
 * decoder — the tier picks it at runtime via cpuid and falls back per
 * call for B > 6. The VBMI functions carry a target attribute instead
 * of TU-wide -mavx512vbmi so the rest of this file stays runnable on
 * F+BW+DQ+VL-only parts.
 *
 * This file is compiled with -mavx512f -mavx512bw -mavx512dq
 * -mavx512vl on x86-64 builds only; elsewhere it degrades to a stub
 * that reports the tier as unavailable.
 */

#include "kernels/kernels.hh"

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

#include <cmath>
#include <limits>

#if defined(__GNUC__) || defined(__clang__)
#define GOBO_VBMI_DECODE 1
#define GOBO_VBMI_TARGET __attribute__((target("avx512vbmi")))
#endif

namespace gobo {

// The runtime probe lives in dispatch.cc (plain -O2 TU).
bool cpuSupportsAvx512Vbmi();

namespace {

constexpr std::size_t kTile = 16;
static_assert(kTile <= kMaxSeqTile,
              "avx512 tile width exceeds kMaxSeqTile");

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

void
bucketAccTileAvx512(const std::uint8_t *irow, std::size_t in,
                    const float *xT, double *bucket, std::size_t k)
{
    const __m512d zero = _mm512_setzero_pd();
    for (std::size_t c = 0; c < k; ++c) {
        _mm512_storeu_pd(bucket + c * kTile, zero);
        _mm512_storeu_pd(bucket + c * kTile + 8, zero);
    }
    // Vertical adds only: lane l accumulates its activations in
    // ascending-i order, exactly the scalar reduction, in double.
    for (std::size_t i = 0; i < in; ++i) {
        double *dst = bucket + std::size_t{irow[i]} * kTile;
        __m512 x = _mm512_loadu_ps(xT + i * kTile);
        __m512d lo = _mm512_cvtps_pd(_mm512_castps512_ps256(x));
        __m512d hi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(x, 1));
        _mm512_storeu_pd(dst,
                         _mm512_add_pd(_mm512_loadu_pd(dst), lo));
        _mm512_storeu_pd(dst + 8,
                         _mm512_add_pd(_mm512_loadu_pd(dst + 8), hi));
    }
}

void
centroidDotTileAvx512(const float *centroids, std::size_t k,
                      const double *bucket, double bias, double *acc)
{
    __m512d a0 = _mm512_set1_pd(bias);
    __m512d a1 = a0;
    for (std::size_t c = 0; c < k; ++c) {
        const __m512d cv =
            _mm512_set1_pd(static_cast<double>(centroids[c]));
        // mul then add, not fmadd: the scalar loop rounds the product
        // before accumulating, and this tier promises bit-identity.
        a0 = _mm512_add_pd(
            a0,
            _mm512_mul_pd(cv, _mm512_loadu_pd(bucket + c * kTile)));
        a1 = _mm512_add_pd(
            a1, _mm512_mul_pd(
                    cv, _mm512_loadu_pd(bucket + c * kTile + 8)));
    }
    _mm512_storeu_pd(acc, a0);
    _mm512_storeu_pd(acc + 8, a1);
}

void
outlierTileAvx512(const OutlierTerm *terms, std::size_t count,
                  const float *xT, double *acc)
{
    __m512d a0 = _mm512_loadu_pd(acc);
    __m512d a1 = _mm512_loadu_pd(acc + 8);
    for (std::size_t t = 0; t < count; ++t) {
        const __m512d cv =
            _mm512_set1_pd(static_cast<double>(terms[t].correction));
        __m512 x = _mm512_loadu_ps(
            xT + std::size_t{terms[t].column} * kTile);
        a0 = _mm512_add_pd(
            a0, _mm512_mul_pd(
                    cv, _mm512_cvtps_pd(_mm512_castps512_ps256(x))));
        a1 = _mm512_add_pd(
            a1, _mm512_mul_pd(
                    cv, _mm512_cvtps_pd(_mm512_extractf32x8_ps(x, 1))));
    }
    _mm512_storeu_pd(acc, a0);
    _mm512_storeu_pd(acc + 8, a1);
}

#ifdef GOBO_VBMI_DECODE

/**
 * VBMI bulk decode: 64 indexes per iteration for B <= 6.
 *
 * One 64-byte window holds at least the 8B payload bytes of the next
 * 64 indexes (8B <= 48). vpermb places payload bytes q*B..q*B+7 in
 * qword lane q, so lane q spans the 64 packed bits that contain its 8
 * indexes; vpmultishiftqb then extracts an 8-bit field per output
 * byte at bit offsets {0, B, .., 7B} within each qword (7B + 8 <= 50,
 * so no field wraps), and the AND keeps the low B bits. The head
 * (unaligned bit offset) and tail (fewer than 64 indexes, or a window
 * that would read past byteLen) fall back to the scalar reference.
 */
GOBO_VBMI_TARGET
void
decodePackedRowVbmi(const std::uint8_t *bytes, std::size_t byteLen,
                    std::size_t bitOffset, std::uint32_t bits,
                    std::size_t n, std::uint8_t *out)
{
    if (bits > 6) {
        decodePackedRowGeneric(bytes, byteLen, bitOffset, bits, n,
                               out);
        return;
    }
    const std::uint32_t b = bits;
    std::size_t bit = bitOffset;
    std::size_t i = 0;
    // Byte-align the stream position: 8 indexes advance 8*B bits, a
    // whole number of bytes, so at most 7 scalar steps are needed.
    const std::uint32_t mask = (1u << b) - 1u;
    while (i < n && bit % 8 != 0) {
        std::size_t byte = bit / 8;
        auto shift = static_cast<unsigned>(bit % 8);
        std::uint32_t window = bytes[byte];
        if (shift + b > 8)
            window |= static_cast<std::uint32_t>(bytes[byte + 1]) << 8;
        out[i] = static_cast<std::uint8_t>((window >> shift) & mask);
        ++i;
        bit += b;
    }

    alignas(64) std::uint8_t permBytes[64];
    alignas(64) std::uint8_t shiftBytes[64];
    for (std::uint32_t q = 0; q < 8; ++q)
        for (std::uint32_t p = 0; p < 8; ++p) {
            permBytes[q * 8 + p] =
                static_cast<std::uint8_t>(q * b + p);
            shiftBytes[q * 8 + p] =
                static_cast<std::uint8_t>(p * b);
        }
    const __m512i perm = _mm512_load_si512(permBytes);
    const __m512i shifts = _mm512_load_si512(shiftBytes);
    const __m512i maskv = _mm512_set1_epi8(static_cast<char>(mask));

    std::size_t byte = bit / 8;
    // The full 64-byte load must stay inside the stream; the last few
    // groups near the end of the buffer take the scalar tail instead.
    while (n - i >= 64 && byte + 64 <= byteLen) {
        __m512i win = _mm512_loadu_si512(bytes + byte);
        __m512i gathered = _mm512_permutexvar_epi8(perm, win);
        __m512i fields =
            _mm512_multishift_epi64_epi8(shifts, gathered);
        _mm512_storeu_si512(out + i,
                            _mm512_and_si512(fields, maskv));
        i += 64;
        bit += std::size_t{64} * b;
        byte += std::size_t{8} * b;
    }
    if (i < n)
        decodePackedRowGeneric(bytes, byteLen, bit, b, n - i, out + i);
}

#endif // GOBO_VBMI_DECODE

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
        s.bucketAccTile = bucketAccTileAvx512;
        s.centroidDotTile = centroidDotTileAvx512;
        s.outlierTile = outlierTileAvx512;
        s.decodePackedRow = decodePackedRowGeneric;
#ifdef GOBO_VBMI_DECODE
        if (cpuSupportsAvx512Vbmi())
            s.decodePackedRow = decodePackedRowVbmi;
#endif
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
