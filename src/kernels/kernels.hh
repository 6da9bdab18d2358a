/**
 * @file
 * SIMD kernel layer with runtime CPU dispatch.
 *
 * Every hot inner loop in the repo — the dense dot/axpy kernels under
 * matmul/linear/attention, the row ops (softmax, layernorm, GELU,
 * tanh), the sequence-tiled bucket kernel that executes the GOBO
 * compressed format, and the packed-index row decoder — is reached
 * through a KernelSet of function pointers. Three tiers exist:
 *
 *   generic  scalar loops with exactly the pre-SIMD reduction order;
 *            bit-identical to the historical outputs by construction.
 *   avx2     AVX2+FMA vectorized kernels. The dense and row kernels
 *            reassociate float reductions (and fuse multiply-adds), so
 *            they match generic only to tolerance; the quantized
 *            bucket-tile kernels keep the per-lane double arithmetic
 *            and order of the scalar loop and stay bit-identical.
 *   avx512   AVX-512 F+BW+DQ+VL kernels: 16-wide dense/row kernels
 *            with masked tails, 16-lane bucket-tile kernels, and —
 *            when the CPU also has VBMI — an in-register packed-row
 *            decoder (vpermb + vpmultishiftqb) for B <= 6.
 *
 * The active tier is chosen once at startup: cpuid picks the best
 * supported tier, and the GOBO_KERNEL environment variable
 * (generic|avx2|avx512|native) overrides it. ExecContext carries an
 * optional per-context override for tests and tools; a null pointer
 * means the process-wide active tier.
 *
 * Determinism contract (DESIGN.md §11): thread counts and
 * Packed/Unpacked formats are bit-identical *within* a tier; across
 * tiers, quantized FC outputs are bit-identical while dense ops carry
 * tolerance-level differences. The sequence tile width is a per-tier
 * property (KernelSet::seqTile) — lanes are independent sequence
 * positions, so widening the tile cannot change per-lane arithmetic.
 * Row decode produces exact bytes (a pure function of the packed
 * stream), so every tier's decoder is interchangeable. NaN and Inf
 * propagate through every kernel in every tier.
 */

#ifndef GOBO_KERNELS_KERNELS_HH
#define GOBO_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gobo {

/**
 * Default lane count of the sequence-tiled bucket kernels, and the
 * width of the generic and avx2 tiers. The *active* width is the
 * per-tier KernelSet::seqTile (16 for avx512); tile buffers
 * (transposed activations, buckets, accumulators) are allocated and
 * strided at the executing tier's width. kMaxSeqTile bounds every
 * tier's width so stack accumulators can be sized statically.
 */
inline constexpr std::size_t kSeqTile = 8;
inline constexpr std::size_t kMaxSeqTile = 16;

/**
 * One outlier's contribution to a quantized FC row: the weight sits at
 * `column`, and `correction` is w - centroid[assigned index] (the index
 * under an outlier still feeds its centroid through the bucket sums).
 */
struct OutlierTerm
{
    std::uint32_t column;
    float correction;
};

/**
 * One dispatchable kernel tier. All pointers are non-null in every
 * registered tier. Buffer contracts:
 *
 *   - xT is a transposed activation tile: seqTile floats per input
 *     feature, laid out [i][lane], zero-padded in unused lanes.
 *   - bucket is k * seqTile doubles, [centroid][lane].
 *   - acc is seqTile doubles, one per lane.
 */
struct KernelSet
{
    /** Tier name: "generic", "avx2", or "avx512". */
    const char *name;
    /**
     * True when the dense/row kernels reassociate float math (SIMD
     * tiers); false when every kernel keeps the exact scalar order.
     * The bucket-tile kernels are bit-identical across tiers either
     * way.
     */
    bool reassociates;
    /**
     * Sequence lanes per bucket tile for this tier (<= kMaxSeqTile).
     * Tiling, scratch strides, and the 2-D partitioner all follow this
     * width; the tile kernels below hard-code it internally.
     */
    std::size_t seqTile;

    /** Fold-left dot product: init + sum_i a[i]*b[i] in index order. */
    float (*dot)(float init, const float *a, const float *b,
                 std::size_t n);
    /** y[j] += a * x[j] for j in [0, n). */
    void (*axpy)(float a, const float *x, float *y, std::size_t n);

    /** In-place numerically-stable softmax over one row. */
    void (*softmaxRow)(float *row, std::size_t n);
    /** In-place layer norm over one row with scale/shift. */
    void (*layerNormRow)(float *row, std::size_t n, const float *gamma,
                         const float *beta, float eps);
    /** In-place tanh-approximation GELU over one row. */
    void (*geluRow)(float *row, std::size_t n);
    /** In-place tanh over one row. */
    void (*tanhRow)(float *row, std::size_t n);

    /**
     * Phase 1 of the compressed-domain FC: overwrite bucket with the
     * per-centroid activation sums of one weight row against one
     * activation tile. Per lane, bucket[irow[i]] accumulates xT lanes
     * in ascending-i order — the scalar order, in double.
     */
    void (*bucketAccTile)(const std::uint8_t *irow, std::size_t in,
                          const float *xT, double *bucket,
                          std::size_t k);
    /**
     * Phase 2: acc[l] = bias + sum_c centroids[c] * bucket[c][l] in
     * ascending-c order (double multiply then add, never fused).
     */
    void (*centroidDotTile)(const float *centroids, std::size_t k,
                            const double *bucket, double bias,
                            double *acc);
    /**
     * Phase 3: acc[l] += correction * xT[column][l] for each outlier
     * term in order (double multiply then add, never fused).
     */
    void (*outlierTile)(const OutlierTerm *terms, std::size_t count,
                        const float *xT, double *acc);

    /**
     * Expand `n` consecutive `bits`-wide indexes, starting `bitOffset`
     * bits into the packed stream `bytes` (of `byteLen` total bytes),
     * into one byte each. Decode is integer-exact, so tiers may
     * restructure it freely — the output bytes are identical across
     * tiers and the decoded-row cache never keys on the tier.
     */
    void (*decodePackedRow)(const std::uint8_t *bytes,
                            std::size_t byteLen, std::size_t bitOffset,
                            std::uint32_t bits, std::size_t n,
                            std::uint8_t *out);
};

/** The scalar reference tier (always available). */
const KernelSet &genericKernels();

/**
 * The AVX2+FMA tier, or nullptr when the build or the CPU does not
 * support it.
 */
const KernelSet *avx2Kernels();

/**
 * The AVX-512 tier (F+BW+DQ+VL, with a VBMI fast-path decoder picked
 * at runtime), or nullptr when the build or the CPU does not support
 * it.
 */
const KernelSet *avx512Kernels();

/** True when the running CPU exposes AVX2 and FMA. */
bool cpuSupportsAvx2();

/** True when the running CPU exposes AVX-512 F, BW, DQ, and VL. */
bool cpuSupportsAvx512();

/**
 * The reference scalar row decoder (byte-LUT for B dividing 8, 24-bit
 * groups for B=3, two-byte windows otherwise). Every tier without a
 * native decoder points at this; exposed for tests.
 */
void decodePackedRowGeneric(const std::uint8_t *bytes,
                            std::size_t byteLen, std::size_t bitOffset,
                            std::uint32_t bits, std::size_t n,
                            std::uint8_t *out);

/**
 * The process-wide active tier: the best tier the CPU supports, unless
 * the GOBO_KERNEL environment variable (generic|avx2|avx512|native)
 * says otherwise. Resolved once on first call; fatal when GOBO_KERNEL
 * names an unsupported or unknown tier.
 */
const KernelSet &activeKernels();

/**
 * Override the process-wide active tier (tests and CLI flags). Not
 * thread-safe against concurrent forwards; call before compute starts.
 */
void setActiveKernels(const KernelSet &kernels);

/** Look up a tier by name ("generic", "avx2", "avx512", "native");
 * fatal on an unknown name or a tier the CPU cannot run. The error
 * names the feature set the tier actually needs. */
const KernelSet &kernelsByName(std::string_view name);

/** Resolve an ExecContext-style override: null means the active tier. */
inline const KernelSet &
resolveKernels(const KernelSet *kernels)
{
    return kernels ? *kernels : activeKernels();
}

} // namespace gobo

#endif // GOBO_KERNELS_KERNELS_HH
