/**
 * @file
 * SIMD kernel layer with runtime CPU dispatch.
 *
 * Every hot inner loop in the repo — the dense dot/axpy kernels under
 * matmul/linear/attention, the row ops (softmax, layernorm, GELU,
 * tanh), the centroid-lookup dot product that executes the GOBO
 * compressed format, and the packed-index row decoder — is reached
 * through a KernelSet of function pointers. Three tiers exist:
 *
 *   generic  scalar loops with exactly the pre-SIMD reduction order
 *            for the dense/row kernels, and the lookup contract below
 *            spelled out one lane at a time.
 *   avx2     AVX2+FMA vectorized kernels. The dense and row kernels
 *            reassociate float reductions (and fuse multiply-adds), so
 *            they match generic only to tolerance; lutDot keeps its
 *            16 partial sums in two ymm and stays bit-identical.
 *   avx512   AVX-512 F+BW+DQ+VL kernels: 16-wide dense/row kernels
 *            with masked tails and a one-zmm lutDot, which expands
 *            each 16-index group with one vpmultishiftqb when the CPU
 *            also has VBMI and B <= 4.
 *
 * The active tier is chosen once at startup: cpuid picks the best
 * supported tier, and the GOBO_KERNEL environment variable
 * (generic|avx2|avx512|native) overrides it. ExecContext carries an
 * optional per-context override for tests and tools; a null pointer
 * means the process-wide active tier.
 *
 * Determinism contract (DESIGN.md §11): thread counts are
 * bit-identical *within* a tier; across tiers, quantized FC outputs
 * are bit-identical (lutDot has one numeric contract, and centroid
 * lookup is exact) while dense ops carry tolerance-level differences.
 * Index expansion and row decode produce exact integers (a pure
 * function of the packed stream), so every tier's expander and
 * decoder is interchangeable. NaN and Inf propagate through every kernel in
 * every tier.
 */

#ifndef GOBO_KERNELS_KERNELS_HH
#define GOBO_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gobo {

/**
 * Tokens per lutDot call (KernelSet::seqTile) of the generic and avx2
 * tiers. The *active* value is the per-tier KernelSet::seqTile (16 for
 * avx512); kMaxSeqTile bounds every tier's so per-call sum buffers can
 * be sized statically. How a tier register-blocks the rows and tokens
 * of one call is internal to the tier.
 */
inline constexpr std::size_t kSeqTile = 8;
inline constexpr std::size_t kMaxSeqTile = 16;

/**
 * Partial sums of lutDot's numeric contract: one per i mod kLutLanes.
 * Fixed for every tier — it is part of the contract, not a vector
 * width.
 */
inline constexpr std::size_t kLutLanes = 16;

/** One dispatchable kernel tier. All pointers are non-null in every
 * registered tier. */
struct KernelSet
{
    /** Tier name: "generic", "avx2", or "avx512". */
    const char *name;
    /**
     * True when the dense/row kernels reassociate float math (SIMD
     * tiers); false when every kernel keeps the exact scalar order.
     * lutDot is bit-identical across tiers either way.
     */
    bool reassociates;
    /**
     * Tokens per lutDot call for this tier (<= kMaxSeqTile): the token
     * block qexec hands the kernel at once, and the default lane count
     * of the serve batch former's tiles. The register micro-tile the
     * tier runs inside one call is its own (four tokens on avx2 and
     * avx512).
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
     * Compressed-domain dot products of `rows` weight rows against
     * `seq` activation rows, read straight from the packed index
     * stream: `bytes` holds `byteLen` bytes of `bits`-wide indexes
     * (each < k, LSB-first), row 0 starts `bitOffset` bits in and row
     * r starts r * in * bits bits after it. `table` holds the k
     * centroids, and token s reads x[s * ldx + i]. No index is
     * widened into memory first, and no byte at or past `byteLen` is
     * read. For each (row r, token s) with row indexes idx[0..in),
     * sums[r * seq + s] is
     *
     *   p[0..15] = +0;  p[i mod 16] = p[i mod 16] + table[idx[i]] * x[i]
     *                   for i = 0, 1, .., in-1   (fp32, multiply then
     *                   add, never fused; lanes past the last i stay
     *                   untouched)
     *   l += l+8, then l += l+4, l += l+2, l += l+1 over p; sum = p[0]
     *
     * Every tier computes exactly these bits. Tiers differ only in
     * how they expand and look the indexes up (always exact) and in
     * how many rows and tokens share one register micro-tile.
     */
    void (*lutDot)(const std::uint8_t *bytes, std::size_t byteLen,
                   std::size_t bitOffset, std::uint32_t bits,
                   std::size_t rows, std::size_t in, const float *table,
                   std::size_t k, const float *x, std::size_t ldx,
                   std::size_t seq, float *sums);

    /**
     * Expand `n` consecutive `bits`-wide indexes, starting `bitOffset`
     * bits into the packed stream `bytes` (of `byteLen` total bytes),
     * into one byte each. Decode is integer-exact, so tiers may
     * restructure it freely: the output bytes are identical across
     * tiers. The FC path does not use it (lutDot reads the stream
     * itself); its users are the row-decode tests, the micro_kernels
     * `decode_row` cells and perfbench's `kernels.decode_gbps`.
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
 * The AVX-512 tier (F+BW+DQ+VL, with a VBMI lutDot path picked at
 * runtime), or nullptr when the build or the CPU does not support it.
 */
const KernelSet *avx512Kernels();

/** True when the running CPU exposes AVX2 and FMA. */
bool cpuSupportsAvx2();

/** True when the running CPU exposes AVX-512 F, BW, DQ, and VL. */
bool cpuSupportsAvx512();

/**
 * The one packed-row decoder: every tier's decodePackedRow points at
 * it. It expands 16 indexes at a time with the scalar helper lutDot's
 * tails use (kernels/packed.hh).
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
