/**
 * @file
 * Execution context threaded through the forward-pass stack.
 *
 * Every compute routine that can parallelize (tensor ops, the encoder,
 * compressed-domain execution, the batched InferenceSession) takes an
 * ExecContext and dispatches through it: at one thread loops run
 * inline, at more they drain row blocks on the shared ThreadPool. Every
 * thread count is bit-identical by construction — the context only
 * decides which thread computes a slot, never the reduction order
 * inside it — so tests can assert exact equality between them.
 */

#ifndef GOBO_EXEC_CONTEXT_HH
#define GOBO_EXEC_CONTEXT_HH

#include <algorithm>
#include <cstddef>
#include <functional>

#include "exec/threadpool.hh"

namespace gobo {

class Observer;   // obs/observer.hh; contexts only carry the pointer.
struct KernelSet; // kernels/kernels.hh; contexts only carry the pointer.

/**
 * How a compressed-domain engine holds its weight indexes at runtime.
 *
 * Unpacked trades memory for decode-free access: every B-bit index is
 * widened to one byte at load time, so a 3-bit model streams ~2.7x the
 * bytes its container occupies. Packed keeps the B-bit stream resident
 * — the paper's memory-traffic story — and decodes rows on the fly
 * ahead of the centroid-lookup kernel. Both formats are bit-identical
 * on outputs; the choice only moves bytes.
 */
enum class WeightFormat
{
    Unpacked, ///< one byte per weight index, decoded at load time.
    Packed,   ///< the B-bit index stream stays resident.
};

/** Printable weight-format name. */
inline const char *
weightFormatName(WeightFormat f)
{
    return f == WeightFormat::Unpacked ? "unpacked" : "packed";
}

/**
 * The execution environment a forward pass runs in: a parallelism
 * budget and the pool that provides the workers. Cheap to copy;
 * default-constructed it runs one thread inline, so existing
 * single-threaded call sites keep their exact behaviour.
 */
struct ExecContext
{
    /** Max threads a loop may use (including the calling thread); 1
     * runs every loop inline on the calling thread. */
    std::size_t threads = 1;
    /** Pool to draw workers from; nullptr means ThreadPool::shared(). */
    ThreadPool *pool = nullptr;
    /**
     * Observability sink for spans and counters (obs/observer.hh);
     * null (the default) disables instrumentation at the cost of one
     * branch per site. Instrumentation never feeds back into compute
     * or scheduling, so attaching an observer cannot change results.
     */
    Observer *obs = nullptr;
    /**
     * Kernel tier compute loops dispatch through (kernels/kernels.hh).
     * Null (the default) means the process-wide active tier — the best
     * tier cpuid approves, or whatever GOBO_KERNEL pins. Tests and
     * tools set it to compare tiers in one process; every op resolves
     * it with resolveKernels() so serial sub-contexts inherit the
     * caller's tier.
     */
    const KernelSet *kernels = nullptr;

    /**
     * Minimum estimated flops a loop must carry before it is worth
     * waking workers: below this, wake/sync latency dominates the
     * compute (the committed baseline showed fp32 *losing* throughput
     * in parallel on small matmuls). Loops submitted through the
     * cost-hinted parallelFor/parallelRows overloads with a total
     * estimate under the grain run inline on the pool's serial path,
     * so they show up in PoolTelemetry::inlineRuns.
     */
    static constexpr std::size_t kMinParallelFlops =
        std::size_t{1} << 18;

    /**
     * Per-context grain override for the cost-hinted overloads; 0 (the
     * default) means kMinParallelFlops. Tests lower it to force tiny
     * loops onto the pool, benches may raise it on slow-wake machines.
     */
    std::size_t grainFlops = 0;

    /** The one-thread context (the default). */
    static ExecContext
    serial()
    {
        return {};
    }

    /**
     * A context with `threads` workers (0 means defaultThreads(),
     * which honours GOBO_THREADS); parallel(1) equals serial().
     */
    static ExecContext
    parallel(std::size_t threads = 0)
    {
        ExecContext ctx;
        ctx.threads = threads == 0 ? defaultThreads() : threads;
        return ctx;
    }

    bool
    isParallel() const
    {
        return threads > 1;
    }

    /**
     * Run fn(i) for i in [0, count): inline when serial, on the pool
     * when parallel. fn must only write index-addressed state.
     */
    void
    parallelFor(std::size_t count,
                const std::function<void(std::size_t)> &fn) const
    {
        if (!isParallel() || count <= 1) {
            for (std::size_t i = 0; i < count; ++i)
                fn(i);
            return;
        }
        (pool ? *pool : ThreadPool::shared()).run(count, threads, fn);
    }

    /**
     * Cost-hinted parallelFor: `costPerItem` is the caller's estimate
     * of flops (or equivalent work) per index. When the whole loop is
     * under the grain it is routed through the pool's inline path —
     * still counted, never parallelized — so small ops stop paying
     * wake/sync overhead.
     */
    void
    parallelFor(std::size_t count, std::size_t costPerItem,
                const std::function<void(std::size_t)> &fn) const
    {
        if (!isParallel() || count <= 1) {
            for (std::size_t i = 0; i < count; ++i)
                fn(i);
            return;
        }
        std::size_t grain =
            grainFlops != 0 ? grainFlops : kMinParallelFlops;
        std::size_t threads_eff =
            count * costPerItem < grain ? 1 : threads;
        (pool ? *pool : ThreadPool::shared())
            .run(count, threads_eff, fn);
    }

    /**
     * Run fn(begin, end) over contiguous blocks of [0, rows). Blocks
     * are sized so each participating thread gets a handful, bounding
     * scheduling overhead while keeping the tail balanced; the block
     * decomposition does not affect results because fn computes each
     * row independently.
     */
    void
    parallelRows(std::size_t rows,
                 const std::function<void(std::size_t, std::size_t)>
                     &fn) const
    {
        if (!isParallel() || rows <= 1) {
            if (rows > 0)
                fn(0, rows);
            return;
        }
        std::size_t blocks = std::min(rows, threads * 4);
        std::size_t block = (rows + blocks - 1) / blocks;
        parallelFor(blocks, [&](std::size_t b) {
            std::size_t begin = b * block;
            std::size_t end = std::min(begin + block, rows);
            if (begin < end)
                fn(begin, end);
        });
    }

    /**
     * Cost-hinted parallelRows: `costPerRow` estimates flops per row.
     * Under-grain loops run as a single inline block on the pool's
     * serial path (counted in inlineRuns); everything else behaves
     * like parallelRows above.
     */
    void
    parallelRows(std::size_t rows, std::size_t costPerRow,
                 const std::function<void(std::size_t, std::size_t)>
                     &fn) const
    {
        if (!isParallel() || rows <= 1) {
            if (rows > 0)
                fn(0, rows);
            return;
        }
        std::size_t grain =
            grainFlops != 0 ? grainFlops : kMinParallelFlops;
        if (rows * costPerRow < grain) {
            (pool ? *pool : ThreadPool::shared())
                .run(1, 1, [&](std::size_t) { fn(0, rows); });
            return;
        }
        parallelRows(rows, fn);
    }
};

} // namespace gobo

#endif // GOBO_EXEC_CONTEXT_HH
