/**
 * @file
 * The per-thread decode buffer for the compressed-domain hot path.
 *
 * A packed layer's task decodes its row block (one byte per weight
 * index) once, before its token loop, and lutDot reads those bytes for
 * every token block of the task. The bytes live in the calling
 * thread's decode buffer: thread_local and grow-only, so after warm-up
 * the hot path never allocates, and nothing in it is shared across
 * threads. Decoded indexes are a pure function of the weights, so the
 * buffer cannot affect results.
 *
 * Ownership rule: a pointer from decodeScratch() is valid until the
 * *same thread* calls decodeScratch() again — a task must finish with
 * its rows before returning to the pool.
 */

#ifndef GOBO_EXEC_SCRATCH_HH
#define GOBO_EXEC_SCRATCH_HH

#include <cstddef>
#include <cstdint>

namespace gobo {

/**
 * Process-wide decode counters (see scratchStats()). The field names
 * are kept for perfbench/engine.cc:1071-1105, which reads them as
 * decode lookups, hit rate and evictions.
 */
struct ScratchStats
{
    std::uint64_t decodeRowHits = 0;        ///< always 0: no row cache.
    std::uint64_t decodeRowMisses = 0;      ///< rows decoded.
    std::uint64_t decodeCacheEvictions = 0; ///< always 0: no row cache.
};

/**
 * The calling thread's decode buffer, grown to hold `rows` decoded
 * rows of `cols` index bytes each. Counts `rows` into
 * scratchStats().decodeRowMisses.
 */
std::uint8_t *decodeScratch(std::size_t rows, std::size_t cols);

/** Rows decoded so far by every thread. */
ScratchStats scratchStats();

/** Always 0: rows are never cached. Kept for the run stamp at
 * perfbench/engine.cc:378. */
std::size_t decodeCacheBudgetBytes();

} // namespace gobo

#endif // GOBO_EXEC_SCRATCH_HH
