/**
 * @file
 * Retired decode-buffer counters, kept as header-only stubs.
 *
 * The compressed-domain FC no longer decodes index rows into memory:
 * KernelSet::lutDot reads the packed stream itself (kernels.hh). These
 * names stay only because perfbench/engine.cc still reads them for
 * its run stamp and its `exec.scratch.*` per-layer rows; every value
 * is 0. They go when the benchmark stops asking for them.
 */

#ifndef GOBO_EXEC_SCRATCH_HH
#define GOBO_EXEC_SCRATCH_HH

#include <cstddef>
#include <cstdint>

namespace gobo {

/** Decode counters; nothing is decoded into memory, so all 0. */
struct ScratchStats
{
    std::uint64_t decodeRowHits = 0;
    std::uint64_t decodeRowMisses = 0;
    std::uint64_t decodeCacheEvictions = 0;
};

/** Always all-zero. */
inline ScratchStats
scratchStats()
{
    return {};
}

/** Always 0: there is no decoded-row cache. */
inline std::size_t
decodeCacheBudgetBytes()
{
    return 0;
}

} // namespace gobo

#endif // GOBO_EXEC_SCRATCH_HH
