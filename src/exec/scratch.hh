/**
 * @file
 * Per-worker scratch arenas for the compressed-domain hot path.
 *
 * The bucket kernels need two kinds of transient storage per task: the
 * per-centroid accumulator tile and, for Packed layers, the decoded
 * byte-per-weight index rows. Allocating either inside the parallel
 * loop puts malloc on the hot path and (worse) re-decodes a packed row
 * for every sequence tile that touches it. A ScratchArena is owned by
 * exactly one thread (the accessor is thread_local, and the pool's
 * workers are persistent, so in practice arenas are keyed by worker
 * slot): buffers grow monotonically and are reused across tasks,
 * layers, and forwards without synchronization.
 *
 * Ownership rule: a pointer obtained from the arena is valid until the
 * *same thread* asks the arena for anything else — tasks must finish
 * with their scratch before returning to the pool, and must not ask
 * for scratch on behalf of another thread. Nothing in the arena is
 * ever shared across threads, which is also why it cannot affect
 * determinism: scratch holds decoded indexes (a pure function of the
 * weights) and kernel accumulators that every task overwrites before
 * reading.
 *
 * The decoded-row cache is a bounded multi-slot cache tagged by
 * (owner id, row block, row range, cols): each slot holds one decoded
 * row block, the per-arena byte budget comes from GOBO_DECODE_CACHE_KB
 * (default 1024 KB; 0 disables caching), and eviction is clock /
 * second-chance — a slot referenced since the hand last passed gets
 * one more revolution. Because slots persist across forwards, hot
 * small layers (the pooler runs on every request) stop paying bit
 * unpacking entirely after warm-up. A request larger than the budget
 * bypasses the cache into a transient buffer, preserving the old
 * single-use behavior. Owners are identified by a process-unique id
 * (never a pointer, which could be reused after a layer is
 * destroyed), so a new layer can never alias a dead one's slots.
 * Cache capacity (threads x budget) is process memory, not weight
 * state: residentWeightBytes() does not include it.
 */

#ifndef GOBO_EXEC_SCRATCH_HH
#define GOBO_EXEC_SCRATCH_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gobo {

/** Aggregate scratch counters across every live arena (see
 * scratchStats()). Decode hits/misses are counted in rows; the cache
 * fields are bytes (held / budgeted) and evicted slots. */
struct ScratchStats
{
    std::uint64_t arenas = 0;       ///< threads that touched scratch.
    std::uint64_t bytesReserved = 0; ///< sum of buffer capacities.
    std::uint64_t decodeRowHits = 0; ///< rows served from the cache.
    std::uint64_t decodeRowMisses = 0; ///< rows actually decoded.
    std::uint64_t decodeCacheBytes = 0; ///< decoded bytes held.
    std::uint64_t decodeCacheCapacity = 0; ///< sum of arena budgets.
    std::uint64_t decodeCacheEvictions = 0; ///< slots evicted.
};

/** One thread's grow-only scratch buffers. Not thread-safe by design;
 * reach it through execScratch() only. */
class ScratchArena
{
  public:
    /** Budget defaults to decodeCacheBudgetBytes() (the env knob). */
    explicit ScratchArena(std::size_t cacheBudget = std::size_t(-1));
    ~ScratchArena();
    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /** Decode callback: write row `row`'s indexes (one byte each) to
     * `out`. `ctx` is the owner object the caller captured. */
    using RowDecodeFn = void (*)(const void *ctx, std::size_t row,
                                 std::uint8_t *out);

    /** A zeroable double buffer of at least `n` elements (the kernels
     * zero-fill it themselves). Invalidated by the next arena call. */
    double *buckets(std::size_t n);

    /**
     * Decoded indexes for rows [row0, row1) of owner `ownerId`, one
     * byte per weight, `cols` per row, consecutive rows `cols` apart.
     * Served from the slot whose tag (ownerId, block, row0, row1,
     * cols) matches; otherwise decode(ctx, row, dst) is invoked once
     * per row into a cache slot (evicting clock-wise to fit the
     * budget) or, for blocks larger than the whole budget, into a
     * transient buffer. The pointer is invalidated by the next
     * decodedRows() call (buckets() leaves it intact). `hit`, when
     * non-null, reports whether the block came from cache.
     */
    const std::uint8_t *decodedRows(std::uint64_t ownerId,
                                    std::size_t block, std::size_t row0,
                                    std::size_t row1, std::size_t cols,
                                    RowDecodeFn decode, const void *ctx,
                                    bool *hit = nullptr);

    /** Replace the cache budget, dropping every cached slot (test and
     * tooling hook; the hot path never calls this). */
    void setDecodeCacheBudget(std::size_t bytes);

    /** This arena's cache budget in bytes. */
    std::size_t decodeCacheBudget() const { return budget; }

  private:
    friend ScratchStats scratchStats();

    /** One cached row block; `owner == kEmptyTag` means free. */
    struct Slot
    {
        std::uint64_t owner;
        std::size_t block, row0, row1, cols;
        bool referenced; ///< clock second-chance bit.
        std::vector<std::uint8_t> buf;
    };
    static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};

    void updateReserved();

    std::vector<double> bucketBuf;
    std::vector<std::uint8_t> rowBuf; ///< over-budget transient blocks.
    std::vector<Slot> slots;
    std::size_t clockHand = 0;
    std::size_t budget;
    std::size_t heldBytes = 0; ///< sum of live slots' buf sizes.

    // Relaxed atomics: bumped only by the owning thread, read by
    // scratchStats() from anywhere.
    std::atomic<std::uint64_t> rowHits{0};
    std::atomic<std::uint64_t> rowMisses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> cacheBytes{0};
    std::atomic<std::size_t> reserved{0};
};

/** The calling thread's arena (created on first use, lives until the
 * thread exits). */
ScratchArena &execScratch();

/** Snapshot of every live arena's counters, for telemetry export. */
ScratchStats scratchStats();

/** A process-unique id for tagging decoded rows in the arenas. Taken
 * once per owner (e.g. per QuantizedLinear) at construction. */
std::uint64_t nextScratchOwnerId();

/**
 * The per-arena decoded-row cache budget: GOBO_DECODE_CACHE_KB
 * kilobytes (strictly parsed; invalid values warn and fall back),
 * default 1024 KB. 0 disables caching — every block decodes into the
 * transient buffer.
 */
std::size_t decodeCacheBudgetBytes();

} // namespace gobo

#endif // GOBO_EXEC_SCRATCH_HH
