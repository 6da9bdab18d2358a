#include "exec/scratch.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>

#include "exec/threadpool.hh" // parseUint64Spec

namespace gobo {

namespace {

/**
 * Registry of live arenas so scratchStats() can aggregate. Arenas are
 * thread_local and die at thread exit, so membership churns; the
 * mutex only guards the vector, never the hot path (arena methods
 * don't touch it).
 */
std::mutex registry_mutex;
std::vector<const ScratchArena *> registry;

} // namespace

std::size_t
decodeCacheBudgetBytes()
{
    // Parsed once and cached, same contract as GOBO_THREADS: strict
    // grammar, warn-and-default on garbage.
    static const std::size_t cached = [] {
        constexpr std::size_t kDefault = std::size_t{1024} * 1024;
        if (const char *env = std::getenv("GOBO_DECODE_CACHE_KB")) {
            if (auto v = parseUint64Spec(env))
                return static_cast<std::size_t>(*v) * 1024;
            std::cerr << "gobo: ignoring invalid GOBO_DECODE_CACHE_KB='"
                      << env
                      << "' (want a non-negative integer); using "
                         "1024\n";
        }
        return kDefault;
    }();
    return cached;
}

ScratchArena::ScratchArena(std::size_t cacheBudget)
    : budget(cacheBudget == std::size_t(-1) ? decodeCacheBudgetBytes()
                                            : cacheBudget)
{
    std::lock_guard lock(registry_mutex);
    registry.push_back(this);
}

ScratchArena::~ScratchArena()
{
    std::lock_guard lock(registry_mutex);
    std::erase(registry, this);
}

void
ScratchArena::updateReserved()
{
    std::size_t bytes = rowBuf.capacity();
    for (const Slot &s : slots)
        bytes += s.buf.capacity();
    reserved.store(bytes, std::memory_order_relaxed);
    cacheBytes.store(heldBytes, std::memory_order_relaxed);
}

const std::uint8_t *
ScratchArena::decodedRows(std::uint64_t ownerId, std::size_t block,
                          std::size_t row0, std::size_t row1,
                          std::size_t cols, RowDecodeFn decode,
                          const void *ctx, bool *hit)
{
    std::size_t rows = row1 - row0;
    std::size_t need = rows * cols;

    for (Slot &s : slots)
        if (s.owner == ownerId && s.block == block && s.row0 == row0
            && s.row1 == row1 && s.cols == cols) {
            s.referenced = true;
            rowHits.fetch_add(rows, std::memory_order_relaxed);
            if (hit)
                *hit = true;
            return s.buf.data();
        }
    if (hit)
        *hit = false;
    rowMisses.fetch_add(rows, std::memory_order_relaxed);

    if (need > budget) {
        // Over-budget (or caching disabled): the pre-cache behavior —
        // decode into a transient buffer this call owns exclusively.
        if (rowBuf.size() < need) {
            rowBuf.resize(need);
            updateReserved();
        }
        for (std::size_t r = 0; r < rows; ++r)
            decode(ctx, row0 + r, rowBuf.data() + r * cols);
        return rowBuf.data();
    }

    // Clock eviction: sweep until the block fits, giving each
    // referenced slot one second chance. Terminates because every
    // pass clears reference bits and heldBytes only counts live
    // slots, so at worst the cache drains to empty (need <= budget).
    while (heldBytes + need > budget && !slots.empty()) {
        Slot &v = slots[clockHand];
        clockHand = (clockHand + 1) % slots.size();
        if (v.owner == kEmptyTag)
            continue;
        if (v.referenced) {
            v.referenced = false;
            continue;
        }
        heldBytes -= v.buf.size();
        v.owner = kEmptyTag;
        evictions.fetch_add(1, std::memory_order_relaxed);
    }

    Slot *dst = nullptr;
    for (Slot &s : slots)
        if (s.owner == kEmptyTag) {
            dst = &s;
            break;
        }
    if (dst == nullptr) {
        slots.emplace_back();
        dst = &slots.back();
    }
    dst->buf.resize(need);
    for (std::size_t r = 0; r < rows; ++r)
        decode(ctx, row0 + r, dst->buf.data() + r * cols);
    dst->owner = ownerId;
    dst->block = block;
    dst->row0 = row0;
    dst->row1 = row1;
    dst->cols = cols;
    dst->referenced = true;
    heldBytes += need;
    updateReserved();
    return dst->buf.data();
}

void
ScratchArena::setDecodeCacheBudget(std::size_t bytes)
{
    slots.clear();
    clockHand = 0;
    heldBytes = 0;
    budget = bytes;
    updateReserved();
}

ScratchArena &
execScratch()
{
    thread_local ScratchArena arena;
    return arena;
}

ScratchStats
scratchStats()
{
    ScratchStats s;
    std::lock_guard lock(registry_mutex);
    for (const ScratchArena *a : registry) {
        ++s.arenas;
        s.bytesReserved += a->reserved.load(std::memory_order_relaxed);
        s.decodeRowHits +=
            a->rowHits.load(std::memory_order_relaxed);
        s.decodeRowMisses +=
            a->rowMisses.load(std::memory_order_relaxed);
        s.decodeCacheBytes +=
            a->cacheBytes.load(std::memory_order_relaxed);
        s.decodeCacheCapacity += a->budget;
        s.decodeCacheEvictions +=
            a->evictions.load(std::memory_order_relaxed);
    }
    return s;
}

std::uint64_t
nextScratchOwnerId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace gobo
