#include "exec/scratch.hh"

#include <atomic>
#include <vector>

namespace gobo {

namespace {

// Bumped once per task with its row count, so relaxed is enough.
std::atomic<std::uint64_t> rows_decoded{0};

} // namespace

std::uint8_t *
decodeScratch(std::size_t rows, std::size_t cols)
{
    thread_local std::vector<std::uint8_t> buf;
    if (buf.size() < rows * cols)
        buf.resize(rows * cols);
    rows_decoded.fetch_add(rows, std::memory_order_relaxed);
    return buf.data();
}

ScratchStats
scratchStats()
{
    ScratchStats s;
    s.decodeRowMisses = rows_decoded.load(std::memory_order_relaxed);
    return s;
}

std::size_t
decodeCacheBudgetBytes()
{
    return 0;
}

} // namespace gobo
