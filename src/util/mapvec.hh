/**
 * @file
 * Vectors for large transient buffers that never enter a malloc arena.
 *
 * The quantization driver runs one layer per pool thread, and a layer
 * needs ~36 bytes of scratch per weight (tens of MB at paper width).
 * Through malloc those buffers land in the pool thread's own arena, and
 * glibc keeps a thread arena's top chunk resident — malloc_trim does
 * not release it — up to a trim threshold that the large frees
 * themselves raise to tens of MB. A serving process then carries that
 * memory after quantizing, and served measurably slower with it.
 * MapAllocator takes blocks of kMapBytes or more straight from mmap
 * and returns them with munmap on free; smaller blocks use operator
 * new.
 */

#ifndef GOBO_UTIL_MAPVEC_HH
#define GOBO_UTIL_MAPVEC_HH

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace gobo {

/** Blocks at least this large are mapped, not malloc'd. */
constexpr std::size_t kMapBytes = std::size_t{1} << 20;

template <typename T>
struct MapAllocator
{
    using value_type = T;

    MapAllocator() = default;
    template <typename U>
    MapAllocator(const MapAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        const std::size_t bytes = n * sizeof(T);
#ifdef __linux__
        if (bytes >= kMapBytes) {
            void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1,
                           0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            return static_cast<T *>(p);
        }
#endif
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
#ifdef __linux__
        if (n * sizeof(T) >= kMapBytes) {
            munmap(p, n * sizeof(T));
            return;
        }
#endif
        ::operator delete(p);
    }

    friend bool
    operator==(const MapAllocator &, const MapAllocator &)
    {
        return true;
    }
};

/** A std::vector whose large blocks are mapped (see file comment). */
template <typename T>
using MapVector = std::vector<T, MapAllocator<T>>;

} // namespace gobo

#endif // GOBO_UTIL_MAPVEC_HH
