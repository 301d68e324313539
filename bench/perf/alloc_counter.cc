#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_deallocations{0};

void *
rawAlloc(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}

void *
rawAlignedAlloc(std::size_t size, std::align_val_t align) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t rounded = size != 0 ? size : 1;
    rounded = (rounded + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded);
}

void *
throwingAlloc(std::size_t size)
{
    if (void *p = rawAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
throwingAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (void *p = rawAlignedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

void
rawFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    g_deallocations.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

} // namespace

namespace pddl {
namespace perf {

uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

uint64_t
deallocationCount()
{
    return g_deallocations.load(std::memory_order_relaxed);
}

} // namespace perf
} // namespace pddl

// Replaceable allocation functions ([new.delete]): all eight new
// forms and all twelve delete forms, so no allocation path escapes
// the count and every pointer is released by the allocator that made
// it.

void *operator new(std::size_t size) { return throwingAlloc(size); }

void *operator new[](std::size_t size) { return throwingAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return rawAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return rawAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return throwingAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return throwingAlignedAlloc(size, align);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return rawAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return rawAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { rawFree(p); }

void operator delete[](void *p) noexcept { rawFree(p); }

void operator delete(void *p, std::size_t) noexcept { rawFree(p); }

void operator delete[](void *p, std::size_t) noexcept { rawFree(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    rawFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    rawFree(p);
}

void operator delete(void *p, std::align_val_t) noexcept { rawFree(p); }

void operator delete[](void *p, std::align_val_t) noexcept { rawFree(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    rawFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    rawFree(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    rawFree(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    rawFree(p);
}
