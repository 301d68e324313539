/**
 * @file
 * Self-test of the counting allocator: every replaceable operator new
 * form is counted exactly once per call, every delete form releases
 * what it is handed, and counts from other threads land in the same
 * total. `allocs_per_access` is only as trustworthy as this.
 *
 * Replaceable allocation functions are called with explicit
 * `::operator new(...)` syntax on purpose: the compiler may elide or
 * merge the allocations of new-expressions, but never direct calls.
 */

#include <cstdio>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hh"

namespace {

using pddl::perf::allocationCount;
using pddl::perf::deallocationCount;

int g_failures = 0;

/** Run `body` and require exactly `allocs` allocations and frees. */
template <typename Body>
void
expectCounts(const char *what, uint64_t allocs, uint64_t frees,
             Body &&body)
{
    const uint64_t a0 = allocationCount();
    const uint64_t f0 = deallocationCount();
    body();
    const uint64_t da = allocationCount() - a0;
    const uint64_t df = deallocationCount() - f0;
    if (da != allocs || df != frees) {
        std::fprintf(stderr,
                     "FAIL %s: %llu allocations / %llu frees, expected "
                     "%llu / %llu\n",
                     what, static_cast<unsigned long long>(da),
                     static_cast<unsigned long long>(df),
                     static_cast<unsigned long long>(allocs),
                     static_cast<unsigned long long>(frees));
        ++g_failures;
    } else {
        std::printf("ok   %s\n", what);
    }
}

constexpr int kRounds = 1000;
constexpr std::align_val_t kAlign{64};

} // namespace

int
main()
{
    void *volatile sink = nullptr;

    expectCounts("new / delete", kRounds, kRounds, [&] {
        for (int i = 0; i < kRounds; ++i) {
            sink = ::operator new(24);
            ::operator delete(sink);
        }
    });
    expectCounts("new[] / delete[]", kRounds, kRounds, [&] {
        for (int i = 0; i < kRounds; ++i) {
            sink = ::operator new[](40);
            ::operator delete[](sink);
        }
    });
    expectCounts("new / sized delete", kRounds, kRounds, [&] {
        for (int i = 0; i < kRounds; ++i) {
            sink = ::operator new(24);
            ::operator delete(sink, 24);
        }
    });
    expectCounts("new[] / sized delete[]", kRounds, kRounds, [&] {
        for (int i = 0; i < kRounds; ++i) {
            sink = ::operator new[](40);
            ::operator delete[](sink, 40);
        }
    });
    expectCounts("nothrow new / nothrow delete", kRounds, kRounds, [&] {
        for (int i = 0; i < kRounds; ++i) {
            sink = ::operator new(24, std::nothrow);
            ::operator delete(sink, std::nothrow);
        }
    });
    expectCounts("nothrow new[] / nothrow delete[]", kRounds, kRounds,
                 [&] {
                     for (int i = 0; i < kRounds; ++i) {
                         sink = ::operator new[](40, std::nothrow);
                         ::operator delete[](sink, std::nothrow);
                     }
                 });
    expectCounts("aligned new / aligned delete", kRounds, kRounds, [&] {
        for (int i = 0; i < kRounds; ++i) {
            sink = ::operator new(100, kAlign);
            if (reinterpret_cast<uintptr_t>(sink) % 64 != 0)
                ++g_failures;
            ::operator delete(sink, kAlign);
        }
    });
    expectCounts("aligned new[] / sized aligned delete[]", kRounds,
                 kRounds, [&] {
                     for (int i = 0; i < kRounds; ++i) {
                         sink = ::operator new[](100, kAlign);
                         ::operator delete[](sink, 100, kAlign);
                     }
                 });
    expectCounts("aligned new / sized aligned delete", kRounds, kRounds,
                 [&] {
                     for (int i = 0; i < kRounds; ++i) {
                         sink = ::operator new(100, kAlign);
                         ::operator delete(sink, 100, kAlign);
                     }
                 });
    expectCounts("aligned nothrow new / aligned nothrow delete", kRounds,
                 kRounds, [&] {
                     for (int i = 0; i < kRounds; ++i) {
                         sink = ::operator new(100, kAlign,
                                               std::nothrow);
                         ::operator delete(sink, kAlign, std::nothrow);
                     }
                 });
    expectCounts("aligned nothrow new[] / aligned nothrow delete[]",
                 kRounds, kRounds, [&] {
                     for (int i = 0; i < kRounds; ++i) {
                         sink = ::operator new[](100, kAlign,
                                                 std::nothrow);
                         ::operator delete[](sink, kAlign, std::nothrow);
                     }
                 });
    expectCounts("aligned new[] / aligned delete[]", kRounds, kRounds,
                 [&] {
                     for (int i = 0; i < kRounds; ++i) {
                         sink = ::operator new[](100, kAlign);
                         ::operator delete[](sink, kAlign);
                     }
                 });
    expectCounts("delete of null is not a free", 0, 0, [&] {
        ::operator delete(nullptr);
        ::operator delete[](nullptr);
    });

    // Library containers go through the same functions: one reserve
    // is one allocation, a long string one more.
    expectCounts("vector reserve + long string", 2, 2, [&] {
        std::vector<int> v;
        v.reserve(1000);
        std::string s(64, 'x');
        sink = v.data();
        sink = s.data();
    });

    // Counts from another thread land in the same total.
    expectCounts("counts across threads", 4 * kRounds + 1,
                 4 * kRounds + 1, [&] {
                     std::thread worker([&] {
                         for (int i = 0; i < 4 * kRounds; ++i)
                             ::operator delete(::operator new(8));
                     });
                     worker.join();
                 });

    if (g_failures != 0) {
        std::fprintf(stderr, "%d allocation-counter check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("allocation counter exact on every form\n");
    return 0;
}
