#include "harness/parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/spec_text.hh"

namespace pddl {
namespace harness {

int
defaultThreads()
{
    int parsed = 0;
    if (const char *env = std::getenv("PDDL_BENCH_THREADS");
        env != nullptr && spec_text::parseInt(env, parsed, 1))
        return parsed;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
parallelFor(int threads, size_t count,
            const std::function<void(size_t)> &fn)
{
    if (threads < 1)
        threads = defaultThreads();
    const size_t participants =
        std::min(static_cast<size_t>(threads), count);

    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error; // guarded by error_mutex
    auto work = [&] {
        for (size_t i = next++; i < count; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> helpers;
    try {
        for (size_t t = 1; t < participants; ++t)
            helpers.emplace_back(work);
    } catch (...) {
        for (std::thread &helper : helpers)
            helper.join();
        throw;
    }
    // Alone, the caller claims 0, 1, 2, ... in order: the serial
    // reference schedule.
    work();
    for (std::thread &helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace harness
} // namespace pddl
