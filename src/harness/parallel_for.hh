/**
 * @file
 * Fan-out of independent index batches over short-lived threads.
 *
 * Every user (the experiment grid, the tuner's annealing chains, the
 * layout search's chains) runs one batch of independent items that
 * take milliseconds to seconds each, writes each result at its own
 * index, and merges by index afterwards. A shared atomic counter is
 * all the scheduling that granularity needs.
 *
 * parallelFor only schedules; determinism of results is the caller's
 * business (every item must depend exclusively on its own index).
 */

#ifndef PDDL_HARNESS_PARALLEL_FOR_HH
#define PDDL_HARNESS_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace pddl {
namespace harness {

/**
 * Worker count to use: PDDL_BENCH_THREADS when set (clamped to at
 * least 1), otherwise the hardware concurrency.
 */
int defaultThreads();

/**
 * Run fn(0) .. fn(count-1) on at most min(threads, count) threads,
 * the calling thread included, and return when all have run.
 * `threads` < 1 selects defaultThreads(). With one thread the batch
 * runs inline in index order (the serial reference schedule). The
 * first exception thrown by an item is rethrown once every index has
 * run and every helper thread has joined; if a helper thread cannot
 * be started, the helpers already running are joined and that error
 * is rethrown.
 */
void parallelFor(int threads, size_t count,
                 const std::function<void(size_t)> &fn);

} // namespace harness
} // namespace pddl

#endif // PDDL_HARNESS_PARALLEL_FOR_HH
