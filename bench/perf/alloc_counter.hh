/**
 * @file
 * Process-wide heap-allocation counter for the perf benchmark.
 *
 * alloc_counter.cc replaces every replaceable global allocation
 * function -- plain, array, nothrow, aligned and aligned-nothrow forms
 * of operator new, and every matching operator delete -- with versions
 * that bump one relaxed atomic per allocation and forward to malloc.
 * Linking that object into an executable is what turns counting on;
 * the object must be a direct source of the executable (a static
 * library member defining only operator new would never be pulled in).
 *
 * Counts are exact: `allocs_per_access` in the benchmark is the delta
 * of allocationCount() across a run divided by the accesses it
 * simulated, and the self-test (alloc_selftest.cc) pins that every
 * form is counted exactly once.
 */

#ifndef PDDL_BENCH_PERF_ALLOC_COUNTER_HH
#define PDDL_BENCH_PERF_ALLOC_COUNTER_HH

#include <cstdint>

namespace pddl {
namespace perf {

/** Global operator-new calls (every form) since process start. */
uint64_t allocationCount();

/** Global operator-delete calls on non-null pointers since start. */
uint64_t deallocationCount();

} // namespace perf
} // namespace pddl

#endif // PDDL_BENCH_PERF_ALLOC_COUNTER_HH
