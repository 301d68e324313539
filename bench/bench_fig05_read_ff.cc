/**
 * @file
 * Figure 5 reproduction: failure-free read response times for
 * 8..240 KB accesses across the evaluated layouts.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 5: fault-free read response times, 8-240 KB",
                     bench::kFigure);
    bench::runResponseTimeFigure(
        "Figure 5", "Read response times, failure-free mode",
        {8, 48, 96, 144, 192, 240}, AccessType::Read,
        ArrayMode::FaultFree);
    return 0;
}
