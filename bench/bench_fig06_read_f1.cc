/**
 * @file
 * Figure 6 reproduction: single-failure (degraded / reconstruction
 * mode) read response times for 8..240 KB accesses.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 6: degraded (single-failure) read response times, 8-240 KB",
                     bench::kFigure);
    bench::runResponseTimeFigure(
        "Figure 6", "Read response times, single failure mode",
        {8, 48, 96, 144, 192, 240}, AccessType::Read,
        ArrayMode::Degraded);
    return 0;
}
