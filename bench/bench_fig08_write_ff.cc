/**
 * @file
 * Figure 8 reproduction: failure-free write response times for
 * 8..240 KB accesses.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 8: fault-free write response times, 8-240 KB",
                     bench::kFigure);
    bench::runResponseTimeFigure(
        "Figure 8", "Write response times, failure-free mode",
        {8, 48, 96, 144, 192, 240}, AccessType::Write,
        ArrayMode::FaultFree);
    return 0;
}
