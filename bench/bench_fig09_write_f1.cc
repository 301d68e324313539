/**
 * @file
 * Figure 9 reproduction: single-failure write response times for
 * 8..240 KB accesses.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 9: degraded write response times, 8-240 KB",
                     bench::kFigure);
    bench::runResponseTimeFigure(
        "Figure 9", "Write response times, single failure mode",
        {8, 48, 96, 144, 192, 240}, AccessType::Write,
        ArrayMode::Degraded);
    return 0;
}
